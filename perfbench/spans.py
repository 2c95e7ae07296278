"""Spans for the traced run: recorded in the command's process, summed up in the driver.

A span has a name, a start, an end, a parent span and a run id.  Calls that
happen once per row (a ``CountVector`` per table row, an evaluator call per
row) would make one span each too many, so such a boundary is recorded as
one aggregate span per parent: ``calls`` counts the calls and ``busy`` sums
their durations.  A plain span has ``calls == 1`` and ``busy == end - start``.

Spans are recorded by rebinding the public names that ``dmnll`` looks up at
call time (``dmnll.cli.parse_count_table``, ``dmnll.estimate.loglik_dataset``
and so on) to timing wrappers, so no file of the program changes.  All
wrapped names are called from the thread that runs the command.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


def _terms(result) -> dict:
    return {"terms": result.terms}


#: (module, attribute, span name, aggregate?, counter) for every rebound name.
#: A counter maps the call's result to the counts added to its span.
INSTRUMENTED = (
    ("dmnll.cli", "parse_count_table", "cli.parse", False, lambda t: {"rows": len(t.rows)}),
    ("dmnll.cli", "CountVector", "core.countvector", True, None),
    ("dmnll.cli", "dmn_loglik_exact", "core.eval", True, _terms),
    ("dmnll.cli", "dmn_loglik_lgamma", "core.eval", True, _terms),
    ("dmnll.cli", "Dataset", "estimate.dataset", False, None),
    ("dmnll.cli", "fit_alpha_mle", "estimate.fit", False, lambda f: {"iterations": f.iterations}),
    ("dmnll.estimate", "loglik_dataset", "estimate.final_loglik", False, None),
    ("dmnll.estimate", "dmn_loglik_exact", "core.eval", True, _terms),
    ("dmnll.bench", "run_accuracy_experiment", "bench.sweep", False, lambda recs: {"rows": len(recs)}),
    ("dmnll.bench", "reference_loglik", "bench.reference", True, None),
    ("dmnll.bench", "records_to_json", "bench.serialize", False, None),
)


class Recorder:
    """Keeps the spans of one command run in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[str, int | None], dict] = {}

    def _open(self, name: str, aggregate: bool, now: float) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = self._aggregates.get((name, parent)) if aggregate else None
        if span is None:
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": parent,
                "run": self.run_id,
                "start": now,
                "end": now,
                "calls": 0,
                "busy": 0.0,
                "counts": {},
            }
            self.spans.append(span)
            if aggregate:
                self._aggregates[(name, parent)] = span
        return span

    def wrap(self, name: str, fn, aggregate: bool = False, counter=None):
        """Return ``fn`` wrapped so that every call is recorded under ``name``."""

        def traced(*args, **kwargs):
            start = time.perf_counter()
            span = self._open(name, aggregate, start)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["end"] = end
                span["calls"] += 1
                span["busy"] += end - start
            if counter is not None:
                for key, value in counter(result).items():
                    span["counts"][key] = span["counts"].get(key, 0) + value
            return result

        return traced


def instrument(recorder: Recorder) -> list[str]:
    """Rebind every name in :data:`INSTRUMENTED` that exists; return the missing ones."""
    missing = []
    for module_name, attr, span_name, aggregate, counter in INSTRUMENTED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(span_name, fn, aggregate, counter))
    return missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's busy time minus the busy time of its direct children.

    Children run inside their parent on the same thread and one after the
    other, so their busy times add up to the part of the parent they cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["busy"]
    return {span["id"]: span["busy"] - covered[span["id"]] for span in spans}


def by_name(spans: list[dict]) -> dict[str, dict]:
    """Per span name: summed busy time, self time, calls and counts."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(
            span["name"], {"busy": 0.0, "self": 0.0, "calls": 0, "counts": defaultdict(int)}
        )
        entry["busy"] += span["busy"]
        entry["self"] += own[span["id"]]
        entry["calls"] += span["calls"]
        for key, value in span["counts"].items():
            entry["counts"][key] += value
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced command; a layer that did not run reads 0."""
    names = by_name(spans)
    empty = {"busy": 0.0, "self": 0.0, "calls": 0, "counts": {}}

    def get(name):
        return names.get(name, empty)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    ev, fit = get("core.eval"), get("estimate.fit")
    terms = ev["counts"].get("terms", 0)
    iterations = fit["counts"].get("iterations", 0)
    return {
        "core.eval_s": ev["busy"],
        "core.eval_calls": ev["calls"],
        "core.terms": terms,
        "core.ns_per_term": ratio(ev["busy"], terms, 1e9),
        "cli.parse_s": get("cli.parse")["self"],
        "core.countvector_s": get("core.countvector")["busy"],
        "core.countvector_calls": get("core.countvector")["calls"],
        "cli.self_s": get("cli.main")["self"],
        # table rows parsed, or records a sweep produced
        "cli.rows": sum(entry["counts"].get("rows", 0) for entry in names.values()),
        "estimate.fit_s": fit["busy"],
        "estimate.iterate_s": fit["self"],
        "estimate.iterations": iterations,
        "estimate.us_per_iter": ratio(fit["self"], iterations, 1e6),
        "estimate.dataset_s": get("estimate.dataset")["busy"],
        "estimate.final_loglik_s": get("estimate.final_loglik")["busy"],
        "bench.reference_s": get("bench.reference")["busy"],
        "bench.reference_calls": get("bench.reference")["calls"],
        "bench.sweep_self_s": get("bench.sweep")["self"],
        "bench.serialize_s": get("bench.serialize")["busy"],
    }
