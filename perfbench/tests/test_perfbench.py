"""Tests of the benchmark's own logic: inputs, span arithmetic and output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import math

import pytest

import checks
import run
import spans
from workloads import WORKLOADS, draw_table, table_csv

import dmnll.cli


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.rows])
def test_same_seed_gives_byte_identical_tables(name):
    w = WORKLOADS[name]
    first = table_csv(draw_table(w, 7))
    assert first == table_csv(draw_table(w, 7))
    assert first != table_csv(draw_table(w, 8))
    assert first.count("\n") == w.rows


def test_tables_have_the_stated_trials_per_row():
    w = WORKLOADS["loglik-exact"]
    assert all(sum(row) == w.trials and len(row) == len(w.alpha) for row in draw_table(w, 1))


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def _span(id, name, parent, busy, calls=1, counts=None):
    return {
        "id": id, "name": name, "parent": parent, "run": "r", "start": 0.0,
        "end": busy, "calls": calls, "busy": busy, "counts": counts or {},
    }


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, "cli.main", None, 10.0),
        _span(1, "cli.parse", 0, 4.0, counts={"rows": 3}),
        _span(2, "core.countvector", 1, 1.5, calls=3),
        _span(3, "core.eval", 0, 3.0, calls=3, counts={"terms": 30}),
    ]
    own = spans.self_times(tree)
    assert own == {0: 3.0, 1: 2.5, 2: 1.5, 3: 3.0}
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == 3.0
    assert m["cli.parse_s"] == 2.5
    assert m["core.countvector_s"] == 1.5 and m["core.countvector_calls"] == 3
    assert m["core.eval_s"] == 3.0 and m["core.terms"] == 30
    assert m["core.ns_per_term"] == pytest.approx(1e8)
    assert m["cli.rows"] == 3
    assert m["estimate.iterations"] == 0 and m["estimate.us_per_iter"] == 0.0


def test_recorder_nests_and_aggregates():
    rec = spans.Recorder("run-1")
    leaf = rec.wrap("leaf", lambda x: x, aggregate=True, counter=lambda r: {"n": r})
    outer = rec.wrap("outer", lambda: [leaf(1), leaf(2)])
    outer()
    outer()
    names = [(s["name"], s["parent"], s["calls"]) for s in rec.spans]
    assert names == [("outer", None, 1), ("leaf", 0, 2), ("outer", None, 1), ("leaf", 2, 2)]
    assert all(s["run"] == "run-1" for s in rec.spans)
    assert rec.spans[1]["counts"] == {"n": 3}
    assert all(v >= 0.0 for v in spans.self_times(rec.spans).values())


def test_instrumented_names_exist():
    rec = spans.Recorder("r")
    saved = {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, *_ in spans.INSTRUMENTED}
    try:
        assert spans.instrument(rec) == []
    finally:
        for (m, a), fn in saved.items():
            setattr(__import__(m, fromlist=[a]), a, fn)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

TABLE = [[1, 2, 0], [0, 0, 4], [3, 1, 1]]
ALPHA = "2,5,3"


@pytest.fixture
def loglik_csv(tmp_path):
    table = tmp_path / "t.csv"
    table.write_text(table_csv(TABLE))
    out = tmp_path / "out.csv"
    assert dmnll.cli.main(["loglik", str(table), "--alpha", ALPHA, "--out", str(out)]) == 0
    return out.read_text()


def test_loglik_check_accepts_real_output(loglik_csv):
    problems, values = checks.check_loglik(loglik_csv, TABLE, exact=True)
    assert problems == []
    assert len(values) == len(TABLE)


def test_loglik_check_rejects_a_dropped_row(loglik_csv):
    lines = loglik_csv.splitlines()
    del lines[2]
    problems, _ = checks.check_loglik("\n".join(lines), TABLE, exact=True)
    assert any("output rows" in p for p in problems)


def test_loglik_check_rejects_nan(loglik_csv):
    lines = loglik_csv.splitlines()
    i, _, t = lines[1].split(",")
    lines[1] = f"{i},nan,{t}"
    problems, _ = checks.check_loglik("\n".join(lines), TABLE, exact=True)
    assert any("NaN" in p for p in problems)


def test_loglik_check_rejects_wrong_terms(loglik_csv):
    lines = loglik_csv.splitlines()
    i, v, t = lines[1].split(",")
    lines[1] = f"{i},{v},{int(t) + 1}"
    problems, _ = checks.check_loglik("\n".join(lines), TABLE, exact=True)
    assert any("terms" in p for p in problems)


def test_loglik_check_rejects_a_wrong_total(loglik_csv):
    lines = loglik_csv.splitlines()
    _, v, t = lines[-1].split(",")
    lines[-1] = f"total,{float(v) + 1e-9!r},{t}"
    problems, _ = checks.check_loglik("\n".join(lines), TABLE, exact=True)
    assert any("fsum" in p for p in problems)


def test_reference_errors_are_tiny_on_real_output(loglik_csv):
    _, values = checks.check_loglik(loglik_csv, TABLE, exact=True)
    errors = checks.reference_errors(values.__getitem__, (2.0, 5.0, 3.0), TABLE, range(len(TABLE)))
    assert max(errors) <= checks.EXACT_ERROR_GATE


def test_block_max_median():
    errors = [0.0, 1.0, 0.0, 1.0, 3.0, 1.0]
    assert checks.block_max_median(errors, 1) == 3.0
    assert checks.block_max_median(errors, 3) == 1.0  # blocks [0, 1], [1, 3], [0, 1]


def _fit_output(**changes):
    doc = {"alpha_hat": [2.0, 5.0, 3.0], "loglik": 0.0, "converged": True, "iterations": 3}
    doc["loglik"] = checks.lgamma_loglik(doc["alpha_hat"], TABLE)
    doc.update(changes)
    return json.dumps(doc)


def test_fit_check():
    assert checks.check_fit(_fit_output(), TABLE, (2.0, 5.0, 3.0))[0] == []
    assert checks.check_fit(_fit_output(converged=False), TABLE, (2.0, 5.0, 3.0))[0]
    assert checks.check_fit(_fit_output(alpha_hat=[2.0, -1.0, 3.0]), TABLE, (2.0, 5.0, 3.0))[0]
    assert checks.check_fit(_fit_output(loglik=-1e9), TABLE, (2.0, 5.0, 3.0))[0]


def test_bench_check_and_comparable():
    grid = (1, 2)
    records = [
        {"n": n, "method": m, "abs_error": 1e-15, "wall_time_ns": 5 + n}
        for n in grid
        for m in ("exact", "lgamma")
    ]
    text = json.dumps({"records": records})
    assert checks.check_bench(text, grid) == ([], 1e-15)
    assert checks.check_bench(json.dumps({"records": records[1:]}), grid)[0]
    records[0]["abs_error"] = 1e-9
    assert checks.check_bench(json.dumps({"records": records}), grid)[0]
    for r in records:
        r["wall_time_ns"] += 100
    assert checks.comparable("bench", text) != checks.comparable("bench", json.dumps({"records": records}))
    records[0]["abs_error"] = 1e-15
    assert checks.comparable("bench", text) == checks.comparable("bench", json.dumps({"records": records}))


# ---------------------------------------------------------------------------
# statistics and import breakdown
# ---------------------------------------------------------------------------


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(40)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(11)]) == (0.0, 100.0 / 11)


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |       1000 |       numpy",
            "import time:       300 |        400 |       mpmath",
            "import time:        50 |       2000 | dmnll.cli",
        ]
    )
    got = run.parse_importtime(text)
    assert got["cli.import_numpy_s"] == pytest.approx(1e-3)
    assert got["cli.import_mpmath_s"] == pytest.approx(4e-4)
    assert got["cli.import_self_s"] == pytest.approx(6e-4)
    assert not math.isnan(sum(got.values()))


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
