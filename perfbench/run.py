"""The dmnll benchmark: seeded CLI workloads, each command in a fresh interpreter.

Usage, from the repository root::

    python3 perfbench/run.py --workload loglik-exact --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  The input tables are drawn
from ``--seed`` before any timing; ``dmnll`` only sees the CSV files.  For
``--seconds`` the driver then starts one fresh ``python3`` after another,
each importing ``dmnll.cli`` and running the workload's command once.  With
``--trace 1`` every second command runs with spans recorded (see
``spans.py``) and the per-layer metrics are reported instead of the
end-to-end ones.  Outputs are checked after the timed loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and every metric by name for a human reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, draw_table, table_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A command still running after this long is killed and counts as failed.
COMMAND_TIMEOUT_S = 90

#: Fresh processes that run ``python -X importtime -c "import dmnll.cli"`` per traced run.
IMPORTTIME_RUNS = 3

#: Time of the child's calibration loop on the reference machine (2 cores of a
#: 2.0 GHz Xeon VM, in its fast state).  Times are scaled by this over the
#: calibration measured around them, so they read as seconds on that machine.
REFERENCE_CALIBRATION_S = 0.006

#: Samples beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "max_abs_err": "nat",
    "success_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "core.eval_s": "s",
    "core.eval_calls": "count",
    "core.terms": "count",
    "core.ns_per_term": "ns",
    "cli.parse_s": "s",
    "core.countvector_s": "s",
    "core.countvector_calls": "count",
    "cli.self_s": "s",
    "cli.rows": "count",
    "estimate.fit_s": "s",
    "estimate.iterate_s": "s",
    "estimate.iterations": "count",
    "estimate.us_per_iter": "us",
    "estimate.dataset_s": "s",
    "estimate.final_loglik_s": "s",
    "bench.reference_s": "s",
    "bench.reference_calls": "count",
    "bench.sweep_self_s": "s",
    "bench.serialize_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_mpmath_s": "s",
    "cli.import_self_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_command(argv: list[str], trace: bool, run_id: str) -> dict:
    """Run one command in a fresh interpreter; return its report plus ``ok`` and ``error``."""
    spec = json.dumps({"argv": argv, "trace": trace, "run": run_id})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {COMMAND_TIMEOUT_S} s"}
    if proc.returncode != 0 or "Traceback" in proc.stderr:
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"ok": False, "error": f"no report on stdout: {proc.stdout[-500:]!r}"}
    cal = report["calibration_s"]
    report["setup_raw_s"], report["wall_raw_s"] = report["setup_s"], report["wall_s"]
    report["setup_s"] *= 2 * REFERENCE_CALIBRATION_S / (cal[0] + cal[1])
    report["scale"] = 2 * REFERENCE_CALIBRATION_S / (cal[1] + cal[2])
    report["wall_s"] *= report["scale"]
    report.update(ok=True, error=None)
    return report


def import_breakdown() -> dict[str, float]:
    """``dmnll.cli`` import time split into numpy, mpmath and the rest (``-X importtime``)."""
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dmnll.cli"],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=COMMAND_TIMEOUT_S,
        )
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import times in seconds, taken from ``-X importtime`` output."""
    cumulative = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            if name in ("numpy", "mpmath", "dmnll.cli") and name not in cumulative:
                cumulative[name] = int(parts[1]) * 1e-6
    numpy_s = cumulative.get("numpy", 0.0)
    mpmath_s = cumulative.get("mpmath", 0.0)
    return {
        "cli.import_numpy_s": numpy_s,
        "cli.import_mpmath_s": mpmath_s,
        "cli.import_self_s": cumulative.get("dmnll.cli", 0.0) - numpy_s - mpmath_s,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with ten samples beyond it, and that percentile.

    A run of n samples gives percentile 100 (n - 10) / n, which is near the
    median when n is near 20.  With ten samples or fewer there is no such
    percentile, and the largest sample (percentile 100) is given.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    sha = ""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown",
        "seed": seed,
    }


class Sampler:
    """Runs the workload's command again and again, keeping every report."""

    def __init__(self, w, argv: list[str], out_path: Path, run_prefix: str):
        self.w = w
        self.argv = argv
        self.out_path = out_path
        self.run_prefix = run_prefix
        self.samples: list[dict] = []
        self.first_output: str | None = None

    def run(self, traced: bool) -> None:
        report = run_command(self.argv, traced, f"{self.run_prefix}-{len(self.samples)}")
        report["traced"] = traced
        if report["ok"]:
            try:
                output = self.out_path.read_text(encoding="utf-8")
                self.out_path.unlink()
            except OSError as exc:
                report.update(ok=False, error=f"no output file: {exc}")
            else:
                if self.first_output is None:
                    self.first_output = output
                elif checks.comparable(self.w.kind, output) != checks.comparable(
                    self.w.kind, self.first_output
                ):
                    report.update(ok=False, error="output differs from the first command's")
        self.samples.append(report)


def check_output(w, output: str, table, seed: int, with_reference: bool) -> tuple[list[str], dict]:
    """Problems in one output, plus the values reported from it.

    The 40-digit reference comparison, the slow part, runs only when
    ``with_reference`` is set.
    """
    if w.kind == "bench":
        grid = [int(n) for n in w.args[w.args.index("--n") + 1].split(",")]
        problems, worst = checks.check_bench(output, grid)
        # a passing check means one record per grid point and method
        return problems, {"max_abs_err": worst, "records": 2 * len(grid)}
    exact_route = "lgamma" not in w.args
    extra: dict = {}
    if w.kind == "loglik":
        problems, values = checks.check_loglik(output, table, exact=exact_route)
        alpha = w.alpha
        evaluate = values.__getitem__
    else:
        from dmnll.core import dmn_loglik_exact

        problems, fit = checks.check_fit(output, table, w.alpha)
        alpha = fit.get("alpha_hat")
        extra["fit_loglik"] = fit.get("loglik")

        def evaluate(i):
            return dmn_loglik_exact(alpha, table[i]).value

    if problems or not with_reference:
        return problems, extra
    picks = checks.subsample(len(table), w.err_rows * w.err_blocks, seed)
    errors = checks.reference_errors(evaluate, alpha, table, picks)
    extra["max_abs_err"] = checks.block_max_median(errors, w.err_blocks)
    if exact_route and max(errors) > checks.EXACT_ERROR_GATE:
        problems.append(f"error {max(errors)!r} against the reference exceeds {checks.EXACT_ERROR_GATE:g}")
    return problems, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Draw the inputs, run the command for ``seconds``, check the outputs.

    Returns the result object and the report lines for a human reader.
    """
    w = WORKLOADS[name]
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perfbench"))
    try:
        table = draw_table(w, seed) if w.rows else None
        table_path = None
        if table is not None:
            table_path = work / "table.csv"
            table_path.write_text(table_csv(table), encoding="utf-8")
        out_path = work / ("out.json" if "json" in w.args else "out.csv")
        sampler = Sampler(w, w.argv(table_path, out_path), out_path, f"{name}-{seed}")

        deadline = time.perf_counter() + seconds
        while not sampler.samples or time.perf_counter() < deadline:
            sampler.run(traced=False)
            if trace:
                sampler.run(traced=True)

        samples = sampler.samples
        problems, extra = ["no command succeeded"], {}
        if sampler.first_output is not None:
            problems, extra = check_output(w, sampler.first_output, table, seed, not trace)
        for s in samples:
            if s["ok"] and problems:
                s.update(ok=False, error="; ".join(problems[:5]))
            if not s["ok"]:
                print(f"{name}: failed command: {s['error']}", file=sys.stderr)
        return summarize(w, samples, extra, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def summarize(w, samples: list[dict], extra: dict, trace: bool) -> tuple[dict, list[str]]:
    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    plain = [s for s in samples if s["ok"] and not s["traced"]]
    walls = [s["wall_s"] for s in plain]
    wall_s = _median(walls)
    lines = [f"{w.name}: {attempted} commands, {failed} failed"]

    if not trace:
        tail_s, tail_pct = tail(walls) if walls else (None, None)
        rows = w.rows or extra.get("records", 0)
        rss = _median([s["peak_rss_kib"] for s in plain])
        values = {
            "setup_s": _median([s["setup_s"] for s in plain]),
            "wall_s": wall_s,
            "wall_tail_s": tail_s,
            "rows_per_s": rows / wall_s if wall_s else None,
            "peak_rss_mb": rss / 1024 if rss else None,
            "max_abs_err": extra.get("max_abs_err"),
            "success_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
        lines.append(f"wall_tail_s is percentile {tail_pct} of {len(walls)} samples")
        lines.append(
            "unscaled: setup_s {} wall_s {} calibration_s {}".format(
                _median([s["setup_raw_s"] for s in plain]),
                _median([s["wall_raw_s"] for s in plain]),
                _median([sum(s["calibration_s"]) / 3 for s in plain]),
            )
        )
        lines.append(f"fail_ratio {failed / attempted} ({failed} of {attempted})")
        if "fit_loglik" in extra:
            lines.append(f"fit_loglik {extra['fit_loglik']!r} nat")
    else:
        per_command = [
            {
                key: value * s["scale"] if PER_LAYER_UNITS[key] in ("s", "ns", "us") else value
                for key, value in spans.layer_metrics(s["spans"]).items()
            }
            for s in samples
            if s["ok"] and s["traced"]
        ]
        values = {
            key: _median([m[key] for m in per_command])
            for key in PER_LAYER_UNITS
            if not key.startswith(("cli.import_", "trace."))
        }
        values.update(import_breakdown())
        traced_wall = _median([s["wall_s"] for s in samples if s["ok"] and s["traced"]])
        values["trace.overhead_s"] = (
            traced_wall - wall_s if traced_wall is not None and wall_s is not None else None
        )
        units = PER_LAYER_UNITS
        lines.append(f"per-layer values are medians over {len(per_command)} traced commands")

    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    lines += [f"{key} {m['value']!r} {m['unit']}" for key, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dmnll" / "__init__.py").is_file():
        print(f"error: no dmnll sources in {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
