"""Correctness checks on ``dmnll`` outputs, made outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  A command whose output has a problem counts as a failed command.
"""

from __future__ import annotations

import json
import math
import random
import statistics

#: The paper's accuracy gate for the exact route, against the 40-digit reference.
EXACT_ERROR_GATE = 1e-11

#: How far the fit's reported log-likelihood may sit from an lgamma-route recomputation.
FIT_LOGLIK_TOL = 1e-6


def check_loglik(text: str, table: list[list[int]], exact: bool) -> tuple[list[str], list[float]]:
    """Check ``dmnll loglik`` CSV output against its input table.

    Returns the problems found and the per-row values.  Every input row must
    have one output row, no value may be NaN, the total must be the ``fsum``
    of the rows, and on the exact route each row must report ``terms == 2N``.
    """
    lines = text.splitlines()
    if not lines or lines[0] != "row,loglik,terms":
        return ["missing CSV header row,loglik,terms"], []
    if len(lines) < 2 or not lines[-1].startswith("total,"):
        return ["missing total line"], []
    problems: list[str] = []
    body = lines[1:-1]
    if len(body) != len(table):
        problems.append(f"{len(body)} output rows for {len(table)} input rows")
    values: list[float] = []
    terms_sum = 0
    for i, line in enumerate(body):
        try:
            idx, value, terms = line.split(",")
            idx, value, terms = int(idx), float(value), int(terms)
        except ValueError:
            problems.append(f"unparseable output line {i + 2}: {line!r}")
            continue
        if idx != i:
            problems.append(f"output line {i + 2} is numbered {idx}")
        if math.isnan(value):
            problems.append(f"row {i} is NaN")
        if exact and i < len(table) and terms != 2 * sum(table[i]):
            problems.append(f"row {i} reports {terms} terms, expected {2 * sum(table[i])}")
        values.append(value)
        terms_sum += terms
    try:
        _, total, total_terms = lines[-1].split(",")
        total, total_terms = float(total), int(total_terms)
    except ValueError:
        return problems + [f"unparseable total line {lines[-1]!r}"], values
    if not total == math.fsum(values):
        problems.append(f"total {total!r} is not the fsum of the rows {math.fsum(values)!r}")
    if total_terms != terms_sum:
        problems.append(f"total terms {total_terms} != sum of row terms {terms_sum}")
    return problems, values


def lgamma_loglik(alpha, table: list[list[int]]) -> float:
    """Dataset log-likelihood through ``math.lgamma``, independent of ``dmnll``."""
    lg = math.lgamma
    a_sum = math.fsum(alpha)
    return math.fsum(
        lg(a_sum) - lg(a_sum + sum(row)) + math.fsum(lg(a + x) - lg(a) for a, x in zip(alpha, row))
        for row in table
    )


def check_fit(text: str, table: list[list[int]], true_alpha) -> tuple[list[str], dict]:
    """Check ``dmnll fit --format json`` output.

    The fit must have converged to finite, positive parameters; its reported
    log-likelihood must match a recomputation at ``alpha_hat``, and it must
    be at least the log-likelihood at the parameters the data were drawn from.
    """
    try:
        out = json.loads(text)
        alpha_hat = [float(a) for a in out["alpha_hat"]]
        loglik = float(out["loglik"])
        converged = out["converged"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable fit output: {exc!r}"], {}
    problems = []
    if converged is not True:
        problems.append(f"fit did not converge in {out.get('iterations')} iterations")
    if len(alpha_hat) != len(true_alpha) or not all(math.isfinite(a) and a > 0 for a in alpha_hat):
        return problems + [f"alpha_hat {alpha_hat} is not {len(true_alpha)} finite values > 0"], out
    if not math.isfinite(loglik):
        return problems + [f"loglik {loglik!r} is not finite"], out
    recomputed = lgamma_loglik(alpha_hat, table)
    if abs(loglik - recomputed) > FIT_LOGLIK_TOL:
        problems.append(f"loglik {loglik!r} but {recomputed!r} at alpha_hat")
    at_truth = lgamma_loglik(true_alpha, table)
    if loglik < at_truth:
        problems.append(f"loglik {loglik!r} is below {at_truth!r} at the generating alpha")
    return problems, out


def check_bench(text: str, grid) -> tuple[list[str], float]:
    """Check ``dmnll bench accuracy --format json`` output on ``grid``.

    Returns the problems and the largest exact-route ``abs_error``.
    """
    try:
        records = json.loads(text)["records"]
        pairs = sorted((r["n"], r["method"]) for r in records)
        errors = [(r["method"], float(r["abs_error"])) for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable bench output: {exc!r}"], math.nan
    problems = []
    expected = sorted((n, m) for n in grid for m in ("exact", "lgamma"))
    if pairs != expected:
        problems.append(f"{len(records)} records do not cover {len(grid)} grid points x 2 methods")
    if not all(math.isfinite(e) and e >= 0 for _, e in errors):
        problems.append("an abs_error is not finite and >= 0")
    exact = [e for m, e in errors if m == "exact"]
    worst = max(exact, default=math.nan)
    if not worst <= EXACT_ERROR_GATE:
        problems.append(f"exact abs_error {worst!r} exceeds {EXACT_ERROR_GATE:g}")
    return problems, worst


def comparable(kind: str, text: str) -> str:
    """The output with its wall-clock fields removed, for comparing two runs."""
    if kind != "bench":
        return text
    try:
        doc = json.loads(text)
        for r in doc["records"]:
            r.pop("wall_time_ns", None)
    except (ValueError, KeyError, TypeError, AttributeError):
        return text
    return json.dumps(doc, sort_keys=True)


def subsample(n_rows: int, size: int, seed: int) -> list[int]:
    """A seeded choice of row indices for the reference comparison."""
    return sorted(random.Random(seed).sample(range(n_rows), min(size, n_rows)))


def block_max_median(errors: list[float], blocks: int) -> float:
    """Median over ``blocks`` interleaved blocks of ``errors`` of each block's largest value.

    With one block this is the largest error.  Per-row errors are whole
    numbers of ulps, mostly 0 or 1, with rare larger ones, so the largest of
    a sample jumps between levels from run to run; the median of block
    maxima does not.
    """
    return statistics.median(max(errors[b::blocks]) for b in range(blocks))


def reference_errors(evaluate, alpha, table: list[list[int]], picks) -> list[float]:
    """Absolute errors of ``evaluate(i)`` against the 40-digit reference, for i in ``picks``."""
    from dmnll.bench import reference_loglik

    return [abs(evaluate(i) - reference_loglik(alpha, table[i])) for i in picks]
