"""Accuracy and runtime experiments for the log-likelihood evaluators.

Two sweeps, both over count vectors ``x = n * base_counts`` for a grid of
multipliers ``n``:

* accuracy: absolute error of each evaluator against a 40-digit reference;
* runtime: wall time of ``evaluations_per_point`` consecutive evaluations,
  median over ``repeats`` timing samples on a monotonic clock.

The sum-of-logs evaluator costs O(N) log calls and the log-gamma baseline
costs O(K) lgamma calls, so the first scales linearly in ``n`` while the
second stays flat; the records carry exact term counts so that claim can be
checked rather than assumed.

Records serialize to CSV (header ``n,method,abs_error,rel_error,
wall_time_ns,terms``) and to a versioned JSON document.  Everything except
``wall_time_ns`` is deterministic.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import mpmath

from .core import (
    AlphaLike,
    AlphaParams,
    CountVector,
    CountsLike,
    DomainError,
    MeanPhiParams,
    Method,
    _as_alpha,
    _as_counts,
    _checked,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    params_from_mean_phi,
)

__all__ = [
    "SCHEMA_VERSION",
    "CSV_HEADER",
    "REFERENCE_DPS",
    "DEFAULT_N_GRID",
    "DEFAULT_REPEATS",
    "DEFAULT_EVALS_PER_POINT",
    "BenchRecord",
    "ExperimentConfig",
    "accuracy_defaults",
    "runtime_defaults",
    "reference_loglik",
    "run_accuracy_experiment",
    "run_runtime_experiment",
    "records_to_csv",
    "records_to_json",
    "canonical_json",
]

SCHEMA_VERSION = 1
CSV_HEADER = "n,method,abs_error,rel_error,wall_time_ns,terms"

#: Working precision (significant decimal digits) of the reference evaluator.
REFERENCE_DPS = 40

DEFAULT_N_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
DEFAULT_REPEATS = 11
DEFAULT_EVALS_PER_POINT = 100

_WARMUP_EVALS = 10

_METHOD_FUNCS: dict[Method, Callable] = {
    Method.EXACT: dmn_loglik_exact,
    Method.LOG_GAMMA: dmn_loglik_lgamma,
}


def reference_loglik(alpha: AlphaLike, x: CountsLike) -> float:
    """The same nested log sums, evaluated in 40-digit arithmetic.

    Every term (including the parameter total A) is computed and accumulated
    as an mpmath float with :data:`REFERENCE_DPS` significant digits; the
    result is rounded to a Python float once at the end.  Serves as ground
    truth when measuring evaluator error.
    """
    alpha = _as_alpha(alpha)
    x = _checked(len(alpha.alpha), x)
    with mpmath.workdps(REFERENCE_DPS):
        num = mpmath.fsum(
            mpmath.log(mpmath.mpf(a_k) + j)
            for a_k, x_k in zip(alpha.alpha, x.counts)
            for j in range(x_k)
        )
        a_sum = mpmath.fsum(mpmath.mpf(a_k) for a_k in alpha.alpha)
        den = mpmath.fsum(mpmath.log(a_sum + i) for i in range(x.total))
        return float(num - den)


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark observation at a single grid point and method."""

    n_scale: int
    method: Method
    abs_error: float
    rel_error: float
    wall_time_ns: int
    terms: int

    def __post_init__(self):
        if self.abs_error < 0.0:
            raise DomainError("abs_error must be >= 0")
        if self.wall_time_ns <= 0:
            raise DomainError("wall_time_ns must be > 0")


@dataclass(frozen=True, init=False)
class ExperimentConfig:
    """Sweep definition: counts pattern, (p, phi) parameters, and grid."""

    base_counts: CountVector
    p: tuple[float, ...]
    phi: float
    n_values: tuple[int, ...]
    repeats: int
    evaluations_per_point: int

    def __init__(
        self,
        base_counts: CountsLike,
        p: Sequence[float],
        phi: float,
        n_values: Iterable[int] = DEFAULT_N_GRID,
        repeats: int = DEFAULT_REPEATS,
        evaluations_per_point: int = DEFAULT_EVALS_PER_POINT,
    ):
        base = _as_counts(base_counts)
        mp = MeanPhiParams(p, phi)
        if mp.phi <= 0.0:
            raise DomainError(
                "experiments need phi > 0 so the concentration parameters exist"
            )
        if len(mp.p) != len(base.counts):
            raise DomainError(
                f"p has {len(mp.p)} categories, base_counts has {len(base.counts)}"
            )
        grid = tuple(int(n) for n in n_values)
        if not grid:
            raise DomainError("n_values must not be empty")
        if any(n < 0 for n in grid):
            raise DomainError("n_values must be non-negative")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise DomainError("n_values must be strictly increasing")
        if repeats < 3:
            raise DomainError(f"repeats must be >= 3, got {repeats}")
        if evaluations_per_point < 1:
            raise DomainError("evaluations_per_point must be >= 1")
        object.__setattr__(self, "base_counts", base)
        object.__setattr__(self, "p", mp.p)
        object.__setattr__(self, "phi", mp.phi)
        object.__setattr__(self, "n_values", grid)
        object.__setattr__(self, "repeats", int(repeats))
        object.__setattr__(self, "evaluations_per_point", int(evaluations_per_point))

    def alpha(self) -> AlphaParams:
        return params_from_mean_phi(MeanPhiParams(self.p, self.phi))

    def counts_at(self, n: int) -> CountVector:
        return CountVector(n * c for c in self.base_counts.counts)


def accuracy_defaults(
    n_values: Iterable[int] = DEFAULT_N_GRID,
    repeats: int = DEFAULT_REPEATS,
    evaluations_per_point: int = DEFAULT_EVALS_PER_POINT,
) -> ExperimentConfig:
    """Accuracy sweep: four balanced categories, mild over-dispersion."""
    return ExperimentConfig(
        base_counts=(1, 1, 1, 1),
        p=(0.1, 0.2, 0.3, 0.4),
        phi=1.0 / 200.0,
        n_values=n_values,
        repeats=repeats,
        evaluations_per_point=evaluations_per_point,
    )


def runtime_defaults(
    n_values: Iterable[int] = DEFAULT_N_GRID,
    repeats: int = DEFAULT_REPEATS,
    evaluations_per_point: int = DEFAULT_EVALS_PER_POINT,
) -> ExperimentConfig:
    """Runtime sweep: three uneven categories, stronger over-dispersion."""
    return ExperimentConfig(
        base_counts=(1, 2, 3),
        p=(1.0 / 6.0, 1.0 / 3.0, 1.0 / 2.0),
        phi=1.0 / 60.0,
        n_values=n_values,
        repeats=repeats,
        evaluations_per_point=evaluations_per_point,
    )


def _time_evaluations(func, alpha, x, repeats: int, evals: int) -> int:
    """Median wall time (ns, monotonic clock) of `evals` consecutive calls."""
    for _ in range(_WARMUP_EVALS):
        func(alpha, x)
    samples = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for _ in range(evals):
                func(alpha, x)
            samples.append(time.perf_counter_ns() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return max(int(statistics.median(samples)), 1)


def _run_point(
    cfg: ExperimentConfig, alpha: AlphaParams, n: int, ref: float
) -> list[BenchRecord]:
    x = cfg.counts_at(n)
    records = []
    for method in (Method.EXACT, Method.LOG_GAMMA):
        func = _METHOD_FUNCS[method]
        wall = _time_evaluations(func, alpha, x, cfg.repeats, cfg.evaluations_per_point)
        result = func(alpha, x)
        abs_error = abs(result.value - ref)
        rel_error = abs_error / abs(ref) if ref != 0.0 else 0.0
        records.append(
            BenchRecord(
                n_scale=n,
                method=method,
                abs_error=abs_error,
                rel_error=rel_error,
                wall_time_ns=wall,
                terms=result.terms,
            )
        )
    return records


def _sweep(cfg: ExperimentConfig) -> list[BenchRecord]:
    """Both evaluators at every grid point, in grid order, on the calling thread."""
    alpha = cfg.alpha()
    return [
        rec
        for n in cfg.n_values
        for rec in _run_point(cfg, alpha, n, reference_loglik(alpha, cfg.counts_at(n)))
    ]


def run_accuracy_experiment(cfg: ExperimentConfig) -> list[BenchRecord]:
    """Error of both evaluators against the reference at every grid point.

    Records are returned in grid order.  Wall times measured here are
    informational; use :func:`run_runtime_experiment` for timing claims.
    """
    return _sweep(cfg)


def run_runtime_experiment(cfg: ExperimentConfig) -> list[BenchRecord]:
    """Wall time of both evaluators at every grid point.

    Strictly sequential and single-threaded so concurrent work cannot
    contaminate the timings.
    """
    return _sweep(cfg)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def canonical_json(payload) -> str:
    """Stable JSON encoding: sorted keys, two-space indent, trailing newline.

    Re-encoding a parsed document reproduces it byte for byte.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.n_scale},{r.method.value},{r.abs_error!r},{r.rel_error!r},"
            f"{r.wall_time_ns},{r.terms}"
        )
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[BenchRecord]) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [
            {
                "n": r.n_scale,
                "method": r.method.value,
                "abs_error": r.abs_error,
                "rel_error": r.rel_error,
                "wall_time_ns": r.wall_time_ns,
                "terms": r.terms,
            }
            for r in records
        ],
    }
    return canonical_json(payload)
