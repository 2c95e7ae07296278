"""Accuracy and runtime experiments for the log-likelihood evaluators.

Two sweeps, both over count vectors ``x = n * base_counts`` for a grid of
multipliers ``n``:

* accuracy: absolute error of each evaluator against a reference, from one
  evaluation per grid point and method, whose own duration is the record's
  (informational) ``wall_time_ns``;
* runtime: wall time of ``evaluations_per_point`` consecutive evaluations,
  median over ``repeats`` timing samples on a monotonic clock, taken in
  rounds across the grid so that a slow phase of the machine slows every
  point alike.

The sum-of-logs evaluator costs O(N) log calls and the log-gamma baseline
costs O(K) lgamma calls, so the first scales linearly in ``n`` while the
second stays flat; the records carry exact term counts so that claim can be
checked rather than assumed.  Each error is taken against
:func:`dmnll.reference.reference_loglik`, the closed form in 40-digit
decimal arithmetic; this module holds the sweeps, their timing and their
records.

Records serialize to CSV (header ``n,method,abs_error,rel_error,
wall_time_ns,terms``) and to a versioned JSON document.  Everything except
``wall_time_ns`` is deterministic, and both sweeps give the same records
apart from it.
"""

from __future__ import annotations

import gc
import numbers
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from .core import (
    SCHEMA_VERSION,
    AlphaParams,
    CountVector,
    DomainError,
    MeanPhiParams,
    Method,
    _as_counts,
    _check_size,
    _checked,
    _iterate,
    canonical_json,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    params_from_mean_phi,
)
from .reference import reference_loglik

__all__ = [
    "SCHEMA_VERSION",
    "CSV_HEADER",
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

CSV_HEADER = "n,method,abs_error,rel_error,wall_time_ns,terms"

DEFAULT_N_GRID = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
DEFAULT_REPEATS = 11
DEFAULT_EVALS_PER_POINT = 100

_WARMUP_EVALS = 10

_METHOD_FUNCS: dict[Method, Callable] = {
    Method.EXACT: dmn_loglik_exact,
    Method.LOG_GAMMA: dmn_loglik_lgamma,
}


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark observation at a single grid point and method.

    ``method`` must be a :class:`Method`, and ``n_scale``, ``wall_time_ns``
    and ``terms`` integers (numpy's included), which the fields hold as
    plain ints, so that a record serializes whatever built it.  Anything
    else is a :class:`DomainError`.
    """

    n_scale: int
    method: Method
    abs_error: float
    rel_error: float
    wall_time_ns: int
    terms: int

    def __post_init__(self):
        if not isinstance(self.method, Method):
            raise DomainError(f"method must be a Method, got {self.method!r}")
        _check_size("n_scale", self.n_scale)
        _check_size("terms", self.terms)
        if self.abs_error < 0.0:
            raise DomainError("abs_error must be >= 0")
        _check_least("wall_time_ns", self.wall_time_ns, 1, "wall_time_ns must be > 0")
        for name in ("n_scale", "wall_time_ns", "terms"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep definition: counts pattern, (p, phi) parameters, and grid.

    Accepted: ``base_counts`` any counts :class:`CountVector` takes, ``p``
    a sequence of floats, ``phi`` a float, ``n_values`` an iterable of
    integers, and ``repeats`` and ``evaluations_per_point`` integers (numpy's
    included).  The fields hold them normalized, and the generated signature
    shows these stored types instead: a :class:`CountVector`, a tuple of
    floats, a float, a tuple of plain ints and two plain ints.

    ``repeats`` and ``evaluations_per_point`` govern only the runtime
    sweep; the accuracy sweep evaluates each grid point once, but they are
    validated for both.  So are the counts of the largest grid point: they
    must fit in 64 bits and within the evaluators' budget, so that no sweep
    fails after it has run the points below it.  Every size must be an
    integer (numpy's included); no size is truncated, and a bad one is a
    :class:`DomainError`.  :func:`dataclasses.replace` validates alike.
    """

    base_counts: CountVector
    p: tuple[float, ...]
    phi: float
    n_values: tuple[int, ...] = DEFAULT_N_GRID
    repeats: int = DEFAULT_REPEATS
    evaluations_per_point: int = DEFAULT_EVALS_PER_POINT

    def __post_init__(self):
        base = _as_counts(self.base_counts)
        mp = MeanPhiParams(self.p, self.phi)
        if mp.phi <= 0.0:
            raise DomainError(
                "experiments need phi > 0 so the concentration parameters exist"
            )
        if len(mp.p) != len(base.counts):
            raise DomainError(
                f"p has {len(mp.p)} categories, base_counts has {len(base.counts)}"
            )
        grid = tuple(_iterate(self.n_values, "n_values must be a sequence of integers"))
        if not grid:
            raise DomainError("n_values must not be empty")
        for n in grid:
            _check_least("n_values", n, 0, "n_values must be non-negative")
        if any(b >= a for a, b in zip(grid[1:], grid)):
            raise DomainError("n_values must be strictly increasing")
        repeats, evals = self.repeats, self.evaluations_per_point
        _check_least("repeats", repeats, 3, f"repeats must be >= 3, got {repeats}")
        _check_least("evaluations_per_point", evals, 1, "evaluations_per_point must be >= 1")
        object.__setattr__(self, "base_counts", base)
        object.__setattr__(self, "p", mp.p)
        object.__setattr__(self, "phi", mp.phi)
        # every size is an integer now; int() makes numpy's plain, as records need
        object.__setattr__(self, "n_values", tuple(map(int, grid)))
        object.__setattr__(self, "repeats", int(repeats))
        object.__setattr__(self, "evaluations_per_point", int(evals))
        _checked(len(base.counts), self.counts_at(grid[-1]))

    def alpha(self) -> AlphaParams:
        return params_from_mean_phi(MeanPhiParams(self.p, self.phi))

    def counts_at(self, n: int) -> CountVector:
        return CountVector(n * c for c in self.base_counts.counts)


def _check_least(name: str, n, least: int, message: str) -> None:
    """A size ``n`` must be an integer (:func:`dmnll.core._check_size`) and at
    least ``least``; ``message`` is the error for an integer below it."""
    if isinstance(n, numbers.Integral) and n < least:
        raise DomainError(message)
    _check_size(name, n)


def accuracy_defaults(
    n_values: Iterable[int] = DEFAULT_N_GRID,
    repeats: int = DEFAULT_REPEATS,
    evaluations_per_point: int = DEFAULT_EVALS_PER_POINT,
) -> ExperimentConfig:
    """Accuracy sweep: four balanced categories, mild over-dispersion.

    ``repeats`` and ``evaluations_per_point`` are validated, but they govern
    only :func:`run_runtime_experiment`, not the accuracy sweep.
    """
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


def _time_evaluations(calls, repeats: int, evals: int) -> list[int]:
    """Median wall time (ns, monotonic clock) of ``evals`` consecutive calls
    of each ``(func, alpha, x)`` in ``calls``.

    The ``repeats`` samples are taken in rounds, one sample of every call
    per round, so that a slow phase of the machine lasting a sample or
    more slows every call alike instead of one.
    """
    for func, alpha, x in calls:
        for _ in range(_WARMUP_EVALS):
            func(alpha, x)
    samples = [[] for _ in calls]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for (func, alpha, x), own in zip(calls, samples):
                t0 = time.perf_counter_ns()
                for _ in range(evals):
                    func(alpha, x)
                own.append(time.perf_counter_ns() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return [max(int(_median(own)), 1) for own in samples]


def _median(values):
    """The middle of ``values`` sorted, or the mean of the two middle ones:
    ``statistics.median``, without importing ``statistics`` and, with it,
    ``fractions``, which nothing else here needs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _sweep(cfg: ExperimentConfig, timed: bool) -> list[BenchRecord]:
    """Both evaluators at every grid point, in grid order, on the calling thread.

    Each record's errors and terms come from one evaluation, and its
    ``wall_time_ns`` is that evaluation's duration, or with ``timed`` the
    median of :func:`_time_evaluations`, timed over every point at once.
    A ``cfg`` that is not an :class:`ExperimentConfig` is a :class:`DomainError`.
    """
    if not isinstance(cfg, ExperimentConfig):
        raise DomainError(f"a sweep needs an ExperimentConfig, got {cfg!r}")
    alpha = cfg.alpha()
    records = []
    calls = []
    for n in cfg.n_values:
        x = cfg.counts_at(n)
        ref = reference_loglik(alpha, x)
        for method, func in _METHOD_FUNCS.items():
            t0 = time.perf_counter_ns()
            result = func(alpha, x)
            wall = max(time.perf_counter_ns() - t0, 1)
            calls.append((func, alpha, x))
            abs_error = abs(result.value - ref)
            records.append(
                BenchRecord(
                    n_scale=n,
                    method=method,
                    abs_error=abs_error,
                    rel_error=abs_error / abs(ref) if ref != 0.0 else 0.0,
                    wall_time_ns=wall,
                    terms=result.terms,
                )
            )
    if timed:
        walls = _time_evaluations(calls, cfg.repeats, cfg.evaluations_per_point)
        records = [replace(r, wall_time_ns=w) for r, w in zip(records, walls)]
    return records


def run_accuracy_experiment(cfg: ExperimentConfig) -> list[BenchRecord]:
    """Error of both evaluators against the reference at every grid point.

    Records are returned in grid order.  Each evaluator runs once per grid
    point, and that call's duration is the record's ``wall_time_ns``: it is
    informational, so use :func:`run_runtime_experiment` for timing claims.
    ``cfg.repeats`` and ``cfg.evaluations_per_point`` are not used here.
    """
    return _sweep(cfg, timed=False)


def run_runtime_experiment(cfg: ExperimentConfig) -> list[BenchRecord]:
    """Wall time of both evaluators at every grid point.

    Strictly sequential and single-threaded so concurrent work cannot
    contaminate the timings.
    """
    return _sweep(cfg, timed=True)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _records(records: Iterable[BenchRecord]) -> Iterator[BenchRecord]:
    """The items of ``records``, read through :func:`dmnll.core._iterate`;
    an item that is not a :class:`BenchRecord` is a :class:`DomainError`."""
    for r in _iterate(records, "records must be a sequence of BenchRecord"):
        if not isinstance(r, BenchRecord):
            raise DomainError(f"records must hold BenchRecord items, got {r!r}")
        yield r


_NAMES = CSV_HEADER.split(",")


def _values(r: BenchRecord) -> tuple:
    """A record's values, in the order of :data:`CSV_HEADER`'s names."""
    return (r.n_scale, r.method.value, r.abs_error, r.rel_error, r.wall_time_ns, r.terms)


def records_to_csv(records: Iterable[BenchRecord]) -> str:
    lines = [CSV_HEADER, *(",".join(map(str, _values(r))) for r in _records(records))]
    return "\n".join(lines) + "\n"


def records_to_json(records: Iterable[BenchRecord]) -> str:
    rows = [dict(zip(_NAMES, _values(r))) for r in _records(records)]
    return canonical_json({"schema_version": SCHEMA_VERSION, "records": rows})
