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
checked rather than assumed.  The reference evaluates the log-gamma
closed form with ``mpmath.libmp``'s functions at an explicit precision, 40
significant digits plus the digits its log-gamma differences cancel: O(K)
like the baseline, and independent of the sum-of-logs walk.  It reads and
sets none of mpmath's global state, so it is safe to call from any number
of threads, and it evaluates the log-gamma of each parameter once per
precision, however many grid points share it.

Records serialize to CSV (header ``n,method,abs_error,rel_error,
wall_time_ns,terms``) and to a versioned JSON document.  Everything except
``wall_time_ns`` is deterministic, and both sweeps give the same records
apart from it.
"""

from __future__ import annotations

import functools
import gc
import math
import numbers
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import mpmath

from .core import (
    SCHEMA_VERSION,
    AlphaLike,
    AlphaParams,
    CountVector,
    CountsLike,
    DomainError,
    MeanPhiParams,
    Method,
    _as_alpha,
    _as_counts,
    _check_size,
    _checked,
    _iterate,
    canonical_json,
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

CSV_HEADER = "n,method,abs_error,rel_error,wall_time_ns,terms"

#: Least working precision (significant decimal digits) of the reference
#: evaluator, which adds the digits its log-gamma values cancel.
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
    """The log-gamma closed form, evaluated in at least 40-digit arithmetic.

    Sums ``loggamma(a_k + x_k) - loggamma(a_k)`` over the categories with
    x_k > 0 and subtracts ``loggamma(A + N) - loggamma(A)``: O(K) whatever
    N, and a formula independent of the evaluators' sums of logs.  The
    differences cancel by about the digits of the largest log-gamma value,
    so the working precision is :data:`REFERENCE_DPS` (read on each call)
    plus those digits, plus the decimal digits the parameters span, so that
    a result as small as the least parameter (at alpha = (1e-300, 1),
    x = (0, 5) it is about -2.28e-300) keeps its digits in A and in the
    differences.  The parameter total A is the exact sum of the parameters
    rounded once to that precision, and the result is rounded to a Python
    float once at the end.  Serves as ground truth when measuring evaluator
    error.

    Every step is a ``mpmath.libmp`` function given the precision and
    round-to-nearest explicitly: the operations ``mpmath.fsum``,
    ``mpmath.loggamma``, ``+``, ``-`` and ``float`` perform inside
    ``mpmath.workdps``, so the float is theirs bit for bit, without setting
    mpmath's global precision that another thread's call would run at.
    ``loggamma`` of each a_k and of A is memoized per value and precision.
    The arguments are validated before any mpmath work.
    """
    alpha = _as_alpha(alpha)
    x = _checked(len(alpha.alpha), x)
    if x.total == 0:
        return 0.0
    # A + N is the largest argument, and loggamma(z) is about z log z.
    top = alpha.sum_a + x.total
    digits = math.ceil(math.log10(top) + math.log10(max(1.0, math.log(top))))
    # A result can be as small as the least a_k, which A holds to its last
    # digit only at as many more digits as the a_k span.  Their ratio can
    # overflow a float, the difference of their logs cannot.
    digits += math.ceil(math.log10(max(alpha.alpha)) - math.log10(min(alpha.alpha)))
    libmp = mpmath.libmp
    prec = libmp.dps_to_prec(REFERENCE_DPS + digits)
    a = [libmp.from_float(a_k) for a_k in alpha.alpha]
    a_sum = libmp.mpf_sum(a, prec, "n")
    num = libmp.mpf_sum(
        [_loggamma_rise(a_k, x_k, prec) for a_k, x_k in zip(a, x.counts) if x_k], prec, "n"
    )
    den = _loggamma_rise(a_sum, x.total, prec)
    return libmp.to_float(libmp.mpf_sub(num, den, prec, "n"), rnd="n")


def _loggamma_rise(a, n: int, prec: int):
    """``loggamma(a + n) - loggamma(a)`` for a raw mpf ``a`` > 0, each step
    rounded to nearest at ``prec`` bits; ``loggamma(a)`` comes from the memo."""
    libmp = mpmath.libmp
    top = libmp.mpf_loggamma(libmp.mpf_add(a, libmp.from_int(n), prec, "n"), prec, "n")
    return libmp.mpf_sub(top, _parameter_loggamma(a, prec), prec, "n")


@functools.lru_cache(maxsize=1024)
def _parameter_loggamma(a, prec: int):
    """``loggamma(a)`` of a raw mpf parameter (an a_k or A) at ``prec`` bits.

    Every point of a sweep shares its parameters, so each is evaluated once
    per precision.  Keyed by value and precision: a value at one precision
    is never handed out at another.
    """
    return mpmath.libmp.mpf_loggamma(a, prec, "n")


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
    ``fractions`` and ``decimal``."""
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
