"""Maximum-likelihood fitting of concentration parameters from count data.

The gradient of the exact log-likelihood needs no digamma function: since
lgamma(a + x) - lgamma(a) = sum_{j=0}^{x-1} log(a + j) for integer x, its
derivative is the harmonic-style sum psi(a + x) - psi(a) =
sum_{j=0}^{x-1} 1/(a + j).  The fitter below is the classic multiplicative
fixed point for Polya/Dirichlet-multinomial data (Minka, "Estimating a
Dirichlet distribution", 2000) written entirely in those reciprocal sums:

    alpha_k <- alpha_k * [sum_obs sum_{j < x_k} 1/(alpha_k + j)]
                       / [sum_obs sum_{i < N}   1/(A + i)]

Each step maximizes a lower bound on the likelihood, so the log-likelihood
trace never decreases; the iteration aggregates observations into tail-count
histograms so one step costs O(max count), not O(total count).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    AlphaLike,
    AlphaParams,
    CountVector,
    DimensionMismatchError,
    DmnError,
    DomainError,
    ResourceLimitError,
    _as_alpha,
    _states_by_level,
    _sum_recips,
    dmn_loglik_exact,  # noqa: F401  perfbench/spans.py rebinds this name here
    dmn_loglik_rows,
)

__all__ = [
    "ALPHA_FLOOR",
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "Dataset",
    "FitResult",
    "MonotonicityError",
    "loglik_dataset",
    "grad_loglik",
    "fit_alpha_mle",
]

#: Categories never observed in any row are pinned here instead of drifting to 0.
ALPHA_FLOOR = 1e-8

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000

_MONOTONE_SLACK = 1e-10
_MAX_FIT_COUNT = 1 << 26  # per-level histograms; larger counts would thrash memory


class MonotonicityError(DmnError):
    """The fixed-point iteration decreased the log-likelihood (should not happen)."""


@dataclass(frozen=True, init=False)
class Dataset:
    """A sequence of count observations sharing the same K categories."""

    observations: tuple[CountVector, ...]
    k: int

    def __init__(self, observations: Iterable[CountVector | Sequence[int]]):
        obs = tuple(
            o if isinstance(o, CountVector) else CountVector(o) for o in observations
        )
        if not obs:
            raise DomainError("a dataset needs at least one observation")
        k = len(obs[0].counts)
        for i, o in enumerate(obs):
            if len(o.counts) != k:
                raise DimensionMismatchError(
                    f"observation {i} has {len(o.counts)} categories, expected {k}"
                )
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "k", k)

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``loglik`` is the observation-level sum ``loglik_dataset(alpha_hat, d)``.
    ``trace`` holds (iteration, log-likelihood) pairs from the fitter's
    aggregated evaluation; its values are non-decreasing.  ``floored`` lists
    the category indices that were pinned to :data:`ALPHA_FLOOR` because no
    observation ever contained them.
    """

    alpha_hat: AlphaParams
    loglik: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...] | None
    floored: tuple[int, ...] = ()


def _check_k(alpha: AlphaParams, d: Dataset) -> None:
    if len(alpha.alpha) != d.k:
        raise DimensionMismatchError(
            f"alpha has {len(alpha.alpha)} categories, dataset has {d.k}"
        )


def loglik_dataset(alpha: AlphaLike, d: Dataset) -> float:
    """Log-likelihood of i.i.d. observations: the sum of per-row kernels."""
    alpha = _as_alpha(alpha)
    _check_k(alpha, d)
    return math.fsum(r.value for r in dmn_loglik_rows(alpha, d.observations))


def grad_loglik(alpha: AlphaLike, d: Dataset) -> np.ndarray:
    """Gradient of :func:`loglik_dataset` with respect to each alpha_k.

    Component k is sum_obs [sum_{j < x_k} 1/(alpha_k + j) -
    sum_{i < N} 1/(A + i)]; empty sums are zero.  Per-observation terms are
    accumulated with compensated summation and merged in observation order,
    so the result is deterministic.  Each reciprocal sum is read from one
    shared walk per category (and one for the totals), which gives every
    observation the value a walk of its own count alone would.
    """
    alpha = _as_alpha(alpha)
    _check_k(alpha, d)
    obs = d.observations
    num = [
        _states_by_level(col, _sum_recips, a_k)
        for a_k, col in zip(alpha.alpha, zip(*(x.counts for x in obs)))
    ]
    den = _states_by_level((x.total for x in obs), _sum_recips, alpha.sum_a)
    parts: list[list[float]] = [[] for _ in range(d.k)]
    for x in obs:
        den_x = den[x.total]
        for part, sums, x_k in zip(parts, num, x.counts):
            part.append(sums[x_k] - den_x)
    return np.array([math.fsum(p) for p in parts])


class _TailCounts:
    """Sufficient statistics for the fixed point.

    ``per_category[k][j]`` counts observations with x_k > j, and
    ``totals[i]`` counts observations with N > i, so that
    sum_obs sum_{j < x_k} f(j) == sum_j per_category[k][j] * f(j).
    """

    def __init__(self, d: Dataset):
        m = np.array([o.counts for o in d.observations], dtype=np.int64)
        self.pooled = m.sum(axis=0, dtype=np.float64)
        self.per_category = [_tail(m[:, k]) for k in range(d.k)]
        self.totals = _tail(np.array([o.total for o in d.observations], dtype=np.int64))
        self.n_obs = len(d.observations)

    def loglik(self, alpha: np.ndarray) -> float:
        """Aggregated evaluation of loglik_dataset at ``alpha`` (same math,
        one weighted log per distinct count level)."""
        a_sum = math.fsum(alpha)
        num_arrays = [
            tail * np.log(a_k + np.arange(tail.size))
            for a_k, tail in zip(alpha, self.per_category)
            if tail.size
        ]
        den = self.totals * np.log(a_sum + np.arange(self.totals.size))
        return math.fsum(itertools.chain(*num_arrays, -den))

    def step(self, alpha: np.ndarray) -> tuple[np.ndarray, list[int]]:
        a_sum = math.fsum(alpha)
        den = float(np.sum(self.totals / (a_sum + np.arange(self.totals.size))))
        new = np.empty_like(alpha)
        pinned = []
        for k, tail in enumerate(self.per_category):
            if tail.size == 0:
                new[k] = ALPHA_FLOOR
                pinned.append(k)
                continue
            num = float(np.sum(tail / (alpha[k] + np.arange(tail.size))))
            cand = alpha[k] * num / den
            if cand < ALPHA_FLOOR:
                cand = ALPHA_FLOOR
                pinned.append(k)
            new[k] = cand
        return new, pinned


def _tail(values: np.ndarray) -> np.ndarray:
    """Tail-count histogram: result[j] = #entries strictly greater than j."""
    top = int(values.max())
    if top == 0:
        return np.zeros(0)
    if top > _MAX_FIT_COUNT:
        raise ResourceLimitError(
            f"fitting aggregates counts into per-level histograms; a count of "
            f"{top} exceeds the supported maximum of {_MAX_FIT_COUNT}"
        )
    hist = np.bincount(values, minlength=top + 1)
    return (values.size - np.cumsum(hist))[:top].astype(float)


def _default_init(stats: _TailCounts, k: int) -> np.ndarray:
    # Pooled empirical frequencies scaled so the total concentration is K.
    total = stats.pooled.sum()
    alpha = k * stats.pooled / total
    return np.maximum(alpha.astype(float), ALPHA_FLOOR)


def fit_alpha_mle(
    d: Dataset,
    init: AlphaLike | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    *,
    record_trace: bool = True,
) -> FitResult:
    """Fit concentration parameters by the multiplicative fixed point.

    Iterates until the largest relative change max_k |delta alpha_k| /
    alpha_k drops to ``tol`` or ``max_iter`` steps have run; ``converged``
    reports which happened.  With ``max_iter=0`` the initial point is
    returned unchanged (``converged=False``).

    Raises :class:`DomainError` for single-category data (the likelihood is
    identically zero, so there is nothing to fit) and for datasets whose
    observations are all empty.
    """
    if not isinstance(d, Dataset):
        d = Dataset(d)
    if d.k == 1:
        raise DomainError(
            "single-category data has a constant likelihood; there is nothing to fit"
        )
    if all(o.total == 0 for o in d.observations):
        raise DomainError("every observation is all-zero; there is nothing to fit")
    if max_iter < 0:
        raise DomainError(f"max_iter must be >= 0, got {max_iter}")
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")

    stats = _TailCounts(d)
    if init is None:
        alpha = _default_init(stats, d.k)
    else:
        init = _as_alpha(init)
        if len(init.alpha) != d.k:
            raise DimensionMismatchError(
                f"init has {len(init.alpha)} categories, dataset has {d.k}"
            )
        alpha = np.array(init.alpha)

    ll = stats.loglik(alpha)
    trace = [(0, ll)] if record_trace else None
    converged = False
    iterations = 0
    floored: set[int] = set()

    for it in range(1, max_iter + 1):
        new_alpha, pinned = stats.step(alpha)
        new_ll = stats.loglik(new_alpha)
        if new_ll < ll - _MONOTONE_SLACK:
            raise MonotonicityError(
                f"log-likelihood decreased at iteration {it}: {ll!r} -> {new_ll!r}"
            )
        rel_change = float(np.max(np.abs(new_alpha - alpha) / alpha))
        alpha = new_alpha
        ll = new_ll
        iterations = it
        floored.update(pinned)
        if record_trace:
            trace.append((it, ll))
        if rel_change <= tol:
            converged = True
            break

    alpha_hat = AlphaParams(alpha)
    return FitResult(
        alpha_hat=alpha_hat,
        loglik=loglik_dataset(alpha_hat, d),
        iterations=iterations,
        converged=converged,
        trace=tuple(trace) if record_trace else None,
        floored=tuple(sorted(floored)),
    )
