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
trace never decreases beyond rounding error.  The iteration aggregates
observations into tail-count histograms laid end to end on one flat grid of
count levels, sum_k max x_k + max N of them (at most 2^23), so one iterate
costs a few array passes over that grid, not O(total count): one log per
level for its log-likelihood and one division per level for its step.
"""

from __future__ import annotations

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
    _finite_fsum,
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

#: Largest grid, in count levels, the fixed point builds.  A fit peaks at
#: about 72 bytes per level (float arrays of the grid's size and the list
#: of floats ``fsum`` reads; measured with tracemalloc), so this bound keeps
#: it under about 0.6 GiB.
_MAX_FIT_LEVELS = 1 << 23

_EPS = float(np.finfo(float).eps)


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
    aggregated evaluation; its values are non-decreasing up to rounding.
    ``floored`` lists the category indices that were pinned to
    :data:`ALPHA_FLOOR` because no observation ever contained them.
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
    observation the value a walk of its own count alone would.  A component
    that overflows a float, as 1/alpha_k does for subnormal alpha_k, raises
    :class:`DomainError`.
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
    return np.array([_finite_fsum(p, f"gradient component {k}") for k, p in enumerate(parts)])


class _TailCounts:
    """Sufficient statistics for the fixed point, on one flat level grid.

    Block k < K of the grid holds category k's tail counts, the number of
    observations with x_k > j at level j = 0 .. max x_k - 1; the last block
    holds the totals' tail counts, observations with N > i, negated.  So
    sum_obs [sum_{j < x_k} f(a_k + j) - sum_{i < N} f(A + i)] is the
    weighted sum of f over the grid ``at(alpha)``, whose entries are
    alpha_k + j and A + i.  One iterate evaluates its log-likelihood and
    the next step from the same grid, each one array pass over the levels.
    """

    def __init__(self, d: Dataset):
        counts = [o.counts for o in d.observations]
        totals = [o.total for o in d.observations]
        tops = [max(column) for column in zip(*counts)] + [max(totals)]
        n_levels = sum(tops)
        if n_levels > _MAX_FIT_LEVELS:
            raise ResourceLimitError(
                f"fitting builds one grid of sum_k max x_k + max N = {n_levels} "
                f"count levels, more than the supported maximum of {_MAX_FIT_LEVELS}"
            )
        m = np.array(counts, dtype=np.int64)
        self.pooled = m.sum(axis=0, dtype=np.float64)
        columns = [*m.T, np.array(totals, dtype=np.int64)]
        self.sizes = np.array(tops)
        self.weights = np.concatenate(
            [_tail(col, top) for col, top in zip(columns, tops)]
        )
        bounds = np.cumsum([0, *tops]).tolist()
        self.weights[bounds[-2]:] *= -1.0
        self.blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self.levels = np.concatenate([np.arange(top, dtype=float) for top in tops])
        self.weight_sum = float(np.abs(self.weights).sum())

    def at(self, alpha: np.ndarray) -> np.ndarray:
        """The grid alpha_k + j, then A + i, with A = fsum(alpha)."""
        starts = alpha.tolist()
        starts.append(math.fsum(starts))
        return np.repeat(starts, self.sizes) + self.levels

    def loglik(self, grid: np.ndarray) -> float:
        """Aggregated evaluation of loglik_dataset at the grid's alpha (same
        math, one weighted log per count level, merged by ``fsum``)."""
        return math.fsum((self.weights * np.log(grid)).tolist())

    def rounding_error(self, grid: np.ndarray) -> float:
        """A bound on the rounding error of :meth:`loglik` on ``grid``.

        Rounding a + j moves its log by at most eps/2, absolute, so a term
        w * log(x) by w eps/2; the log (allowing np.log 4 ulps), the
        product and the exactly rounded fsum add at most 5 eps of |term|.
        """
        terms = np.abs(self.weights * np.log(grid))
        return _EPS * (5.0 * float(terms.sum()) + 0.5 * self.weight_sum)

    def step(self, alpha: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """One fixed-point step from ``alpha``, whose grid is ``grid``."""
        q = self.weights / grid
        # Each block is summed on its own, as np.sum would sum it alone;
        # negating the totals block back is exact.
        sums = [np.add.reduce(q[block]) for block in self.blocks]
        den = -sums.pop()
        # A never-observed category has an empty block and a zero sum, so
        # it lands on the floor with the categories that fall below it.
        new = alpha * np.array(sums) / den
        low = new < ALPHA_FLOOR
        new[low] = ALPHA_FLOOR
        return new, low.nonzero()[0].tolist()


def _tail(values: np.ndarray, top: int) -> np.ndarray:
    """Tail-count histogram up to ``top = max(values)``: result[j] = #entries > j."""
    if top == 0:
        return np.zeros(0)
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
    identically zero, so there is nothing to fit), for datasets whose
    observations are all empty, and for an ``init`` with an alpha_k below
    :data:`ALPHA_FLOOR`.
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

    if init is not None:
        init = _as_alpha(init)
        if len(init.alpha) != d.k:
            raise DimensionMismatchError(
                f"init has {len(init.alpha)} categories, dataset has {d.k}"
            )
        # every iterate is pinned at or above the floor, so the init must be too
        if min(init.alpha) < ALPHA_FLOOR:
            raise DomainError(
                f"init alpha {min(init.alpha)!r} is below the floor {ALPHA_FLOOR!r}"
            )

    stats = _TailCounts(d)
    alpha = _default_init(stats, d.k) if init is None else np.array(init.alpha)

    grid = stats.at(alpha)
    ll = stats.loglik(grid)
    trace = [(0, ll)] if record_trace else None
    converged = False
    iterations = 0
    floored: set[int] = set()

    for it in range(1, max_iter + 1):
        new_alpha, pinned = stats.step(alpha, grid)
        new_grid = stats.at(new_alpha)
        new_ll = stats.loglik(new_grid)
        # A drop within the two values' rounding errors is no decrease.
        if new_ll < ll and ll - new_ll > (
            stats.rounding_error(grid) + stats.rounding_error(new_grid)
        ):
            raise MonotonicityError(
                f"log-likelihood decreased at iteration {it}: {ll!r} -> {new_ll!r}"
            )
        rel_change = float((np.abs(new_alpha - alpha) / alpha).max())
        alpha = new_alpha
        grid = new_grid
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
