"""Maximum-likelihood fitting of concentration parameters from count data.

The gradient of the exact log-likelihood needs no digamma function: since
lgamma(a + x) - lgamma(a) = sum_{j=0}^{x-1} log(a + j) for integer x, its
derivative is the harmonic-style sum psi(a + x) - psi(a) =
sum_{j=0}^{x-1} 1/(a + j).  The fitter below works entirely in those
reciprocal sums and their squares (Minka, "Estimating a Dirichlet
distribution", 2000, Polya section).  Each iteration computes two points:

* the classic multiplicative fixed point, which maximizes a lower bound on
  the likelihood, so it never lowers it beyond rounding error:

      alpha_k <- alpha_k * [sum_obs sum_{j < x_k} 1/(alpha_k + j)]
                         / [sum_obs sum_{i < N}   1/(A + i)]

* a Newton step.  The Hessian is diagonal plus a constant,
  diag(q) + z 11^T with q_k = -sum_obs sum_{j < x_k} 1/(alpha_k + j)^2
  and z = sum_obs sum_{i < N} 1/(A + i)^2, so Sherman-Morrison solves it
  in O(K).

The Newton point is taken when it is finite, on or above the floor and no
worse than the fixed point; otherwise the fixed point is.  So the
log-likelihood trace never decreases, and near a finite maximum the
iteration converges quadratically instead of crawling.  The iteration
aggregates observations into tail-count histograms laid end to end on one
flat grid of count levels, sum_k max x_k + max N of them (at most 2^23),
so one iteration costs a few array passes over that grid, not O(total
count): a log per level for each of the two points' log-likelihoods, and
two divisions per level for the Newton step's first- and second-order
sums.  The fixed point is read from the first-order ones.

Each function takes a :class:`Dataset` (defined in :mod:`dmnll.core`,
re-exported here) or its rows; a table the command line parses is one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    AlphaLike,
    AlphaParams,
    Dataset,
    DimensionMismatchError,
    DmnError,
    DomainError,
    Method,
    ResourceLimitError,
    _as_alpha,
    _check_size,
    _check_table,
    _column_states,
    _finite_fsum,
    _loglik_columns,
    _sum_recips,
    dmn_loglik_exact,  # noqa: F401  perfbench/spans.py rebinds this name here
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

#: Largest grid, in count levels, a fit builds.  A fit peaks at about 80
#: bytes per level (float arrays of the grid's size, among them the grids of
#: both candidate points, and the list of floats ``fsum`` reads; measured
#: with tracemalloc), so this bound keeps it under about 0.65 GiB.
_MAX_FIT_LEVELS = 1 << 23

_EPS = float(np.finfo(float).eps)

#: The Hessian is negative definite where the Sherman-Morrison denominator
#: 1 + z sum 1/q_k is positive.  It is 1 plus a sum of order 1 or smaller,
#: so its rounding error is a few eps; a denominator below this is taken
#: as zero.  At a finite maximum it measures about 1e-6 to 0.1; toward the
#: multinomial limit it falls like 1/A.
_CURVED = 1e3 * _EPS


class MonotonicityError(DmnError):
    """A fixed-point step lowered the log-likelihood beyond rounding error.

    The fixed point cannot do so, so this signals a defect.  It is checked
    on every iteration, whichever point the iteration then takes.
    """


def _as_dataset(d) -> Dataset:
    """``d`` as a :class:`Dataset`: a dataset, or rows to build one from."""
    return d if isinstance(d, Dataset) else Dataset(d)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a maximum-likelihood fit.

    ``loglik`` is the observation-level sum ``loglik_dataset(alpha_hat, d)``.
    ``trace`` holds (iteration, log-likelihood) pairs from the fitter's
    aggregated evaluation; its values are non-decreasing up to rounding.
    ``floored`` lists the category indices that no observation ever
    contained: once an iteration has run, they are pinned to
    :data:`ALPHA_FLOOR`.  It is empty when no iteration ran
    (``max_iter=0``).  An observed category whose alpha falls to the floor
    is not listed.
    """

    alpha_hat: AlphaParams
    loglik: float
    iterations: int
    converged: bool
    trace: tuple[tuple[int, float], ...] | None
    floored: tuple[int, ...] = ()


def loglik_dataset(alpha: AlphaLike, d: Dataset) -> float:
    """Log-likelihood of i.i.d. observations, a :class:`Dataset` or its rows:
    the sum of per-row kernels."""
    return math.fsum(_loglik_columns(alpha, _as_dataset(d).columns, Method.EXACT)[0])


def grad_loglik(alpha: AlphaLike, d: Dataset) -> np.ndarray:
    """Gradient of :func:`loglik_dataset` with respect to each alpha_k.

    Component k is sum_obs [sum_{j < x_k} 1/(alpha_k + j) -
    sum_{i < N} 1/(A + i)]; empty sums are zero.  Per-observation terms are
    accumulated with compensated summation and merged in observation order,
    so the result is deterministic.  The reciprocal sums come from the
    table evaluator's column pass (``core._column_states``): one walk per
    category and one for the totals, which gives every observation the
    value a walk of its own count alone would.  Each observation's totals
    sum is subtracted from its sum in every category column, in row order,
    and each component merges its column of differences.  A component
    that overflows a float, as 1/alpha_k does for subnormal alpha_k, raises
    :class:`DomainError`.  Like :func:`loglik_dataset`, it takes a dataset
    or its rows, and walks each category up to its largest count, so a row
    past ``MAX_TOTAL_COUNT`` is a :class:`ResourceLimitError`.
    """
    alpha = _as_alpha(alpha)
    d = _as_dataset(d)
    _check_table(len(alpha.alpha), d.columns)
    walks = [partial(_sum_recips, start) for start in (*alpha.alpha, alpha.sum_a)]
    *num, den = map(list, _column_states(walks, d.columns))
    parts = [[n - d for n, d in zip(column, den)] for column in num]
    return np.array([_finite_fsum(p, f"gradient component {k}") for k, p in enumerate(parts)])


class _TailCounts:
    """Sufficient statistics for the fit, on one flat level grid.

    Block k < K of the grid holds category k's tail counts, the number of
    observations with x_k > j at level j = 0 .. max x_k - 1; the last block
    holds the totals' tail counts, observations with N > i, negated.  So
    sum_obs [sum_{j < x_k} f(a_k + j) - sum_{i < N} f(A + i)] is the
    weighted sum of f over the grid ``at(alpha)``, whose entries are
    alpha_k + j and A + i.  One iterate evaluates its log-likelihood and
    the Newton step's sums from the same grid, each one array pass over the
    levels; the fixed-point step reads the first-order sums.
    """

    def __init__(self, d: Dataset):
        *counts, totals = d.columns
        tops = [*map(max, counts), max(totals)]
        n_levels = sum(tops)
        if n_levels > _MAX_FIT_LEVELS:
            raise ResourceLimitError(
                f"fitting builds one grid of sum_k max x_k + max N = {n_levels} "
                f"count levels, more than the supported maximum of {_MAX_FIT_LEVELS}"
            )
        m = np.array(counts, dtype=np.int64)
        # the counts are below the level bound, so these sums are exact in any order
        self.pooled = m.sum(axis=1, dtype=np.float64)
        columns = [*m, np.array(totals, dtype=np.int64)]
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

    def step(self, alpha: np.ndarray, first: list[float]) -> np.ndarray:
        """One fixed-point step from ``alpha``, given the first-order block
        sums of :meth:`sums` at its grid: the Newton step's sums."""
        # negating the totals block's sum back is exact
        den = -first[-1]
        # A never-observed category has an empty block and a zero sum, so
        # it lands on the floor with the categories that fall below it.
        return np.maximum(alpha * np.array(first[:-1]) / den, ALPHA_FLOOR)

    def sums(self, grid: np.ndarray) -> tuple[list[float], list[float]]:
        """Per block, the weighted sums of 1/x and of 1/x^2 over ``grid``.

        Each list holds the K category blocks, then the totals block, whose
        sums carry the negated weights.  The first list is all
        :meth:`step` reads; the Newton step reads both.
        """
        q = self.weights / grid
        return self._block_sums(q), self._block_sums(q / grid)

    def _block_sums(self, values: np.ndarray) -> list[float]:
        # Each block is summed on its own, as np.sum would sum it alone.
        return [np.add.reduce(values[block]) for block in self.blocks]


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


def _newton(
    alpha: np.ndarray, first: list[float], second: list[float]
) -> tuple[np.ndarray | None, bool]:
    """The Newton point from ``alpha``, given the block sums at its grid.

    ``first`` and ``second`` are the block sums of :meth:`_TailCounts.sums`.
    With g_k the gradient, q_k = -sum w/(alpha_k + j)^2 and
    z = sum W/(A + i)^2, the Hessian diag(q) + z 11^T is solved by
    Sherman-Morrison: delta_k = -(g_k - b)/q_k with
    b = z sum(g/q) / (1 + z sum 1/q).  A never-observed category has empty
    blocks and q_k = 0; it stays out of the solve and on the floor.

    Returns the point and whether the Hessian is clearly negative definite
    (the denominator above :data:`_CURVED`).  The point is None when the
    Hessian is not, or when the point is not finite or falls below
    :data:`ALPHA_FLOOR`.
    """
    s1 = np.array(first[:-1])
    seen = s1 > 0.0
    d1 = -first[-1]  # the totals block carries negated weights
    g = s1[seen] - d1
    q = -np.array(second[:-1])[seen]
    z = -second[-1]
    # far out toward a maximum at infinity q_k can underflow to 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        denom = 1.0 + z * np.sum(1.0 / q)
        curved = bool(denom > _CURVED)
        if not curved:
            return None, False
        point = np.full_like(alpha, ALPHA_FLOOR)
        point[seen] = alpha[seen] - (g - z * np.sum(g / q) / denom) / q
        if not (point.min() >= ALPHA_FLOOR and np.isfinite(point.sum())):
            return None, True
    return point, True


def fit_alpha_mle(
    d: Dataset,
    init: AlphaLike | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    *,
    record_trace: bool = True,
) -> FitResult:
    """Fit concentration parameters by Newton steps with the fixed point as a floor.

    Each iteration computes the multiplicative fixed-point step and checks
    that it does not lower the log-likelihood (:class:`MonotonicityError`
    if it does).  It then takes the Newton point instead when that point is
    finite, has every alpha_k at or above :data:`ALPHA_FLOOR`, and has a
    log-likelihood at least the fixed point's.  One iteration costs a few
    array passes over the grid of count levels (see the module docstring)
    and O(K) more.

    Iterates until ``max_iter`` steps have run or the largest relative
    change max_k |delta alpha_k| / alpha_k drops to ``tol`` at a point
    where the Hessian is clearly negative definite.  ``converged`` reports
    which happened: when true, ``alpha_hat`` is a local maximum to about
    ``tol`` relative.  Where the maximum lies at infinity (multinomial-like
    data, or a single row such as (1, 1)), the Hessian loses its curvature,
    the iterate grows but stays finite, and ``converged`` stays false.
    With ``max_iter=0`` the initial point is returned unchanged
    (``converged=False``).

    Raises :class:`DomainError` for single-category data (the likelihood is
    identically zero, so there is nothing to fit), for datasets whose
    observations are all empty, and for an ``init`` with an alpha_k below
    :data:`ALPHA_FLOOR`.
    """
    d = _as_dataset(d)
    if d.k == 1:
        raise DomainError(
            "single-category data has a constant likelihood; there is nothing to fit"
        )
    if not any(d.columns[-1]):
        raise DomainError("every observation is all-zero; there is nothing to fit")
    _check_size("max_iter", max_iter)
    if not (isinstance(tol, numbers.Real) and tol > 0.0):
        raise DomainError(f"tol must be a number > 0, got {tol!r}")

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

    for it in range(1, max_iter + 1):
        first, second = stats.sums(grid)
        new_alpha = stats.step(alpha, first)
        new_grid = stats.at(new_alpha)
        new_ll = stats.loglik(new_grid)
        # A drop within the two values' rounding errors is no decrease.
        if new_ll < ll and ll - new_ll > (
            stats.rounding_error(grid) + stats.rounding_error(new_grid)
        ):
            raise MonotonicityError(
                f"log-likelihood decreased at iteration {it}: {ll!r} -> {new_ll!r}"
            )
        point, curved = _newton(alpha, first, second)
        if point is not None:
            point_grid = stats.at(point)
            point_ll = stats.loglik(point_grid)
            if point_ll >= new_ll:
                new_alpha, new_grid, new_ll = point, point_grid, point_ll
        # a jump off the floor can overflow the ratio: inf is "not converged"
        with np.errstate(over="ignore"):
            rel_change = float((np.abs(new_alpha - alpha) / alpha).max())
        alpha = new_alpha
        grid = new_grid
        ll = new_ll
        iterations = it
        if record_trace:
            trace.append((it, ll))
        # A small step toward a limit at infinity certifies nothing: there
        # the Hessian loses its curvature.
        if rel_change <= tol and curved:
            converged = True
            break

    alpha_hat = AlphaParams(alpha)
    # every iterate has the never-observed categories on the floor
    floored = np.flatnonzero(stats.pooled == 0).tolist() if iterations else []
    return FitResult(
        alpha_hat=alpha_hat,
        loglik=loglik_dataset(alpha_hat, d),
        iterations=iterations,
        converged=converged,
        trace=tuple(trace) if record_trace else None,
        floored=tuple(floored),
    )
