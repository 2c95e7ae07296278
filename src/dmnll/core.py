"""Dirichlet-multinomial log-likelihood evaluation for over-dispersed counts.

The likelihood kernel of a Dirichlet-multinomial observation is a ratio of
gamma functions.  Because every count is an integer, each gamma ratio is a
rising factorial, so the whole log-likelihood collapses to two plain sums
of logarithms:

    log L(alpha; x) = sum_k sum_{j=0}^{x_k - 1} log(alpha_k + j)
                      - sum_{i=0}^{N - 1} log(A + i),     A = sum_k alpha_k

This module provides that evaluator (:func:`dmn_loglik_exact`), the
conventional log-gamma baseline it is benchmarked against
(:func:`dmn_loglik_lgamma`), and a mean/over-dispersion form
(:func:`dmn_loglik_phi`) that stays finite and NaN-free all the way down to
phi = 0, where the distribution degenerates to the plain multinomial.
With the parameters fixed, every row of a table walks a prefix of the same
log sequence, so :func:`dmn_loglik_rows` evaluates a whole table from one
shared walk per category, bit for bit equal to the per-row calls.  The
per-row and table evaluators read the parameters in one place (``_route``),
check each row in one place (``_checked``) and merge its states in one
place (``_merge``); they differ only in where the states come from, a row's
own walks or lookups into the shared ones.

Numerical policy: every inner sum is accumulated in ascending index order
with Neumaier compensation, and the per-category partial sums are merged
with ``math.fsum`` (exactly rounded), so results do not depend on category
order, bit for bit.  No operation returns NaN for inputs that satisfy its
preconditions; impossible events are reported as ``-inf``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable, Sequence, Union

__all__ = [
    "MAX_TOTAL_COUNT",
    "SIMPLEX_TOL",
    "DmnError",
    "DomainError",
    "DimensionMismatchError",
    "ResourceLimitError",
    "Method",
    "CountVector",
    "AlphaParams",
    "MeanPhiParams",
    "LogLikResult",
    "dmn_loglik_exact",
    "dmn_loglik_lgamma",
    "dmn_loglik_phi",
    "dmn_loglik_rows",
    "params_from_mean_phi",
    "mn_loglik_kernel",
    "log_multinomial_coef",
    "dmn_log_pmf",
    "mn_log_pmf",
]

#: Largest total count the O(N) sum-of-logs evaluators accept.
MAX_TOTAL_COUNT = 1 << 40

#: Tolerance on |sum(p) - 1| for probability vectors.
SIMPLEX_TOL = 1e-12

_MAX_COUNT = (1 << 63) - 1
_NEG_INF = float("-inf")
_MIN_NORMAL = sys.float_info.min


class DmnError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DmnError, ValueError):
    """A parameter lies outside its mathematical domain."""


class DimensionMismatchError(DmnError, ValueError):
    """Parameter and count vectors have different numbers of categories."""


class ResourceLimitError(DmnError):
    """The requested evaluation exceeds the O(N) cost budget."""


class Method(Enum):
    """Which evaluation route produced a log-likelihood value."""

    EXACT = "exact"
    LOG_GAMMA = "lgamma"
    PHI_FORM = "phi"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class CountVector:
    """Non-negative integer counts for K >= 1 categories, total cached.

    ``total`` is always the exact integer sum of ``counts``; passing an
    explicit total merely asserts it.  Counts must fit in 64 bits.
    """

    counts: tuple[int, ...]
    total: int

    def __init__(self, counts: Iterable[int], total: int | None = None):
        vals = []
        for c in counts:
            if isinstance(c, CountVector):
                raise DomainError("counts must be integers, not CountVector")
            if not isinstance(c, numbers.Integral):
                raise DomainError(f"counts must be integers, got {c!r}")
            c = int(c)
            if c < 0:
                raise DomainError(f"counts must be non-negative, got {c}")
            if c > _MAX_COUNT:
                raise DomainError(f"count {c} does not fit in 64 bits")
            vals.append(c)
        if not vals:
            raise DomainError("a count vector needs at least one category")
        s = sum(vals)
        if total is not None and int(total) != s:
            raise DomainError(f"stated total {total} != sum of counts {s}")
        object.__setattr__(self, "counts", tuple(vals))
        object.__setattr__(self, "total", s)

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True, init=False)
class AlphaParams:
    """Strictly positive concentration parameters with their cached sum.

    ``sum_a`` is the correctly rounded float sum of ``alpha`` (``math.fsum``),
    so it does not depend on the order of the categories.
    """

    alpha: tuple[float, ...]
    sum_a: float

    def __init__(self, alpha: Iterable[float]):
        vals = tuple(float(a) for a in alpha)
        if not vals:
            raise DomainError("alpha needs at least one category")
        for a in vals:
            if not math.isfinite(a) or a <= 0.0:
                raise DomainError(
                    f"concentration parameters must be finite and > 0, got {a!r}"
                )
        object.__setattr__(self, "alpha", vals)
        object.__setattr__(
            self, "sum_a", _finite_fsum(vals, "the sum of the concentration parameters")
        )

    def __len__(self) -> int:
        return len(self.alpha)


def _finite_fsum(values: Sequence[float], what: str) -> float:
    """``math.fsum`` of ``values``; a sum that is not finite is a :class:`DomainError`.

    A value that already overflowed (``inf``, or the NaN of ``inf - inf``)
    makes the sum not finite too.
    """
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"{what} overflows a float")
    return total


def _as_simplex(p: Sequence[float], *, renormalize: bool = False) -> tuple[float, ...]:
    """Validate (optionally rescale) a probability vector; never rescales silently."""
    probs = tuple(float(v) for v in p)
    if not probs:
        raise DomainError("a probability vector needs at least one category")
    for v in probs:
        if not math.isfinite(v) or v < 0.0:
            raise DomainError(f"probabilities must be finite and >= 0, got {v!r}")
    if renormalize:
        s = _finite_fsum(probs, "the sum of the probabilities")
        if s <= 0.0:
            raise DomainError("cannot renormalize a zero-weight vector")
        probs = tuple(v / s for v in probs)
    s = _finite_fsum(probs, "the sum of the probabilities")
    if abs(s - 1.0) > SIMPLEX_TOL:
        raise DomainError(
            f"probabilities must sum to 1 within {SIMPLEX_TOL:g}, got {s!r} "
            "(pass renormalize=True to rescale explicitly)"
        )
    return probs


@dataclass(frozen=True, init=False)
class MeanPhiParams:
    """Category probabilities on the simplex plus over-dispersion phi in [0, 1).

    phi = 0 is the multinomial limit; larger phi means more variation than a
    multinomial with the same mean can express.  Construction never rescales
    silently; pass ``renormalize=True`` to project non-negative weights onto
    the simplex.
    """

    p: tuple[float, ...]
    phi: float

    def __init__(self, p: Iterable[float], phi: float, *, renormalize: bool = False):
        probs = _as_simplex(tuple(p), renormalize=renormalize)
        phi = float(phi)
        if not math.isfinite(phi) or not 0.0 <= phi < 1.0:
            raise DomainError(f"over-dispersion phi must lie in [0, 1), got {phi!r}")
        object.__setattr__(self, "p", probs)
        object.__setattr__(self, "phi", phi)

    def __len__(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class LogLikResult:
    """A log-likelihood value plus evaluation metadata.

    ``value`` is a natural log; it is finite or ``-inf``, never NaN.
    ``terms`` is the row's own evaluation cost, which the benchmark module
    uses to verify cost scaling: on the sum-of-logs routes one log per unit
    of count in the numerator and one per unit of the total, ``2N``; on the
    lgamma route ``2K + 2`` lgamma calls.  It is the per-row cost model, not
    the number of logs a shared pass took: :func:`dmn_loglik_rows` reports
    the same ``terms`` as per-row calls.  A ``-inf`` row of the phi form
    reports the numerator terms before the impossible category.
    """

    value: float
    method: Method
    terms: int

    def __post_init__(self):
        if math.isnan(self.value):
            raise DmnError("internal error: NaN log-likelihood")


AlphaLike = Union[AlphaParams, Sequence[float]]
CountsLike = Union[CountVector, Sequence[int]]


def _as_alpha(alpha: AlphaLike) -> AlphaParams:
    return alpha if isinstance(alpha, AlphaParams) else AlphaParams(alpha)


def _as_counts(x: CountsLike) -> CountVector:
    return x if isinstance(x, CountVector) else CountVector(x)


def _check_lengths(k_params: int, x: CountVector) -> None:
    if k_params != len(x.counts):
        raise DimensionMismatchError(
            f"parameters have {k_params} categories, counts have {len(x.counts)}"
        )


def _check_budget(x: CountVector) -> None:
    if x.total > MAX_TOTAL_COUNT:
        raise ResourceLimitError(
            f"total count {x.total} exceeds the evaluator budget of {MAX_TOTAL_COUNT}"
        )


def _checked(k_params: int, x: CountsLike) -> CountVector:
    """``x`` as a :class:`CountVector` with K = ``k_params`` categories, within budget."""
    x = _as_counts(x)
    _check_lengths(k_params, x)
    _check_budget(x)
    return x


# ---------------------------------------------------------------------------
# Compensated summation primitive
# ---------------------------------------------------------------------------


def _sum_terms(
    term, start: float, step: float, levels: Iterable[int], first: float | None = None
) -> list[tuple[float, float]]:
    """Neumaier-compensated prefix sums of term(start + j*step), j = 0, 1, ...

    Terms are accumulated in ascending j in one walk up to the largest level.
    The running sum and its compensation ``(s, c)`` are recorded after the
    first n terms for each n in ``levels`` (ascending; n = 0, or a lone
    negative n, records ``(0.0, 0.0)``).  The walk does not depend on the
    levels asked for, so the state recorded for n is bit for bit the state
    of a walk of n terms alone.  Sum and compensation stay separate so
    callers can merge partial sums without an intermediate rounding.
    ``first``, when given, is the j = 0 term in place of term(start).
    """
    states = []
    s = 0.0
    c = 0.0
    done = 0
    for stop in levels:
        if first is not None and done == 0 < stop:
            # the state one step of the loop below leaves from (0, 0)
            s = 0.0 + first
            done = 1
        for j in range(done, stop):
            t = term(start + step * j)
            total = s + t
            if abs(s) >= abs(t):
                c += (s - total) + t
            else:
                c += (t - total) + s
            s = total
        done = stop
        states.append((s, c))
    return states


def _sum_logs(
    start: float, step: float, levels: Iterable[int]
) -> list[tuple[float, float]]:
    """:func:`_sum_terms` of log(start + j*step) at each of ``levels``."""
    return _sum_terms(math.log, start, step, levels)


def _sum_phi_logs(
    p_k: float, phi: float, levels: Iterable[int]
) -> list[tuple[float, float]]:
    """:func:`_sum_logs` of log(p_k (1-phi) + j phi) at each of ``levels``.

    ``p_k == 0`` (a zero-probability category) makes every level above 0
    ``(-inf, 0.0)``: the observed category is impossible.  When the product
    p_k (1-phi) is subnormal, or underflows to 0, it has lost precision, so
    the first term is log(p_k) + log1p(-phi) instead of the log of the product.
    """
    if p_k == 0.0:
        return [(_NEG_INF, 0.0) if n > 0 else (0.0, 0.0) for n in levels]
    start = p_k * (1.0 - phi)
    if start >= _MIN_NORMAL:
        return _sum_terms(math.log, start, phi, levels)
    first = math.log(p_k) + math.log1p(-phi)
    return _sum_terms(math.log, start, phi, levels, first)


def _reciprocal(y: float) -> float:
    return 1.0 / y


def _sum_recips(start: float, levels: Iterable[int]) -> list[float]:
    """Compensated sums of 1/(start + j) for j < n, for each n in ``levels``."""
    return [s + c for s, c in _sum_terms(_reciprocal, start, 1.0, levels)]


def _states_by_level(column: Iterable[int], sums, *args) -> dict:
    """``sums(*args, levels)`` over the distinct counts of ``column``, keyed by count.

    One walk per column serves every row: a row with count n looks up the
    state a walk of n terms alone would return.
    """
    levels = sorted(set(column))
    return dict(zip(levels, sums(*args, levels)))


# ---------------------------------------------------------------------------
# The evaluation path the sum-of-logs evaluators share
# ---------------------------------------------------------------------------


def _route(params: AlphaLike | MeanPhiParams):
    """Starts, step, numerator walk, denominator start and method of ``params``.

    The one place that tells concentration parameters from (p, phi).
    Category k's numerator is ``walk(starts[k], step, levels)`` and the
    denominator ``_sum_logs(den_start, step, levels)``.
    """
    if isinstance(params, MeanPhiParams):
        return params.p, params.phi, _sum_phi_logs, 1.0 - params.phi, Method.PHI_FORM
    alpha = _as_alpha(params)
    return alpha.alpha, 1.0, _sum_logs, alpha.sum_a, Method.EXACT


def _merge(x: CountVector, method: Method, lookups: Sequence) -> LogLikResult:
    """Row ``x``'s result: the ``math.fsum`` of its K + 1 compensated states.

    ``lookups[k](n)`` is walk k's ``(s, c)`` after n terms: walks 0 .. K-1
    are the categories' numerator sums, walk K the denominator.  They are
    read in that order and none after an impossible category
    (``s == -inf``): the row is then ``-inf`` and its ``terms`` are the
    counts of the categories before it; otherwise ``terms`` is ``2N``.
    """
    parts: list[float] = []
    n_logs = 0
    for lookup, x_k in zip(lookups, x.counts):
        s, c = lookup(x_k)
        if s == _NEG_INF:
            return LogLikResult(_NEG_INF, method, n_logs)
        parts += (s, c)
        n_logs += x_k
    s, c = lookups[-1](x.total)
    parts += (-s, -c)
    return LogLikResult(math.fsum(parts), method, n_logs + x.total)


def _own_walk(walk, start: float, step: float, n: int) -> tuple[float, float]:
    """The state of a walk of n terms taken on its own."""
    return walk(start, step, (n,))[0]


def _walk_row(params: AlphaParams | MeanPhiParams, x: CountsLike) -> LogLikResult:
    """One row from walks of its own, each taken only when the merge reads it."""
    starts, step, walk, den_start, method = _route(params)
    x = _checked(len(starts), x)
    lookups = [partial(_own_walk, walk, start, step) for start in starts]
    lookups.append(partial(_own_walk, _sum_logs, den_start, step))
    return _merge(x, method, lookups)


# ---------------------------------------------------------------------------
# Log-likelihood evaluators
# ---------------------------------------------------------------------------


def dmn_loglik_exact(alpha: AlphaLike, x: CountsLike) -> LogLikResult:
    """Dirichlet-multinomial log-likelihood kernel via closed-form log sums.

    Evaluates

        sum_k sum_{j=0}^{x_k - 1} log(alpha_k + j)
        - sum_{i=0}^{N - 1} log(A + i)

    where empty sums are zero.  Cost is one ``log`` per unit of count
    (``terms == N + sum_k x_k``), but no gamma-function calls, no
    cancellation between large lgamma values, and exactness at every
    integer count.

    The per-category compensated partial sums are merged with ``math.fsum``,
    so jointly permuting (alpha_k, x_k) pairs cannot change the result.
    """
    return _walk_row(_as_alpha(alpha), x)


def dmn_loglik_lgamma(alpha: AlphaLike, x: CountsLike) -> LogLikResult:
    """Dirichlet-multinomial log-likelihood kernel via ``math.lgamma``.

    Evaluates ``lgamma(A) - lgamma(A+N) + sum_k [lgamma(alpha_k + x_k) -
    lgamma(alpha_k)]`` with 2K + 2 lgamma calls.  This is the conventional
    O(K) route: cheap for huge counts, but it subtracts large nearly-equal
    lgamma values, so its absolute error grows with N.
    """
    alpha = _as_alpha(alpha)
    x = _as_counts(x)
    _check_lengths(len(alpha.alpha), x)
    lg = math.lgamma
    a_sum = alpha.sum_a
    try:
        parts = [lg(a_sum) - lg(a_sum + x.total)]
        for a_k, x_k in zip(alpha.alpha, x.counts):
            parts.append(lg(a_k + x_k) - lg(a_k))
        value = math.fsum(parts)
    except OverflowError as exc:
        raise DomainError(
            "lgamma overflows a float at these parameters; "
            "the exact route evaluates them"
        ) from exc
    terms = 2 * len(alpha.alpha) + 2
    return LogLikResult(value, Method.LOG_GAMMA, terms)


def params_from_mean_phi(mp: MeanPhiParams) -> AlphaParams:
    """Map (p, phi) to concentration parameters alpha_k = p_k (1-phi) / phi.

    Under this convention A = (1 - phi) / phi, so phi -> 0 sends every
    alpha_k to infinity (the multinomial limit) and phi -> 1 sends the total
    concentration to zero.  Requires phi > 0 and all p_k > 0; the boundary
    cases have no finite-alpha representation and must be evaluated with
    :func:`dmn_loglik_phi` directly.
    """
    if not isinstance(mp, MeanPhiParams):
        raise DomainError("params_from_mean_phi expects MeanPhiParams")
    if mp.phi == 0.0:
        raise DomainError(
            "phi = 0 has no finite concentration parameters; "
            "evaluate with dmn_loglik_phi, which handles phi = 0 exactly"
        )
    if min(mp.p) <= 0.0:
        raise DomainError(
            "zero-probability categories have no concentration-parameter "
            "equivalent; evaluate with dmn_loglik_phi"
        )
    scale = (1.0 - mp.phi) / mp.phi
    return AlphaParams(p_k * scale for p_k in mp.p)


def dmn_loglik_phi(mp: MeanPhiParams, x: CountsLike) -> LogLikResult:
    """Dirichlet-multinomial log-likelihood kernel in the (p, phi) form.

    Multiplying every term of the exact form by phi cancels between
    numerator and denominator, leaving

        sum_k sum_{j=0}^{x_k - 1} log(p_k (1-phi) + j phi)
        - sum_{i=0}^{N - 1} log((1-phi) + i phi)

    which is well defined on the closed boundary phi = 0: the denominator
    terms become log(1) = 0 and the numerator reduces to the multinomial
    kernel sum_k x_k log p_k with no special-casing.  A zero-probability
    category that was observed yields ``-inf`` (a valid, infinitely bad
    objective value), never NaN.  A category with p_k > 0 is never
    impossible: where p_k (1-phi) is subnormal or underflows, its first
    term is log(p_k) + log1p(-phi).
    """
    if not isinstance(mp, MeanPhiParams):
        raise DomainError("dmn_loglik_phi expects MeanPhiParams")
    return _walk_row(mp, x)


def dmn_loglik_rows(
    params: AlphaLike | MeanPhiParams, rows: Iterable[CountsLike]
) -> list[LogLikResult]:
    """Log-likelihood kernel of every row of a count table, from shared passes.

    With concentration parameters (:class:`AlphaParams` or a plain sequence)
    result r is ``dmn_loglik_exact(params, rows[r])``; with
    :class:`MeanPhiParams` it is ``dmn_loglik_phi(params, rows[r])``.  Both
    hold bit for bit, in ``value`` and in ``terms``, ``-inf`` rows included.

    Row r's log sum over category k is a prefix of the one sequence every
    row walks, log(a_k), log(a_k + 1), ...  So each category is walked once,
    up to its largest count, and the denominator once, up to the largest
    total, recording the compensated state at each distinct count.  Each row
    then merges its K + 1 states with ``math.fsum`` as the per-row call does.
    A walk covers only the rows whose per-row call would reach it and never
    goes past their column's sum, so this never takes more logs than the
    per-row calls, and on a table with repeated counts far fewer.  Every row
    is validated, in order, before any pass starts.
    """
    starts, step, walk, den_start, method = _route(params)
    checked = [_checked(len(starts), x) for x in rows]
    tables = []
    reach = checked  # the rows whose per-row call gets as far as category k
    for k, start in enumerate(starts):
        column = (x.counts[k] for x in reach)
        tables.append(_states_by_level(column, walk, start, step))
        if start == 0.0:
            # an observed zero-probability category ends the row at -inf
            reach = [x for x in reach if x.counts[k] == 0]
    tables.append(_states_by_level((x.total for x in reach), _sum_logs, den_start, step))
    lookups = [table.__getitem__ for table in tables]
    return [_merge(x, method, lookups) for x in checked]


def mn_loglik_kernel(p: Sequence[float], x: CountsLike) -> float:
    """Multinomial log-likelihood kernel sum_k x_k log p_k.

    A category with x_k = 0 contributes nothing even when p_k = 0; a
    category with x_k > 0 and p_k = 0 makes the kernel ``-inf``.

    Each x_k log p_k is accumulated as x_k repeated additions through the
    same compensated routine as :func:`dmn_loglik_phi`, which makes the
    phi = 0 limit of the over-dispersed form agree with this kernel bit
    for bit.
    """
    probs = _as_simplex(p)
    x = _checked(len(probs), x)
    lookups = [partial(_own_walk, _sum_phi_logs, p_k, 0.0) for p_k in probs]
    # at phi = 0 every denominator term is log(1) = 0, so its state is (0, 0)
    lookups.append(lambda n: (0.0, 0.0))
    return _merge(x, Method.PHI_FORM, lookups).value


def log_multinomial_coef(x: CountsLike) -> float:
    """log(N! / prod_k x_k!) by the same ascending sum-of-logs scheme.

    log N! is sum_{i=2}^{N} log i, an arithmetic log sum starting at 2.
    """
    x = _as_counts(x)
    _check_budget(x)
    s, c = _sum_logs(2.0, 1.0, (x.total - 1,))[0]
    parts = [s, c]
    for x_k in x.counts:
        s, c = _sum_logs(2.0, 1.0, (x_k - 1,))[0]
        parts.append(-s)
        parts.append(-c)
    return math.fsum(parts)


def dmn_log_pmf(alpha: AlphaLike, x: CountsLike) -> float:
    """Full Dirichlet-multinomial log-PMF: multinomial coefficient + kernel."""
    x = _as_counts(x)
    return log_multinomial_coef(x) + dmn_loglik_exact(alpha, x).value


def mn_log_pmf(p: Sequence[float], x: CountsLike) -> float:
    """Full multinomial log-PMF: multinomial coefficient + kernel."""
    x = _as_counts(x)
    kernel = mn_loglik_kernel(p, x)
    if kernel == _NEG_INF:
        return _NEG_INF
    return log_multinomial_coef(x) + kernel
