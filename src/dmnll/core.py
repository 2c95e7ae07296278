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
shared walk per category, bit for bit equal to the per-row calls; the
lgamma route evaluates each distinct count once in the same way.  The
table and the per-row sum-of-logs evaluators read the parameters and pick
the route in one place (``_route``) and merge a row's states in one place
(``_merge``); they differ only in where the states come from, a row's own
walks or lookups into the shared ones.  A route is one walk: the
denominator log Gamma(A + N) - log Gamma(A) is the same rising-factorial
log sum as each category's numerator, started at A, so its states are the
route's own walk, negated (``_denominator``).  The per-row lgamma call
takes its parts from the same helper (``_lgamma_ratio``) as the table's
lgamma route.

Numerical policy: every inner sum is accumulated in ascending index order
with Neumaier compensation, and the per-category partial sums are merged
with ``math.fsum`` (exactly rounded), so results do not depend on category
order, bit for bit.  No operation returns NaN for inputs that satisfy its
preconditions; impossible events are reported as ``-inf``.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import repeat
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

#: Version of the JSON documents the CLI and the benchmarks write.
SCHEMA_VERSION = 1

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
        try:
            cells = iter(counts)
        except TypeError:
            raise DomainError(f"counts must be a sequence of integers, got {counts!r}") from None
        vals = []
        for c in cells:
            # a plain int is its own int(c); only other types pay the ABC check
            if type(c) is not int:
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
        vals = _floats(alpha, "concentration parameters")
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


def _floats(values: Iterable, what: str) -> tuple[float, ...]:
    """``values`` as floats; a value ``float`` rejects, or a ``values`` that
    is not iterable, is a :class:`DomainError`."""
    try:
        cells = iter(values)
    except TypeError:
        raise DomainError(f"{what}: expected a sequence, got {values!r}") from None
    vals = []
    for v in cells:
        try:
            vals.append(float(v))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{what}: {v!r} is not a real number") from None
    return tuple(vals)


def _check_size(name: str, n) -> None:
    """A size argument ``n`` must be an integer (numpy's included) and >= 0."""
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"{name} must be >= 0, got {n}")


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


def _as_simplex(p: Iterable[float], *, renormalize: bool = False) -> tuple[float, ...]:
    """Validate (optionally rescale) a probability vector; never rescales silently."""
    probs = _floats(p, "probabilities")
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
        probs = _as_simplex(p, renormalize=renormalize)
        (phi,) = _floats((phi,), "over-dispersion phi")
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
    if isinstance(alpha, AlphaParams):
        return alpha
    if isinstance(alpha, MeanPhiParams):
        raise DomainError(
            "expected concentration parameters, got MeanPhiParams; evaluate "
            "(p, phi) with dmn_loglik_phi or convert with params_from_mean_phi"
        )
    return AlphaParams(alpha)


def _as_counts(x: CountsLike) -> CountVector:
    return x if isinstance(x, CountVector) else CountVector(x)


def _sized(k_params: int, x: CountsLike) -> CountVector:
    """``x`` as a :class:`CountVector` with K = ``k_params`` categories."""
    x = _as_counts(x)
    if k_params != len(x.counts):
        raise DimensionMismatchError(
            f"parameters have {k_params} categories, counts have {len(x.counts)}"
        )
    return x


def _checked(k_params: int, x: CountsLike) -> CountVector:
    """``x`` as a :class:`CountVector` with K = ``k_params`` categories, within budget."""
    x = _sized(k_params, x)
    if x.total > MAX_TOTAL_COUNT:
        raise ResourceLimitError(
            f"total count {x.total} exceeds the evaluator budget of {MAX_TOTAL_COUNT}"
        )
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


def _sum_logs(start: float, levels: Iterable[int]) -> list[tuple[float, float]]:
    """:func:`_sum_terms` of log(start + j) at each of ``levels``."""
    return _sum_terms(math.log, start, 1.0, levels)


def _sum_phi_logs(
    phi: float, p_k: float, levels: Iterable[int]
) -> list[tuple[float, float]]:
    """:func:`_sum_terms` of log(p_k (1-phi) + j phi) at each of ``levels``.

    ``p_k == 0`` (a zero-probability category) makes every level above 0
    ``(-inf, 0.0)``: the observed category is impossible.  When the product
    p_k (1-phi) is subnormal, or underflows to 0, it has lost precision, so
    the first term is log(p_k) + log1p(-phi) instead of the log of the product.
    At p_k = 1 this is the denominator's walk, log((1-phi) + i phi).
    ``phi`` comes first, so that ``partial(_sum_phi_logs, phi)`` is a walk.
    """
    if p_k == 0.0:
        return [(_NEG_INF, 0.0) if n > 0 else (0.0, 0.0) for n in levels]
    start = p_k * (1.0 - phi)
    if start >= _MIN_NORMAL:
        return _sum_terms(math.log, start, phi, levels)
    first = math.log(p_k) + math.log1p(-phi)
    return _sum_terms(math.log, start, phi, levels, first)


#: The phi route's walk at phi = 0, the multinomial kernel's, built once
#: rather than on every call of :func:`mn_loglik_kernel`.
_MULTINOMIAL_WALK = partial(_sum_phi_logs, 0.0)


def _lgamma_ratio(top: float, bottom: float) -> float:
    """lgamma(top) - lgamma(bottom): each part of the lgamma route is one.

    Both lgamma evaluators take every part from here, so a table's row and
    the per-row call add up the same floats.
    """
    try:
        return math.lgamma(top) - math.lgamma(bottom)
    except OverflowError as exc:
        raise DomainError(
            "lgamma overflows a float at these parameters; "
            "the exact route evaluates them"
        ) from exc


def _lgamma_rises(a_k: float, levels: Iterable[int]) -> list[tuple[float]]:
    """lgamma(a_k + n) - lgamma(a_k), the closed form of :func:`_sum_logs`'s
    log sum, as a one-part state at each n in ``levels``."""
    return [(_lgamma_ratio(a_k + n, a_k),) for n in levels]


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
# The evaluation path the evaluators share
# ---------------------------------------------------------------------------


def _route(params: AlphaLike | MeanPhiParams, method: Method):
    """The walk that evaluates ``params`` by ``method``, and how rows are checked.

    The one place that tells the routes apart.  A route is one walk.
    Returns ``(starts, walk, den_start, check, terms)``: category k's
    states at ``levels`` are ``walk(starts[k], levels)``, and the
    denominator's are the same walk from ``den_start``, negated by
    :func:`_denominator`, so that a row's merge adds up every state it
    reads.  ``den_start`` is A, or 1.0 on the phi route, whose denominator
    walks log((1-phi) + i phi), the walk of p_k = 1.  ``check(K, x)``
    validates a row; ``terms`` is the lgamma route's per-row cost, 2K + 2,
    or None on the sum-of-logs routes, whose cost is the counts they read.
    The phi route takes :class:`MeanPhiParams`; the others take
    concentration parameters.
    """
    if method is Method.PHI_FORM:
        return params.p, partial(_sum_phi_logs, params.phi), 1.0, _checked, None
    alpha = _as_alpha(params)
    if method is Method.LOG_GAMMA:
        # O(K) per row: no budget on the counts
        terms = 2 * len(alpha.alpha) + 2
        return alpha.alpha, _lgamma_rises, alpha.sum_a, _sized, terms
    return alpha.alpha, _sum_logs, alpha.sum_a, _checked, None


def _denominator(walk, den_start: float, levels: Iterable[int]) -> list[list[float]]:
    """The denominator's states at ``levels``: ``walk(den_start, levels)``
    with every part negated, which is exact.

    Only walked states are negated: a ``-inf`` row's placeholder
    (:data:`_NO_WALK`) is not, or its sum would be -inf + inf.
    """
    return [[-v for v in state] for state in walk(den_start, levels)]


def _numerators(walk, starts: Sequence[float], counts: Sequence[int]) -> list[float]:
    """A row's numerator parts: each category's state from a walk of its own."""
    parts: list[float] = []
    for start, x_k in zip(starts, counts):
        parts += walk(start, (x_k,))[0]
    return parts


def _ended(starts: Sequence[float], x: CountVector) -> int | None:
    """Row ``x``'s terms if it observes a zero-probability category, else None.

    Only such a category has a ``-inf`` walk, so such a row is ``-inf``.
    Its terms are the counts of the categories before the first one, the
    numerator logs a walk would take up to it; no walk is taken.
    """
    if 0.0 not in starts:
        return None
    n_logs = 0
    for start, x_k in zip(starts, x.counts):
        if start == 0.0 and x_k:
            return n_logs
        n_logs += x_k
    return None


def _merge(rows: Iterable[Iterable[float]]) -> list[float]:
    """Each row's value: the ``math.fsum`` of its parts.

    A row's parts are its K + 1 states in order, the categories' numerators
    and then the negated denominator.  This is the one NaN check the
    evaluators make on their way to plain floats.
    """
    values = list(map(math.fsum, rows))
    if any(map(math.isnan, values)):
        raise DmnError("internal error: NaN log-likelihood")
    return values


def _walk_row(params: AlphaLike | MeanPhiParams, x: CountsLike, method: Method) -> LogLikResult:
    """One row from walks of its own; a ``-inf`` row takes none."""
    starts, walk, den_start, check, terms = _route(params, method)
    x = check(len(starts), x)
    ended = _ended(starts, x)
    if ended is not None:
        return LogLikResult(_NEG_INF, method, ended)
    parts = _numerators(walk, starts, x.counts)
    parts += _denominator(walk, den_start, (x.total,))[0]
    (value,) = _merge([parts])
    return LogLikResult(value, method, 2 * x.total if terms is None else terms)


#: The state a ``-inf`` row reads where no walk covers it.
_NO_WALK = (_NEG_INF, 0.0)


def _loglik_table(
    params: AlphaLike | MeanPhiParams, rows: Iterable[CountsLike], method: Method
) -> tuple[list[float], list[int]]:
    """Every row's value and terms, as plain floats and ints, from shared passes.

    Row r's are those of the per-row evaluator of ``method`` on ``rows[r]``,
    bit for bit.  Each category is walked once, up to its largest count, and
    the denominator once, up to the largest total, recording the state at
    each distinct count; each row then merges its K + 1 states as the
    per-row call does.  A ``-inf`` row is left out of every walk, so no
    walk takes more logs (or lgamma calls) than the per-row calls.  Every
    row is checked, in order, before any pass starts.
    """
    starts, walk, den_start, check, terms = _route(params, method)
    checked = [check(len(starts), x) for x in rows]
    if not checked:
        return [], []
    ended = {}
    if 0.0 in starts:
        ended = {r: n for r, x in enumerate(checked) if (n := _ended(starts, x)) is not None}
    columns = [*zip(*(x.counts for x in checked)), [x.total for x in checked]]
    walks = [partial(walk, start) for start in starts]
    walks.append(partial(_denominator, walk, den_start))
    parts: list[tuple[float, ...]] = []  # one column per part of a state
    for walk_k, column in zip(walks, columns):
        live = [n for r, n in enumerate(column) if r not in ended] if ended else column
        states = _states_by_level(live, walk_k)
        parts += zip(*map(states.get, column, repeat(_NO_WALK)))
    values = _merge(zip(*parts))
    costs = [terms] * len(checked) if terms is not None else [2 * n for n in columns[-1]]
    for r, n in ended.items():
        costs[r] = n
    return values, costs


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
    return _walk_row(alpha, x, Method.EXACT)


def dmn_loglik_lgamma(alpha: AlphaLike, x: CountsLike) -> LogLikResult:
    """Dirichlet-multinomial log-likelihood kernel via ``math.lgamma``.

    Evaluates ``lgamma(A) - lgamma(A+N) + sum_k [lgamma(alpha_k + x_k) -
    lgamma(alpha_k)]`` with 2K + 2 lgamma calls.  This is the conventional
    O(K) route: cheap for huge counts, but it subtracts large nearly-equal
    lgamma values, so its absolute error grows with N.
    """
    alpha = _as_alpha(alpha)
    x = _sized(len(alpha.alpha), x)
    # the parts and their order are those a table's row merges
    parts = [_lgamma_ratio(a_k + x_k, a_k) for a_k, x_k in zip(alpha.alpha, x.counts)]
    parts.append(_lgamma_ratio(alpha.sum_a, alpha.sum_a + x.total))
    return LogLikResult(math.fsum(parts), Method.LOG_GAMMA, 2 * len(alpha.alpha) + 2)


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
    return _walk_row(mp, x, Method.PHI_FORM)


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
    A walk never goes past its column's largest count, and a row that
    observes a zero-probability category (a ``-inf`` row) takes no walk, so
    this never takes more logs than the per-row calls, and on a table with
    repeated counts far fewer.  Every row is validated, in order, before any
    pass starts.
    """
    method = Method.PHI_FORM if isinstance(params, MeanPhiParams) else Method.EXACT
    values, terms = _loglik_table(params, rows, method)
    return [LogLikResult(value, method, n) for value, n in zip(values, terms)]


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
    if _ended(probs, x) is not None:
        return _NEG_INF
    # at phi = 0 every denominator term is log(1) = 0: its state adds nothing
    (value,) = _merge([_numerators(_MULTINOMIAL_WALK, probs, x.counts)])
    return value


def log_multinomial_coef(x: CountsLike) -> float:
    """log(N! / prod_k x_k!) by the same ascending sum-of-logs scheme.

    log N! is sum_{i=2}^{N} log i, an arithmetic log sum starting at 2.
    """
    x = _as_counts(x)
    _checked(len(x.counts), x)
    s, c = _sum_logs(2.0, (x.total - 1,))[0]
    parts = [s, c]
    for x_k in x.counts:
        s, c = _sum_logs(2.0, (x_k - 1,))[0]
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


def canonical_json(payload) -> str:
    """Stable JSON encoding: sorted keys, two-space indent, trailing newline.

    Re-encoding a parsed document reproduces it byte for byte.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
