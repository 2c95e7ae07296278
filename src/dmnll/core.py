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
lgamma route evaluates each distinct count once in the same way.  That
column pass exists once (``_column_states``): it walks each column, the
K count columns and then the totals, over its distinct counts, and yields
one column per part of the states (sum and compensation on the
sum-of-logs routes, one part on the lgamma route and in the gradient),
holding every row's value of that part.  A part column is read in one C
call: the walk's states of that part go into a dict keyed by count, and
one ``operator.itemgetter`` of the column's counts reads every row's
value from it.  The table evaluator (``_loglik_columns``) takes a table
as those columns, as a :class:`Dataset` (the CLI's parsed table among
them) keeps it, with no per-row objects.  A row that observes a
zero-probability category is ``-inf``, and ``_ended`` is the one place
that says so; the table evaluator removes those rows from its columns
before the pass and puts them back after it, so the pass and its walks
never meet them.  It zips its part columns into each row's parts and
merges them with one ``fsum`` per row.
Tables given as rows are checked row by row and transposed once
(``_loglik_table``).  The gradient in ``dmnll.estimate`` reads its
reciprocal sums from the same pass.  Every per-row call, on each of the
three routes, is one row from walks of its own (``_walk_row``): one
helper (``_row_parts``) reads its K + 1 walks, or the multinomial
kernel's K, at the row's one level, and lists the parts as a table row
lists them.  The table and the per-row evaluators read the parameters
and pick the route in one place (``_route``) and merge a row's parts with
one ``math.fsum`` (``_merge``, for a table); they differ only in where the
states come from, a row's own walks or lookups into the shared ones.  A
route is one walk: the denominator log Gamma(A + N) - log Gamma(A) is the
same rising-factorial log sum as each category's numerator, started at A,
so its states are the route's own walk, negated: a per-row call negates
its one state in place, and ``_denominator`` negates the column pass's.

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
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from operator import itemgetter, neg
from typing import Iterable, Iterator, Sequence, Union

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
    "Dataset",
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
        vals = []
        for c in _iterate(counts, "counts must be a sequence of integers"):
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


def _iterate(values: Iterable, refusal: str) -> Iterator:
    """``iter(values)``; a ``values`` that is not iterable is a
    :class:`DomainError` whose message is ``refusal`` and the value given.

    The one place the public API refuses an argument it cannot iterate.
    """
    try:
        return iter(values)
    except TypeError:
        raise DomainError(f"{refusal}, got {values!r}") from None


def _floats(values: Iterable, what: str) -> tuple[float, ...]:
    """``values`` as floats; a value ``float`` rejects, or a ``values`` that
    is not iterable, is a :class:`DomainError`."""
    vals = []
    for v in _iterate(values, f"{what}: expected a sequence"):
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


def _checked(
    k_params: int, x: CountsLike, budget: float = MAX_TOTAL_COUNT
) -> CountVector:
    """``x`` as a :class:`CountVector` with K = ``k_params`` categories, its
    total within ``budget``: the route's (:func:`_route`), which is
    infinite on the lgamma route."""
    x = _as_counts(x)
    if k_params != len(x.counts):
        raise DimensionMismatchError(
            f"parameters have {k_params} categories, counts have {len(x.counts)}"
        )
    _check_budget(x.total, budget)
    return x


def _check_budget(total: int, budget: float) -> None:
    """A row's ``total`` must not exceed the route's ``budget``."""
    if total > budget:
        raise ResourceLimitError(
            f"total count {total} exceeds the evaluator budget of {budget}"
        )


def _check_table(
    k_params: int, columns: Sequence[Sequence[int]], budget: float = MAX_TOTAL_COUNT
) -> None:
    """Check a table's columns as :func:`_checked` checks each of its rows.

    ``columns`` are the K count columns, then the totals.  A table's rows
    all have its K categories, so the dimension is checked once; the budget
    is checked by the largest total, and the first row over it is the error.
    """
    if len(columns) - 1 != k_params:
        raise DimensionMismatchError(
            f"parameters have {k_params} categories, counts have {len(columns) - 1}"
        )
    totals = columns[-1]
    if max(totals, default=0) > budget:
        for n in totals:
            _check_budget(n, budget)


def _columns(rows: Sequence[CountVector]) -> list[list[int]]:
    """The columns of checked ``rows``: the K count columns, then the totals."""
    return [*map(list, zip(*(x.counts for x in rows))), [x.total for x in rows]]


@dataclass(frozen=True, init=False)
class Dataset:
    """A sequence of count observations sharing the same K categories.

    ``columns`` holds the observations transposed once, as the fit and the
    table evaluator read them: a list of the K count columns, then the
    totals, each a list of ints.

    ``_from_columns`` is a parser's way in: a parsed table's columns,
    already checked lists, which are kept as they are.  Such a dataset builds
    its ``observations`` only when they are first read.  The command
    line's parsed table, ``dmnll.cli.CountTable``, is one.
    """

    observations: tuple[CountVector, ...]
    k: int
    columns: list = field(repr=False, compare=False)

    def __init__(
        self,
        observations: Iterable[CountVector | Sequence[int]] = (),
        *,
        _from_columns: list | None = None,
    ):
        columns = _from_columns
        if columns is None:
            rows = _iterate(observations, "observations must be a sequence of count vectors")
            obs = tuple(o if isinstance(o, CountVector) else CountVector(o) for o in rows)
            if not obs:
                raise DomainError("a dataset needs at least one observation")
            k = len(obs[0].counts)
            for i, o in enumerate(obs):
                if len(o.counts) != k:
                    raise DimensionMismatchError(
                        f"observation {i} has {len(o.counts)} categories, expected {k}"
                    )
            # stored where the cached property keeps its value, so the rows
            # given are the rows read
            self.__dict__["observations"] = obs
            columns = _columns(obs)
        object.__setattr__(self, "k", len(columns) - 1)
        object.__setattr__(self, "columns", columns)

    @cached_property
    def observations(self) -> tuple[CountVector, ...]:
        return tuple(map(CountVector, zip(*self.columns[:-1])))

    def __len__(self) -> int:
        return len(self.columns[-1])


# ---------------------------------------------------------------------------
# Compensated summation primitive
# ---------------------------------------------------------------------------


def _sum_terms(
    term, start: float, step: float, levels: Iterable[int]
) -> tuple[list[float], list[float]]:
    """Neumaier-compensated prefix sums of term(start + j*step), j = 0, 1, ...

    Terms are accumulated in ascending j in one walk up to the largest level.
    The running sum s and its compensation c are recorded after the first n
    terms for each n in ``levels`` (ascending; n = 0, or a lone negative n,
    records s = c = 0.0).  The walk does not depend on the levels asked
    for, so the state recorded for n is bit for bit the state of a walk of
    n terms alone.  Returns the state's two parts, each as a list with one
    entry per level: the sums, then the compensations.  They stay separate
    so callers can merge partial sums without an intermediate rounding.
    """
    sums = []
    comps = []
    s = 0.0
    c = 0.0
    done = 0
    for stop in levels:
        for j in range(done, stop):
            t = term(start + step * j)
            total = s + t
            if abs(s) >= abs(t):
                c += (s - total) + t
            else:
                c += (t - total) + s
            s = total
        done = stop
        sums.append(s)
        comps.append(c)
    return sums, comps


def _sum_logs(start: float, levels: Iterable[int]) -> tuple[list[float], list[float]]:
    """:func:`_sum_terms` of log(start + j) at each of ``levels``."""
    return _sum_terms(math.log, start, 1.0, levels)


def _sum_phi_logs(
    phi: float, p_k: float, levels: Iterable[int]
) -> tuple[list[float], list[float]]:
    """:func:`_sum_terms` of log(p_k (1-phi) + j phi) at each of ``levels``.

    When the product p_k (1-phi) is subnormal, or underflows to 0, it has
    lost precision, so a term whose argument is that product, the first
    (or at phi = 0 every one, where both forms are log p_k), is
    log(p_k) + log1p(-phi) instead.  A zero-probability category is walked
    only to level 0, which takes no term: :func:`_ended` ends a row that
    observes it.  At p_k = 1 this is the denominator's walk,
    log((1-phi) + i phi).
    ``phi`` comes first, so that ``partial(_sum_phi_logs, phi)`` is a walk.
    """
    start = p_k * (1.0 - phi)
    if start >= _MIN_NORMAL:
        return _sum_terms(math.log, start, phi, levels)

    def term(v: float) -> float:
        return math.log(p_k) + math.log1p(-phi) if v == start else math.log(v)

    return _sum_terms(term, start, phi, levels)


#: The phi route's walk at phi = 0, the multinomial kernel's, built once
#: rather than on every call of :func:`mn_loglik_kernel`.
_MULTINOMIAL_WALK = partial(_sum_phi_logs, 0.0)


def _lgamma_rises(a_k: float, levels: Iterable[int]) -> tuple[list[float]]:
    """lgamma(a_k + n) - lgamma(a_k), the closed form of :func:`_sum_logs`'s
    log sum, as a one-part state at each n in ``levels``: the lgamma
    route's walk, for a table's columns and a single row alike.

    lgamma(a_k) is evaluated once per walk, not once per level (every
    caller asks for at least one level, so it is never taken for nothing).
    An lgamma that overflows a float is a :class:`DomainError`.
    """
    try:
        base = math.lgamma(a_k)
        return ([math.lgamma(a_k + n) - base for n in levels],)
    except OverflowError as exc:
        raise DomainError(
            "lgamma overflows a float at these parameters; "
            "the exact route evaluates them"
        ) from exc


def _sum_recips(start: float, levels: Iterable[int]) -> tuple[list[float]]:
    """Compensated sums of 1/(start + j) for j < n, as a one-part state at
    each n in ``levels``."""
    sums, comps = _sum_terms((1.0).__truediv__, start, 1.0, levels)
    return ([s + c for s, c in zip(sums, comps)],)


def _column_states(walks, columns: Sequence[Sequence[int]]) -> Iterator:
    """Every row's state in each column, one column per part, from one walk
    per column.

    The one column pass of the package.  ``columns`` are a table's K count
    columns, then its totals, each holding at least one row, and ``walks``
    one walk for each: ``walk(levels)`` returns the parts of the state at
    each of the ascending ``levels``, one list per part (the sum and the
    compensation on the sum-of-logs routes, one part on the lgamma route
    and in the gradient).  Each column is walked once, over its distinct
    counts, and yields one tuple per part, of every row's value of that
    part in row order: a row with count n reads the state a walk of n terms
    alone would return, so a row merged from its parts in all K + 1 columns
    is bit for bit the row a per-row call evaluates.

    A part is read as one dict from each walked count to its state, and one
    ``operator.itemgetter(*column)`` call reads every row's state from it,
    in C, not one lookup per row in Python.  A one-row column yields a
    one-entry tuple.
    """
    for walk, column in zip(walks, columns):
        levels = sorted(set(column))
        read = itemgetter(*column)
        for part in walk(levels):
            values = read(dict(zip(levels, part)))
            # an itemgetter of one key returns that key's value, not a tuple
            yield values if len(column) > 1 else (values,)


# ---------------------------------------------------------------------------
# The evaluation path the evaluators share
# ---------------------------------------------------------------------------


def _route(params: AlphaLike | MeanPhiParams, method: Method):
    """The walk that evaluates ``params`` by ``method``, and its budget.

    The one place that tells the routes apart, for the table evaluator and
    every per-row call alike.  A route is one walk (:func:`_sum_logs`,
    :func:`_lgamma_rises`, or :func:`_sum_phi_logs` at phi).
    Returns ``(starts, walk, den_start, budget, terms)``: category k's
    states at ``levels`` are ``walk(starts[k], levels)``, and the
    denominator's are the same walk from ``den_start``, negated (in place
    by a per-row call, by :func:`_denominator` in the column pass), so that
    a row's merge adds up every state it reads.  ``den_start`` is A, or 1.0
    on the phi route, whose denominator walks log((1-phi) + i phi), the
    walk of p_k = 1.  A zero-probability category's walk is asked only
    for level 0: the rows that observe it are ``-inf`` (:func:`_ended`)
    and take no walk.  ``budget`` is the largest total a row may have:
    :data:`MAX_TOTAL_COUNT`, or infinity on the O(K) lgamma route.
    ``terms`` is the lgamma route's per-row cost, 2K + 2, or None on the
    sum-of-logs routes, whose cost is the counts they read.
    The phi route takes :class:`MeanPhiParams`; the others take
    concentration parameters.
    """
    if method is Method.PHI_FORM:
        return params.p, partial(_sum_phi_logs, params.phi), 1.0, MAX_TOTAL_COUNT, None
    alpha = _as_alpha(params)
    if method is Method.LOG_GAMMA:
        terms = 2 * len(alpha.alpha) + 2
        return alpha.alpha, _lgamma_rises, alpha.sum_a, math.inf, terms
    return alpha.alpha, _sum_logs, alpha.sum_a, MAX_TOTAL_COUNT, None


def _denominator(walk, den_start: float, levels: Iterable[int]) -> list[list[float]]:
    """The denominator's states at ``levels``: ``walk(den_start, levels)``,
    one list per part, with every value negated, which is exact.

    The column pass's denominator walk; a per-row call negates the parts of
    its one state in place, to the same bits.  The column pass reads no
    ``-inf`` row (:func:`_loglik_columns`), so every state it negates is
    finite.
    """
    return [list(map(neg, part)) for part in walk(den_start, levels)]


def _row_parts(walk, starts: Sequence[float], levels: Sequence[int]) -> list[float]:
    """A row's parts from walks of its own: the state of ``walk`` from each
    start at its one level, listed as a table row lists them."""
    return [value for start, n in zip(starts, levels) for (value,) in walk(start, (n,))]


def _ended(starts: Sequence[float], counts: Sequence[int]) -> int | None:
    """A row's terms if its ``counts`` observe a zero-probability category, else None.

    That category's first term is log(0), so the row is ``-inf``: this is
    the one place that decides a row is impossible, for the table
    evaluator and every per-row call alike.  The row's terms are the
    counts of the categories before the first such one, the numerator logs
    a walk would take up to it; no walk is taken.
    """
    if 0.0 not in starts:
        return None
    n_logs = 0
    for start, x_k in zip(starts, counts):
        if start == 0.0 and x_k:
            return n_logs
        n_logs += x_k
    return None


def _merge(rows: Iterable[Iterable[float]]) -> list[float]:
    """Each row's value: the ``math.fsum`` of its parts.

    A row's parts are its states' parts in order: on an evaluator's route,
    those of its K + 1 states, the categories' numerators and then the
    negated denominator.  This is the NaN check of the table evaluator, the
    multinomial kernel and the coefficient, whose values are plain floats;
    a per-row call's value is checked by its :class:`LogLikResult`.

    One ``isnan`` of the values' sum checks them all.  No merged row is
    ``-inf``: the rows that are (:func:`_ended`) are never merged.  So a
    value is finite or NaN, and a finite one is far below the largest
    float: under 1e23 on the sum-of-logs routes (at most 2^64 logs), and at
    worst a few of its ulps (about 1e292) on the lgamma route, where two
    lgammas near it cancel.  So no table's sum reaches ``+inf``, and it is
    NaN only where a value is.
    """
    values = list(map(math.fsum, rows))
    if math.isnan(sum(values)):
        raise DmnError("internal error: NaN log-likelihood")
    return values


def _walk_row(params: AlphaLike | MeanPhiParams, x: CountsLike, method: Method) -> LogLikResult:
    """One row from walks of its own; a ``-inf`` row takes none.

    The row's parts are summed by ``math.fsum``, as :func:`_merge` sums a
    table row's, and :class:`LogLikResult` makes the one NaN check."""
    starts, walk, den_start, budget, terms = _route(params, method)
    x = _checked(len(starts), x, budget)
    ended = _ended(starts, x.counts)
    if ended is not None:
        return LogLikResult(_NEG_INF, method, ended)
    parts = _row_parts(walk, starts, x.counts)
    parts += map(neg, _row_parts(walk, (den_start,), (x.total,)))
    return LogLikResult(math.fsum(parts), method, 2 * x.total if terms is None else terms)


def _loglik_columns(
    params: AlphaLike | MeanPhiParams, columns: Sequence[Sequence[int]], method: Method
) -> tuple[list[float], list[int]]:
    """Every row's value and terms, as plain floats and ints, from a table's columns.

    The one table evaluator.  ``columns`` are the K count columns, then
    the totals, each in row order, holding non-negative ints, each total
    its row's sum: a parsed table's columns, or checked rows' (see
    :func:`_loglik_table`).  Row r's value and terms are those of the
    per-row evaluator of ``method`` on row r, bit for bit, and so are the
    errors, checked before any pass starts (:func:`_check_table`).

    The ``-inf`` rows are found first: only where a category has
    probability 0 are rows read whole, and :func:`_ended` ends each that
    observes one.  They are removed from the columns, and the rest go to
    :func:`_column_states` (no pass runs if no row is left): it walks each
    category once, up to its largest count, and the denominator once, up
    to the largest total, so no walk takes more logs (or lgamma calls)
    than the per-row calls.  Its columns, one per part of each of the
    K + 1 states, are zipped once into each row's parts, in the order the
    per-row call lists them, and merged as it merges them.  Each ``-inf``
    row's value and terms are then put back at its index.
    """
    starts, walk, den_start, budget, terms = _route(params, method)
    _check_table(len(starts), columns, budget)
    *counts, totals = columns
    costs = [terms] * len(totals) if terms is not None else [2 * n for n in totals]
    ended = {}
    if 0.0 in starts:
        ended = {
            r: n for r, row in enumerate(zip(*counts)) if (n := _ended(starts, row)) is not None
        }
    if ended:
        live = [r for r in range(len(totals)) if r not in ended]
        columns = [[column[r] for r in live] for column in columns]
    walks = [partial(walk, start) for start in starts]
    walks.append(partial(_denominator, walk, den_start))
    values = _merge(zip(*_column_states(walks, columns))) if columns[-1] else []
    if ended:
        rest = iter(values)
        values = [_NEG_INF if r in ended else next(rest) for r in range(len(totals))]
        for r, n in ended.items():
            costs[r] = n
    return values, costs


def _loglik_table(
    params: AlphaLike | MeanPhiParams, rows: Iterable[CountsLike], method: Method
) -> tuple[list[float], list[int]]:
    """:func:`_loglik_columns` on a table given as rows.

    Every row is checked, in order, as the per-row evaluator of ``method``
    checks it, and the checked rows are transposed once into columns.
    """
    starts, _, _, budget, _ = _route(params, method)
    rows = _iterate(rows, "rows must be a sequence of count vectors")
    checked = [_checked(len(starts), x, budget) for x in rows]
    if not checked:
        return [], []
    return _loglik_columns(params, _columns(checked), method)


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

    Each ratio is a state of the lgamma route's walk, and the row is
    merged as every route's row is, so a table evaluated on this route
    gives each row this call's value bit for bit.  Any total is accepted.
    """
    return _walk_row(alpha, x, Method.LOG_GAMMA)


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
    if _ended(probs, x.counts) is not None:
        return _NEG_INF
    # at phi = 0 every denominator term is log(1) = 0: its state adds nothing
    (value,) = _merge([_row_parts(_MULTINOMIAL_WALK, probs, x.counts)])
    return value


def log_multinomial_coef(x: CountsLike) -> float:
    """log(N! / prod_k x_k!) by the same ascending sum-of-logs scheme.

    log n! is sum_{j<n} log(1 + j), the exact route's walk at a = 1; its
    first term, log 1, adds an exact zero.  N and every x_k are one column
    of :func:`_column_states`, so they read one walk, up to N: N!'s state
    is added as it is, and each x_k!'s parts are negated, which is exact.
    The total is checked against :data:`MAX_TOTAL_COUNT`.
    """
    x = _as_counts(x)
    _check_budget(x.total, MAX_TOTAL_COUNT)
    sums, comps = _column_states([partial(_sum_logs, 1.0)], [(x.total, *x.counts)])
    (value,) = _merge([[sums[0], comps[0], *map(neg, sums[1:]), *map(neg, comps[1:])]])
    return value


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
