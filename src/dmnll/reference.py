"""The reference evaluator: the log-likelihood in 40-digit decimal arithmetic.

:func:`reference_loglik` evaluates the log-gamma closed form in the
standard library's :mod:`decimal`, at an explicit precision of 40
significant digits plus the digits its log-gamma differences cancel: O(K)
like the log-gamma baseline, and independent of the sum-of-logs walk.  A
rise ``loggamma(a + n) - loggamma(a)`` by a count n up to the shift bound,
about 0.6 times the working digits, is the ``ln`` of the rising product
a (a + 1) ... (a + n - 1), one multiplication per factor; only a larger
count takes two log-gammas, which shift small arguments up by the
recurrence and sum Stirling's series by Horner's rule at one precision,
over the terms that can reach the last digit at that argument.  The tables
of ``ln`` are built once per precision, and those of the series, tangent
numbers included, only where a log-gamma first sums it at that precision.
It reads and sets no decimal context but its own, so it is safe to call
from any number of threads, and it evaluates the log-gamma of each
parameter once per precision, however many grid points share it.

It takes only the validation of :mod:`dmnll.core`, none of its
evaluators, and loads neither numpy nor mpmath.
"""

from __future__ import annotations

import bisect
import decimal
import functools
import itertools
import math

from .core import AlphaLike, CountsLike, _as_alpha, _checked

__all__ = ["REFERENCE_DPS", "reference_loglik"]

#: Least working precision (significant decimal digits) of the reference
#: evaluator, which adds the digits its log-gamma values cancel.
REFERENCE_DPS = 40


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
    differences.  Each a_k is rounded once to that precision, and the
    parameter total A is their exact sum rounded once, so at K = 1 A is
    a_k and the result is exactly 0.0.  Each difference is a rise
    (:func:`_loggamma_rise`): the ``ln`` of a rising product for a count up
    to about 0.6 times the working digits, else two log-gammas, so a call
    costs O(K) at any N.  The result is rounded to a Python float once at
    the end.  Serves as ground truth when measuring evaluator error.

    The arithmetic is the standard library's :mod:`decimal`, every
    operation a method of a context this call makes, so no thread's or
    default decimal context is read or set, and concurrent calls at
    different precisions do not meet.  ``loggamma`` of each a_k and of A is
    memoized per value and precision.  The arguments are validated before
    any decimal arithmetic.
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
    ctx = _context(REFERENCE_DPS + digits)
    a = [ctx.create_decimal_from_float(a_k) for a_k in alpha.alpha]
    a_sum = _rounded_sum(a, ctx)
    num = _rounded_sum(
        [_loggamma_rise(a_k, x_k, ctx) for a_k, x_k in zip(a, x.counts) if x_k], ctx
    )
    den = _loggamma_rise(a_sum, x.total, ctx)
    return float(ctx.to_sci_string(ctx.subtract(num, den)))


def _context(prec: int) -> decimal.Context:
    """A decimal context at ``prec`` significant digits, rounding to nearest.

    Every field is given, because one left out is copied from
    ``decimal.DefaultContext``, which any code may change.
    """
    return decimal.Context(
        prec=prec,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX,
        capitals=1,
        clamp=0,
        flags=[],
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


def _rounded_sum(values, ctx: decimal.Context) -> decimal.Decimal:
    """The exact sum of ``values``, rounded once at ``ctx``'s precision."""
    exact = ctx.copy()
    exact.prec = decimal.MAX_PREC
    return ctx.plus(functools.reduce(exact.add, values))


def _loggamma_rise(a: decimal.Decimal, n: int, ctx: decimal.Context) -> decimal.Decimal:
    """``loggamma(a + n) - loggamma(a)`` for ``a`` > 0 and n >= 1, rounded to
    nearest at ``ctx``'s precision.

    Up to the shift bound of the working precision (:func:`_shift_bound`)
    it is ``ln(a (a + 1) ... (a + n - 1))``, the product and its ``ln``
    formed at the guard digits of :func:`_loggamma`: at most a bound's worth
    of multiplications, and no log-gamma.  Above the bound it is the
    difference of two log-gammas, each rounded at ``ctx``'s precision, and
    ``loggamma(a)`` comes from the memo.
    """
    prec = ctx.prec + _GUARD_DIGITS
    if n <= _shift_bound(prec):
        work = ctx.copy()
        work.prec = prec
        return ctx.plus(_ln(_rising_product(a, n, work), work, _ln_tables(prec)))
    top = _loggamma(ctx.add(a, n), ctx)
    return ctx.subtract(top, _parameter_loggamma(ctx.to_sci_string(a), ctx.prec))


@functools.lru_cache(maxsize=1024)
def _parameter_loggamma(a: str, prec: int) -> decimal.Decimal:
    """``loggamma(a)`` of a parameter (an a_k or A), given as its exact
    decimal string, at ``prec`` digits.

    Every point of a sweep shares its parameters, so each is evaluated once
    per precision.  Keyed by value and precision: a value at one precision
    is never handed out at another.  The key is a string because a lookup
    compares keys with ``==``, and ``==`` of two Decimals reads the
    thread's decimal context.
    """
    ctx = _context(prec)
    return _loggamma(ctx.create_decimal(a), ctx)


#: Digits that :func:`_loggamma` and :func:`_loggamma_rise` work at beyond
#: their context's: ``ln`` loses up to 12 (:func:`_ln`), a rising product,
#: one rounding per factor and per multiplication, about 3 more, and
#: Stirling's series, summed at the working precision, a unit or so.
_GUARD_DIGITS = 20

#: ``ln`` reduces its argument by a power of e^h, h = 2^-_LN_STEP_BITS.
_LN_STEP_BITS = 32

_HALF = _context(1).create_decimal("0.5")


def _shift_bound(prec: int) -> int:
    """The least argument Stirling's series is summed at, at ``prec`` digits:
    about 0.6 ``prec``, where the shift's multiplications and the series'
    terms cost about the least together."""
    return max(8, (3 * prec) // 5)


def _loggamma(z: decimal.Decimal, ctx: decimal.Context) -> decimal.Decimal:
    """``loggamma(z)`` of a Decimal z > 0, rounded to ``ctx``'s precision,
    to within about a unit in the last digit of the larger of
    ``|loggamma(z)|`` and 1.

    Below the shift bound (:func:`_shift_bound`), z is shifted up by the
    recurrence,
    ``loggamma(z) = loggamma(z + m) - ln(z (z + 1) ... (z + m - 1))``,
    with one ``ln`` of the product (:func:`_rising_product`); at or above
    it, Stirling's series converges to the working precision
    (:func:`_stirling`).
    """
    work = ctx.copy()
    work.prec += _GUARD_DIGITS
    bound = _shift_bound(work.prec)
    ln_tables, series_tables = _ln_tables(work.prec), _series_tables(work.prec)
    if not work.compare(z, bound).is_signed():
        return ctx.plus(_stirling(z, work, series_tables, ln_tables))
    # z + m > bound however float rounds z
    m = bound + 2 - int(float(work.to_sci_string(z)))
    product = _rising_product(z, m, work)
    w = work.add(z, m)
    series = _stirling(w, work, series_tables, ln_tables)
    return ctx.plus(work.subtract(series, _ln(product, work, ln_tables)))


def _rising_product(z: decimal.Decimal, m: int, ctx: decimal.Context) -> decimal.Decimal:
    """``z (z + 1) ... (z + m - 1)`` for m >= 1: one ``multiply`` per factor,
    each factor and each step rounded at ``ctx``'s precision."""
    return functools.reduce(ctx.multiply, (ctx.add(z, j) for j in range(1, m)), z)


def _stirling(
    w: decimal.Decimal, ctx: decimal.Context, series_tables, ln_tables
) -> decimal.Decimal:
    """Stirling's series for ``loggamma(w)``, w at least the shift bound:
    ``(w - 1/2) ln w - w + ln(2 pi)/2`` plus ``c_k / w^(2k - 1)`` for each
    c_k of the table whose term at this w can reach the last digit, by
    Horner's rule at ``ctx``'s precision.  At w = bound the table's last
    term is already below the result's last digit, and a larger w only
    shrinks the terms, so the cuts of the table drop more of them the
    larger w is.  The tables are :func:`_series_tables` and
    :func:`_ln_tables` at ``ctx``'s precision."""
    coefficients, half_ln_2pi, cuts = series_tables
    value = ctx.add(
        ctx.subtract(ctx.multiply(ctx.subtract(w, _HALF), _ln(w, ctx, ln_tables)), w),
        half_ln_2pi,
    )
    # the terms past the first `kept` are below half a unit of the last digit
    kept = len(coefficients) - bisect.bisect_left(cuts, float(ctx.to_sci_string(w)))
    if not kept:
        return value
    inverse_square = ctx.divide(1, ctx.multiply(w, w))
    acc = coefficients[kept - 1]
    for c in reversed(coefficients[: kept - 1]):
        acc = ctx.fma(acc, inverse_square, c)
    return ctx.add(value, ctx.divide(acc, w))


def _ln(x: decimal.Decimal, ctx: decimal.Context, ln_tables) -> decimal.Decimal:
    """``ln x`` of a Decimal x > 0 at ``ctx``'s precision, less up to 12 digits;
    ``ln_tables`` is :func:`_ln_tables` at that precision.

    With x = m 10^e and m in [1, 10), ``ln x = e ln 10 + j h + ln r``, where
    ``j h`` (h = 2^-32) is the float ``ln m`` rounded to a multiple of h
    and r = m / e^(j h).  e^(j h) is a product of cached powers, one for
    each hexadecimal digit d of j, ``e^(d 16^i h)`` for the digit at i
    (an exact 1 for d = 0, so every digit takes one multiplication);
    their errors grow with their exponents, to about 10^12 times the last
    digit for e^(2^32 h).  r is within about h of 1, so
    ``ln r = 2 atanh((r - 1)/(r + 1))`` converges in prec / 19 terms, where
    ``ctx.ln`` is about eight times as slow at 350 digits.
    """
    exp_digits, ln10 = ln_tables
    e = x.adjusted()
    m = ctx.scaleb(x, -e)
    j = round(math.log(float(ctx.to_sci_string(m))) * 2**_LN_STEP_BITS)
    divisor, rest = 1, j
    for powers in exp_digits:
        divisor = ctx.multiply(divisor, powers[rest & 15])
        rest >>= 4
    r = ctx.divide(m, divisor)
    u = ctx.divide(ctx.subtract(r, 1), ctx.add(r, 1))
    total = ctx.add(ctx.multiply(e, ln10), ctx.divide(j, 2**_LN_STEP_BITS))
    if u.is_zero():
        return total
    u_square = ctx.multiply(u, u)
    atanh, power, k = u, u, 1
    floor = u.adjusted() - ctx.prec
    while True:
        k += 2
        power = ctx.multiply(power, u_square)
        term = ctx.divide(power, k)
        if term.adjusted() < floor:
            break
        atanh = ctx.add(atanh, term)
    return ctx.add(total, ctx.multiply(atanh, 2))


@functools.lru_cache(maxsize=64)
def _ln_tables(prec: int) -> tuple:
    """What :func:`_ln` needs at ``prec`` digits, ``(exp_digits, ln10)``.

    * ``exp_digits``: for each hexadecimal place i of a 36-bit j, the powers
      ``e^(d 16^i h)``, d < 16, h = 2^-32, an exact 1 at d = 0: e^h from its
      Taylor series, and each ``e^(16^i h)`` the 16th power of the one before.
    * ``ln10``: ``ln 10``, correctly rounded by decimal's own ``ln``.

    Every evaluation at ``prec`` needs them, the series or not.
    """
    ctx = _context(prec)
    h = ctx.divide(1, 2**_LN_STEP_BITS)
    term, base, k = h, ctx.add(1, h), 1
    while term.adjusted() >= -prec:
        k += 1
        term = ctx.divide(ctx.multiply(term, h), k)
        base = ctx.add(base, term)
    exp_digits = []
    for _ in range(9):
        powers = [1, base]
        for _ in range(14):
            powers.append(ctx.multiply(powers[-1], base))
        exp_digits.append(tuple(powers))
        base = ctx.multiply(powers[15], base)
    return tuple(exp_digits), ctx.ln(10)


@functools.lru_cache(maxsize=64)
def _series_tables(prec: int) -> tuple:
    """What :func:`_stirling` needs at ``prec`` digits, beside
    :func:`_ln_tables`: ``(coefficients, half_ln_2pi, cuts)``.

    * ``coefficients``: ``c_k = B_2k / (2k (2k - 1))``, as many as the
      series needs at the shift bound, from the integer tangent numbers,
      computed here for this precision:
      ``c_k = (-1)^(k-1) T_k / ((2k - 1) 4^k (4^k - 1))``.
    * ``half_ln_2pi``: ``ln(2 pi)/2``, from Stirling's series at the bound,
      whose ``loggamma`` is ``ln((bound - 1)!)``, over every coefficient.
    * ``cuts``: ascending floats, one per coefficient.  Past w =
      ``cuts[i]``, the terms ``|c_k| / w^(2k - 1)`` of the last i + 1
      coefficients all lie below half a unit in the last digit of
      ``loggamma(bound)``, the digit the table's last term is below at
      w = bound.  The tail of the series, alternating, is smaller than its
      first term, so dropping the terms past a cut moves the sum by under
      half a unit.  That half is a far wider margin than the rounding of w
      and of the cuts to floats.  Empty cuts keep every coefficient.

    Built when a log-gamma first sums the series at ``prec``, and not
    before: a rise of a count up to the bound needs none of it, and the
    tangent numbers alone take milliseconds at a few hundred digits.
    """
    ctx = _context(prec)
    bound = _shift_bound(prec)
    # |c_k| is about 2 (2k - 2)! / (2 pi)^(2k)
    n, log10_bound = 1, math.log10(bound)
    while (
        math.log10(2) + math.lgamma(2 * n + 1) / math.log(10)
        - 2 * (n + 1) * math.log10(2 * math.pi)
        - (2 * n + 1) * log10_bound
    ) >= -prec - 2:
        n += 1
    ks = range(1, n + 1)
    tangents = _tangent_numbers(n)
    denominators = [(2 * k - 1) * 4**k * (4**k - 1) for k in ks]
    coefficients = tuple(
        ctx.divide((-1) ** (k - 1) * t, d) for k, t, d in zip(ks, tangents, denominators)
    )
    ln_tables = _ln_tables(prec)
    log_factorial = _ln(ctx.create_decimal(math.factorial(bound - 1)), ctx, ln_tables)
    stirling = _stirling(ctx.create_decimal(bound), ctx, (coefficients, 0, ()), ln_tables)
    # term k is below half of 10^unit, the last digit, once log10 w passes
    # (log10(2 T_k / d_k) - unit) / (2k - 1): float logs of exact integers,
    # off by about 1e-13, where the half moves w by 2^(1 / (2k - 1)) at the least
    unit = log_factorial.adjusted() + 1 - prec
    log10_reaches = [
        (math.log10(2 * t) - math.log10(d) - unit) / (2 * k - 1)
        for k, t, d in zip(ks, tangents, denominators)
    ]
    reaches = (10.0**r if r < 308 else math.inf for r in reversed(log10_reaches))
    cuts = tuple(itertools.accumulate(reaches, max))
    return coefficients, ctx.subtract(log_factorial, stirling), cuts


def _tangent_numbers(n: int) -> tuple[int, ...]:
    """The tangent numbers T_1 .. T_n (1, 2, 16, 272, ...), the odd
    derivatives of tan at 0, by the in-place recurrence of Brent and
    Zimmermann (Modern Computer Arithmetic, 4.7.2): O(n^2) integer steps."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(t[1:])
