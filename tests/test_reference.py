"""Tests for the 40-digit reference evaluator, :mod:`dmnll.reference`."""

import contextvars
import decimal
import math
import os
import sys
import threading

import pytest

from dmnll import (
    CountVector,
    DimensionMismatchError,
    ResourceLimitError,
    accuracy_defaults,
    dmn_loglik_exact,
    reference,
    reference_loglik,
    run_accuracy_experiment,
    runtime_defaults,
)
from dmnll.core import MAX_TOTAL_COUNT
from conftest import mpmath_reference, random_alpha, random_counts, walk_reference


class TestReference:
    def test_closed_form(self):
        assert reference_loglik((1.0, 1.0), (1, 1)) == pytest.approx(
            -math.log(6), abs=1e-15
        )

    def test_empty_counts(self):
        assert reference_loglik((3.0, 0.5), (0, 0)) == 0.0

    def test_checks_before_any_mpmath_work(self, monkeypatch):
        huge = CountVector([MAX_TOTAL_COUNT + 1])
        with pytest.raises(ResourceLimitError) as per_row:
            dmn_loglik_exact((1.0,), huge)

        def no_arithmetic(*args):
            raise AssertionError("reference_loglik reached its arithmetic")

        monkeypatch.setattr(reference, "_loggamma", no_arithmetic)
        monkeypatch.setattr(reference, "_ln", no_arithmetic)
        with pytest.raises(DimensionMismatchError):
            reference_loglik((1.0, 2.0), (1, 2, 3))
        with pytest.raises(ResourceLimitError) as by_reference:
            reference_loglik((1.0,), huge)
        assert str(by_reference.value) == str(per_row.value)

    def test_agrees_with_lgamma_identity(self):
        # independent high-precision identity: the reference must equal the
        # gamma-ratio form evaluated by mpmath's loggamma
        import mpmath

        alpha, x = (0.7, 2.3, 11.0), (4, 0, 9)
        with mpmath.workdps(40):
            a = [mpmath.mpf(v) for v in alpha]
            big_a = mpmath.fsum(a)
            n = sum(x)
            expected = (
                mpmath.loggamma(big_a)
                - mpmath.loggamma(big_a + n)
                + mpmath.fsum(
                    mpmath.loggamma(ak + xk) - mpmath.loggamma(ak)
                    for ak, xk in zip(a, x)
                )
            )
            expected = float(expected)
        assert reference_loglik(alpha, x) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize(
        "alpha, x, expected",
        [
            # at a flat 42 digits: -2.2833333333328734e-30, and 0.0 (A rounds to 1)
            ((1e-30, 1.0), (0, 5), -2.2833333333333334e-30),
            ((1e-300, 1.0), (0, 5), -2.2833333333333332e-300),
        ],
    )
    def test_tiny_results_keep_their_digits(self, alpha, x, expected):
        # a result about the size of the least alpha_k is as exact as any
        # other: the float of the closed form at 400 digits, each rise
        # loggamma(a + n) - loggamma(a) the log of its rising product, since
        # mpmath's loggamma next to its zero at 1 takes about a second here
        import mpmath

        def rise(a, n):
            return mpmath.log(mpmath.fprod(a + j for j in range(n)))

        with mpmath.workdps(400):
            a = [mpmath.mpf(v) for v in alpha]
            closed_form = mpmath.fsum(map(rise, a, x)) - rise(mpmath.fsum(a), sum(x))
            assert float(closed_form) == expected
        assert reference_loglik(alpha, x) == expected

    def test_series_coefficients_are_bernoulli_ratios(self):
        # c_k = B_2k / (2k (2k - 1)) from the tangent numbers 1, 2, 16, 272, ...
        assert reference._tangent_numbers(7) == (1, 2, 16, 272, 7936, 353792, 22368256)
        assert reference._tangent_numbers(3) == (1, 2, 16)
        coefficients, _, _ = reference._series_tables(60)
        ctx = reference._context(60)
        bernoulli = [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730)]
        expected = [
            ctx.divide(num, den * 2 * k * (2 * k - 1))
            for k, (num, den) in enumerate(bernoulli, 1)
        ]
        assert coefficients[:6] == tuple(expected)

    @pytest.mark.parametrize("prec", [60, 65, 140, 380])
    def test_the_series_table_ends_below_the_last_digit(self, prec):
        # Stirling's series is summed at one precision over the table, less
        # the terms its cuts drop: at w = bound the table's last term is past
        # the last of prec digits of loggamma(bound), and a larger w only
        # shrinks the terms
        import mpmath

        coefficients, _, cuts = reference._series_tables(prec)
        bound, n = reference._shift_bound(prec), len(coefficients)
        with mpmath.workdps(prec + 20):
            last = abs(mpmath.mpf(str(coefficients[-1]))) / mpmath.mpf(bound) ** (2 * n - 1)
            unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(mpmath.loggamma(bound))) + 1 - prec)
            assert last < unit
            # past the cut of the last i + 1 coefficients, each of their terms
            # is below half that unit: at the cut itself it is at most half,
            # up to the cut's float rounding (about 1e-13) to the power 2k - 1
            assert len(cuts) == n and list(cuts) == sorted(cuts)
            for i, cut in enumerate(cuts):
                if math.isinf(cut):
                    continue
                for k in range(n - i, n + 1):
                    c_k = abs(mpmath.mpf(str(coefficients[k - 1])))
                    assert c_k / mpmath.mpf(cut) ** (2 * k - 1) <= unit / 2 * (1 + 1e-9), (i, k)
        # and so the log-gamma that works at prec, at the bound and far past it,
        # is good to a unit in its last digit
        ctx = reference._context(prec - reference._GUARD_DIGITS)
        for z in (bound, "1e300"):
            value = reference._loggamma(ctx.create_decimal(z), ctx)
            with mpmath.workdps(prec + 20):
                exact = mpmath.loggamma(mpmath.mpf(z))
                unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(exact)) + 1 - ctx.prec)
                assert abs(mpmath.mpf(str(value)) - exact) <= unit, z

    def test_reads_and_sets_no_decimal_context(self, monkeypatch):
        # a default context that rounds to 3 digits, overflows past 10^10 and
        # traps every rounding is never copied, and no thread's context made
        cases = [((0.7, 2.3, 11.0), (4, 0, 9)), ((1e-300, 1.0), (0, 5)), ((8e307, 8e307), (2, 1))]
        # counts past the shift bound, so that the log-gamma runs too
        cases.append(((0.7, 2.3, 11.0), (400, 0, 900)))
        expected = [reference_loglik(alpha, x).hex() for alpha, x in cases]
        reference._parameter_loggamma.cache_clear()
        reference._ln_tables.cache_clear()
        reference._series_tables.cache_clear()
        monkeypatch.setattr(decimal.DefaultContext, "prec", 3)
        monkeypatch.setattr(decimal.DefaultContext, "rounding", decimal.ROUND_DOWN)
        monkeypatch.setattr(decimal.DefaultContext, "Emax", 10)
        monkeypatch.setitem(decimal.DefaultContext.traps, decimal.Inexact, True)
        fresh = contextvars.Context()
        got = fresh.run(lambda: [reference_loglik(alpha, x).hex() for alpha, x in cases])
        assert got == expected
        assert [var.name for var in fresh] == []

    def test_loggamma_rounds_to_nearest_whatever_the_default_rounding(self, monkeypatch):
        # the last of the working digits, which the guard digits hide from
        # every float: a context that took the default's rounding, in the
        # log-gamma or in its tables, would round some of them another way
        zs = ("1e-30", "0.25", "1.5", "2.75", "9.5", "1234.5", "1e12")

        def last_digits():
            reference._ln_tables.cache_clear()
            reference._series_tables.cache_clear()
            ctx = reference._context(45)
            return [ctx.to_sci_string(reference._loggamma(ctx.create_decimal(z), ctx)) for z in zs]

        expected = last_digits()
        for rounding in (decimal.ROUND_DOWN, decimal.ROUND_UP, decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            monkeypatch.setattr(decimal.DefaultContext, "rounding", rounding)
            assert last_digits() == expected, rounding

    def test_the_parameter_total_is_rounded_once(self, monkeypatch):
        # at the working precision, 5.5 + 4.6 rounded and then + 0.3 rounded
        # is one unit in the last digit below the exact sum rounded once
        alpha = (5.5, 4.6, 0.3)
        rises = []
        real = reference._loggamma_rise

        def recorded(a, n, ctx):
            rises.append((a, n, ctx.prec))
            return real(a, n, ctx)

        monkeypatch.setattr(reference, "_loggamma_rise", recorded)
        reference_loglik(alpha, (1, 2, 3))
        a_sum, n, prec = rises[-1]
        assert n == 6
        ctx = reference._context(prec)
        a = [ctx.create_decimal_from_float(a_k) for a_k in alpha]
        exact = decimal.Context(prec=3 * prec, rounding=decimal.ROUND_HALF_EVEN)
        once = ctx.plus(exact.add(exact.add(a[0], a[1]), a[2]))
        per_addition = ctx.add(ctx.add(a[0], a[1]), a[2])
        assert ctx.to_sci_string(once) != ctx.to_sci_string(per_addition)
        assert ctx.to_sci_string(a_sum) == ctx.to_sci_string(once)


class TestRisingProduct:
    """A rise of a count up to the shift bound is the ``ln`` of the rising
    product: no log-gamma, and no table of Stirling's series."""

    def test_a_small_rise_takes_no_log_gamma_and_no_series(self, monkeypatch):
        cases = [((1e-300, 1.0), (0, 5)), ((5e-324, 1.0), (3, 2)), ((1e300, 2.0), (3, 4))]
        expected = [reference_loglik(alpha, x).hex() for alpha, x in cases]

        def no_log_gamma(*args):
            raise AssertionError("a small rise reached a log-gamma")

        monkeypatch.setattr(reference, "_loggamma", no_log_gamma)
        monkeypatch.setattr(reference, "_parameter_loggamma", no_log_gamma)
        reference._series_tables.cache_clear()
        assert [reference_loglik(alpha, x).hex() for alpha, x in cases] == expected
        ctx = reference._context(60)
        bound = reference._shift_bound(60 + reference._GUARD_DIGITS)
        reference._loggamma_rise(ctx.create_decimal("0.7"), bound, ctx)
        assert reference._series_tables.cache_info().currsize == 0
        with pytest.raises(AssertionError, match="log-gamma"):
            reference._loggamma_rise(ctx.create_decimal("0.7"), bound + 1, ctx)

    @pytest.mark.parametrize("a", [5e-324, 1e-300, 0.7, 1.0, 19.9, 1e300])
    def test_agrees_with_the_log_gamma_difference(self, a):
        # to a unit or two in the last working digit of the larger log-gamma,
        # on both sides of the bound; 45 digits past that log-gamma's integer part
        prec = 45 + math.ceil(math.log10(max(1.0, abs(math.lgamma(a)))))
        ctx = reference._context(prec)
        bound = reference._shift_bound(prec + reference._GUARD_DIGITS)
        a = ctx.create_decimal_from_float(a)
        low = reference._loggamma(a, ctx)
        for n in (1, 2, bound - 1, bound, bound + 1):
            top = reference._loggamma(ctx.add(a, n), ctx)
            rise = reference._loggamma_rise(a, n, ctx)
            units = ctx.scaleb(2, max(low.adjusted(), top.adjusted(), 0) + 1 - prec)
            assert ctx.copy_abs(ctx.subtract(rise, ctx.subtract(top, low))) <= units, n


class TestWalkOracle:
    """The log-gamma reference returns the float of the 40-digit log walk."""

    @pytest.mark.parametrize("cfg", [accuracy_defaults(), runtime_defaults()])
    def test_default_grids(self, cfg):
        alpha = cfg.alpha()
        for n in cfg.n_values:
            x = cfg.counts_at(n)
            assert reference_loglik(alpha, x).hex() == walk_reference(alpha, x).hex(), n

    def test_seeded_sample(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 11))
            alpha = random_alpha(rng, k, lo=0.01, hi=100.0)
            x = random_counts(rng, k, n_max=10_000)
            assert reference_loglik(alpha, x).hex() == walk_reference(alpha, x).hex(), (
                alpha, x
            )

    @pytest.mark.parametrize(
        "alpha, x",
        [
            # logGamma(A + N) is about 7e302 and 1e311: 40 digits alone cancel to noise
            ((1e300, 2.0), (3, 4)),
            ((8e307, 8e307), (2, 1)),
            ((5e-324, 1.0), (3, 2)),
            ((1e-300, 1e-300, 3.0), (0, 5, 9)),
        ],
    )
    def test_extremes(self, alpha, x):
        assert reference_loglik(alpha, x).hex() == walk_reference(alpha, x).hex()

    @pytest.mark.parametrize("n", [10**6, 10**9, 2**38])
    def test_large_totals_hold_at_more_digits(self, monkeypatch, n):
        # past the walk's reach (2^38 * 4 is the budget): the float must not
        # move when the working precision gains 20 digits, and it does gain
        # them: a call's first context is its working precision
        cfg = accuracy_defaults(n_values=(n,))
        alpha, x = cfg.alpha(), cfg.counts_at(n)
        precs = []
        real = reference._context

        def spied(prec):
            precs.append(prec)
            return real(prec)

        monkeypatch.setattr(reference, "_context", spied)
        value = reference_loglik(alpha, x)
        low = precs[0]
        del precs[:]
        monkeypatch.setattr(reference, "REFERENCE_DPS", reference.REFERENCE_DPS + 20)
        assert reference_loglik(alpha, x).hex() == value.hex()
        assert precs[0] == low + 20


#: The points TestReference and TestWalkOracle pin, the extremes among them:
#: a subnormal or huge alpha_k, a result near the least alpha_k, and totals
#: past the walk's reach.
ORACLE_POINTS = [
    ((1.0, 1.0), (1, 1)),
    ((3.0, 0.5), (0, 0)),
    ((0.7, 2.3, 11.0), (4, 0, 9)),
    ((1e-30, 1.0), (0, 5)),
    ((1e-300, 1.0), (0, 5)),
    ((1e300, 2.0), (3, 4)),
    ((8e307, 8e307), (2, 1)),
    ((5e-324, 1.0), (3, 2)),
    ((1e-300, 1e-300, 3.0), (0, 5, 9)),
    *(
        (accuracy_defaults(n_values=(n,)).alpha(), accuracy_defaults(n_values=(n,)).counts_at(n))
        for n in (10**6, 10**9, 2**38)
    ),
]


class TestMpmathOracle:
    """The decimal reference returns the float of the mpmath one
    (``conftest.mpmath_reference``), an independent log-gamma."""

    @pytest.mark.parametrize("cfg", [accuracy_defaults(), runtime_defaults()])
    def test_default_grids(self, cfg):
        alpha = cfg.alpha()
        for n in cfg.n_values:
            x = cfg.counts_at(n)
            assert reference_loglik(alpha, x).hex() == mpmath_reference(alpha, x).hex(), n

    def test_seeded_sample(self, rng):
        for _ in range(1000):
            k = int(rng.integers(1, 11))
            alpha = random_alpha(rng, k, lo=1e-3, hi=1e6)
            x = random_counts(rng, k, n_max=10**6)
            assert reference_loglik(alpha, x).hex() == mpmath_reference(alpha, x).hex(), (
                alpha, x
            )

    @pytest.mark.parametrize("alpha, x", ORACLE_POINTS)
    def test_pinned_points(self, alpha, x):
        assert reference_loglik(alpha, x).hex() == mpmath_reference(alpha, x).hex()

    @pytest.mark.parametrize("prec", [45, 120, 350])
    def test_loggamma_keeps_its_working_digits(self, prec):
        # what the floats above cannot see: the log-gamma is good to a unit in
        # the last of its prec digits of max(|loggamma(z)|, 1), so the
        # reference works at the precision it sizes
        import mpmath

        ctx = reference._context(prec)
        for z in ("5e-324", "1e-30", "0.25", "1", "1.5", "2", "2.75", "9.5", "1234.5", "1e12", "1e300"):
            value = reference._loggamma(ctx.create_decimal(z), ctx)
            with mpmath.workdps(prec + 20):
                exact = mpmath.loggamma(mpmath.mpf(z))
                unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(max(abs(exact), 1))) + 1 - prec)
                assert abs(mpmath.mpf(str(value)) - exact) <= unit, z


class TestParameterMemo:
    """Each parameter's log-gamma (every a_k, and A) is evaluated once per
    value and precision, however many points share it.  The counts are past
    the shift bound, where a rise is a difference of log-gammas."""

    @pytest.fixture
    def loggamma_precs(self, monkeypatch):
        """The precision of every ``reference._loggamma`` call, from an empty memo."""
        precs = []
        real = reference._loggamma

        def counted(z, ctx):
            precs.append(ctx.prec)
            return real(z, ctx)

        monkeypatch.setattr(reference, "_loggamma", counted)
        reference._parameter_loggamma.cache_clear()
        yield precs
        reference._parameter_loggamma.cache_clear()

    def test_a_sweep_evaluates_each_parameter_once(self, loggamma_precs):
        # five points, every x_k > 0, all at one working precision
        cfg = accuracy_defaults(n_values=(100, 101, 102, 103, 104))
        run_accuracy_experiment(cfg)
        k, points = len(cfg.p), len(cfg.n_values)
        assert len(set(loggamma_precs)) == 1
        # K + 1 parameters once, then loggamma(a_k + x_k) and loggamma(A + N) per point
        assert len(loggamma_precs) == (k + 1) + points * (k + 1)

    def test_a_warm_call_returns_the_cold_value(self, loggamma_precs):
        alpha, x = (0.7, 2.3, 11.0), (400, 0, 900)
        cold = reference_loglik(alpha, x)
        assert len(loggamma_precs) == 2 * 3
        warm = reference_loglik(alpha, x)
        assert len(loggamma_precs) == 2 * 3 + 3
        assert warm.hex() == cold.hex()

    def test_a_higher_precision_is_evaluated_anew(self, monkeypatch, loggamma_precs):
        alpha, x = (1e300, 2.0), (1000, 2000)
        reference_loglik(alpha, x)
        low = loggamma_precs[0]
        monkeypatch.setattr(reference, "REFERENCE_DPS", reference.REFERENCE_DPS + 20)
        del loggamma_precs[:]
        high = reference_loglik(alpha, x)
        # both a_k, A and the three rises again, none at the lower precision
        assert len(loggamma_precs) == 2 * 3
        assert min(loggamma_precs) > low
        reference._parameter_loggamma.cache_clear()
        assert reference_loglik(alpha, x).hex() == high.hex()


class TestReferenceUnderThreads:
    def test_concurrent_calls_return_the_single_thread_floats(self):
        # working precisions from about 45 to about 340 digits, interleaved:
        # a call that ran at another call's precision returns another float
        cases = [((10.0 ** -e, 1.0), (0, 5)) for e in range(0, 301, 40)]
        cases += [((10.0 ** -e, 1.0, 3.0), (1, 4, 9)) for e in range(20, 301, 40)]
        cases += [((8e307, 8e307), (2, 1)), ((0.7, 2.3, 11.0), (4, 0, 9))]
        expected = [reference_loglik(alpha, x).hex() for alpha, x in cases]
        threads = (os.cpu_count() or 1) + 4
        rounds = max(1, 24 // threads)  # about 400 calls in all on a small machine
        wrong, errors = [], []

        def work(shift):
            try:
                order = cases[shift:] + cases[:shift]
                want = expected[shift:] + expected[:shift]
                for _ in range(rounds):
                    for (alpha, x), hex_value in zip(order, want):
                        got = reference_loglik(alpha, x).hex()
                        if got != hex_value:
                            wrong.append((alpha, x, got, hex_value))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=work, args=(i % len(cases),)) for i in range(threads)
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        if errors:
            raise errors[0]
        assert wrong == []
