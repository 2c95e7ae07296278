"""Tests for the reference evaluator, sweep machinery, and serialization."""

import contextvars
import dataclasses
import decimal
import inspect
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

from dmnll import (
    BenchRecord,
    CountVector,
    DimensionMismatchError,
    DomainError,
    ExperimentConfig,
    Method,
    ResourceLimitError,
    accuracy_defaults,
    bench,
    dmn_loglik_exact,
    reference_loglik,
    run_accuracy_experiment,
    run_runtime_experiment,
    runtime_defaults,
)
from dmnll.bench import (
    CSV_HEADER,
    DEFAULT_EVALS_PER_POINT,
    DEFAULT_N_GRID,
    DEFAULT_REPEATS,
    canonical_json,
    records_to_csv,
    records_to_json,
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

        monkeypatch.setattr(bench, "_loggamma", no_arithmetic)
        monkeypatch.setattr(bench, "_ln", no_arithmetic)
        with pytest.raises(DimensionMismatchError):
            reference_loglik((1.0, 2.0), (1, 2, 3))
        with pytest.raises(ResourceLimitError) as reference:
            reference_loglik((1.0,), huge)
        assert str(reference.value) == str(per_row.value)

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
        assert bench._tangent_numbers(7) == (1, 2, 16, 272, 7936, 353792, 22368256)
        assert bench._tangent_numbers(3) == (1, 2, 16)
        coefficients, _, _ = bench._series_tables(60)
        ctx = bench._context(60)
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

        coefficients, _, cuts = bench._series_tables(prec)
        bound, n = bench._shift_bound(prec), len(coefficients)
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
        ctx = bench._context(prec - bench._GUARD_DIGITS)
        for z in (bound, "1e300"):
            value = bench._loggamma(ctx.create_decimal(z), ctx)
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
        bench._parameter_loggamma.cache_clear()
        bench._ln_tables.cache_clear()
        bench._series_tables.cache_clear()
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
            bench._ln_tables.cache_clear()
            bench._series_tables.cache_clear()
            ctx = bench._context(45)
            return [ctx.to_sci_string(bench._loggamma(ctx.create_decimal(z), ctx)) for z in zs]

        expected = last_digits()
        for rounding in (decimal.ROUND_DOWN, decimal.ROUND_UP, decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
            monkeypatch.setattr(decimal.DefaultContext, "rounding", rounding)
            assert last_digits() == expected, rounding

    def test_the_parameter_total_is_rounded_once(self, monkeypatch):
        # at the working precision, 5.5 + 4.6 rounded and then + 0.3 rounded
        # is one unit in the last digit below the exact sum rounded once
        alpha = (5.5, 4.6, 0.3)
        rises = []
        real = bench._loggamma_rise

        def recorded(a, n, ctx):
            rises.append((a, n, ctx.prec))
            return real(a, n, ctx)

        monkeypatch.setattr(bench, "_loggamma_rise", recorded)
        reference_loglik(alpha, (1, 2, 3))
        a_sum, n, prec = rises[-1]
        assert n == 6
        ctx = bench._context(prec)
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

        monkeypatch.setattr(bench, "_loggamma", no_log_gamma)
        monkeypatch.setattr(bench, "_parameter_loggamma", no_log_gamma)
        bench._series_tables.cache_clear()
        assert [reference_loglik(alpha, x).hex() for alpha, x in cases] == expected
        ctx = bench._context(60)
        bound = bench._shift_bound(60 + bench._GUARD_DIGITS)
        bench._loggamma_rise(ctx.create_decimal("0.7"), bound, ctx)
        assert bench._series_tables.cache_info().currsize == 0
        with pytest.raises(AssertionError, match="log-gamma"):
            bench._loggamma_rise(ctx.create_decimal("0.7"), bound + 1, ctx)

    @pytest.mark.parametrize("a", [5e-324, 1e-300, 0.7, 1.0, 19.9, 1e300])
    def test_agrees_with_the_log_gamma_difference(self, a):
        # to a unit or two in the last working digit of the larger log-gamma,
        # on both sides of the bound; 45 digits past that log-gamma's integer part
        prec = 45 + math.ceil(math.log10(max(1.0, abs(math.lgamma(a)))))
        ctx = bench._context(prec)
        bound = bench._shift_bound(prec + bench._GUARD_DIGITS)
        a = ctx.create_decimal_from_float(a)
        low = bench._loggamma(a, ctx)
        for n in (1, 2, bound - 1, bound, bound + 1):
            top = bench._loggamma(ctx.add(a, n), ctx)
            rise = bench._loggamma_rise(a, n, ctx)
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
        # move when the working precision gains 20 digits
        cfg = accuracy_defaults(n_values=(n,))
        alpha, x = cfg.alpha(), cfg.counts_at(n)
        value = reference_loglik(alpha, x)
        monkeypatch.setattr(bench, "REFERENCE_DPS", bench.REFERENCE_DPS + 20)
        assert reference_loglik(alpha, x).hex() == value.hex()


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

        ctx = bench._context(prec)
        for z in ("5e-324", "1e-30", "0.25", "1", "1.5", "2", "2.75", "9.5", "1234.5", "1e12", "1e300"):
            value = bench._loggamma(ctx.create_decimal(z), ctx)
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
        """The precision of every ``bench._loggamma`` call, from an empty memo."""
        precs = []
        real = bench._loggamma

        def counted(z, ctx):
            precs.append(ctx.prec)
            return real(z, ctx)

        monkeypatch.setattr(bench, "_loggamma", counted)
        bench._parameter_loggamma.cache_clear()
        yield precs
        bench._parameter_loggamma.cache_clear()

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
        monkeypatch.setattr(bench, "REFERENCE_DPS", bench.REFERENCE_DPS + 20)
        del loggamma_precs[:]
        high = reference_loglik(alpha, x)
        # both a_k, A and the three rises again, none at the lower precision
        assert len(loggamma_precs) == 2 * 3
        assert min(loggamma_precs) > low
        bench._parameter_loggamma.cache_clear()
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


class TestConfig:
    def test_defaults(self):
        cfg = accuracy_defaults()
        assert cfg.n_values == (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)
        assert cfg.repeats == 11
        assert cfg.evaluations_per_point == 100

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.0)  # phi must be > 0
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, n_values=(10, 5))
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, repeats=2)
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1, 1), (0.5, 0.5), 0.1)
        with pytest.raises(DomainError):
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, n_values=())

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ({"n_values": [0.5, 1.7]}, "n_values must be an integer, got 0.5"),
            ({"n_values": "12"}, "n_values must be an integer, got '1'"),
            ({"n_values": [1, math.nan]}, "n_values must be an integer, got nan"),
            ({"n_values": None}, "n_values must be a sequence of integers, got None"),
            ({"repeats": 3.9}, "repeats must be an integer, got 3.9"),
            ({"repeats": "5"}, "repeats must be an integer, got '5'"),
            ({"evaluations_per_point": None}, "evaluations_per_point must be an integer, got None"),
            # an integer out of range keeps its message
            ({"n_values": [-1, 2]}, "n_values must be non-negative"),
            ({"repeats": -1}, "repeats must be >= 3, got -1"),
            ({"evaluations_per_point": 0}, "evaluations_per_point must be >= 1"),
        ],
    )
    def test_a_size_that_is_not_an_integer_is_a_domain_error(self, sizes, message):
        # no size is truncated, and no bad one escapes as another error type
        with pytest.raises(DomainError) as info:
            ExperimentConfig((1, 1), (0.5, 0.5), 0.1, **sizes)
        assert str(info.value) == message

    def test_integer_sizes_are_kept_as_plain_ints(self):
        cfg = ExperimentConfig(
            (1, 1), (0.5, 0.5), 0.1, n_values=np.arange(1, 3), repeats=np.int64(3),
            evaluations_per_point=np.int32(2),
        )
        assert (cfg.n_values, cfg.repeats, cfg.evaluations_per_point) == ((1, 2), 3, 2)
        assert {type(n) for n in (*cfg.n_values, cfg.repeats, cfg.evaluations_per_point)} == {int}
        json.loads(records_to_json(run_accuracy_experiment(cfg)))

    def test_signature(self):
        keyword = inspect.Parameter.POSITIONAL_OR_KEYWORD
        empty = inspect.Parameter.empty
        assert [
            (p.name, p.kind, p.default)
            for p in inspect.signature(ExperimentConfig).parameters.values()
        ] == [
            ("base_counts", keyword, empty),
            ("p", keyword, empty),
            ("phi", keyword, empty),
            ("n_values", keyword, DEFAULT_N_GRID),
            ("repeats", keyword, DEFAULT_REPEATS),
            ("evaluations_per_point", keyword, DEFAULT_EVALS_PER_POINT),
        ]

    def test_positional_and_keyword_construction_agree(self):
        args = ((1, 2), (0.25, 0.75), 0.1, (0, 4), 5, 6)
        names = [p.name for p in inspect.signature(ExperimentConfig).parameters.values()]
        assert ExperimentConfig(*args) == ExperimentConfig(**dict(zip(names, args)))

    def test_replace_validates_and_normalizes(self):
        cfg = accuracy_defaults()
        with pytest.raises(DomainError) as info:
            dataclasses.replace(cfg, repeats=2)
        assert str(info.value) == "repeats must be >= 3, got 2"
        grid = dataclasses.replace(cfg, n_values=np.arange(1, 3)).n_values
        assert grid == (1, 2)
        assert {type(n) for n in grid} == {int}

    def test_largest_point_is_checked_at_construction(self):
        # counts of 2^62 sum to 2^64, past the budget; 2 * 2^62 is past 64 bits
        with pytest.raises(ResourceLimitError, match="evaluator budget"):
            accuracy_defaults(n_values=(1, 2**62))
        with pytest.raises(DomainError, match="does not fit in 64 bits"):
            runtime_defaults(n_values=(1, 2**62))

    @pytest.mark.parametrize("sweep", [run_accuracy_experiment, run_runtime_experiment])
    @pytest.mark.parametrize("cfg", [None, (1, 2, 5), "accuracy"])
    def test_a_sweep_refuses_what_is_not_a_config(self, sweep, cfg):
        with pytest.raises(DomainError) as info:
            sweep(cfg)
        assert str(info.value) == f"a sweep needs an ExperimentConfig, got {cfg!r}"

    def test_counts_scaling(self):
        cfg = runtime_defaults()
        assert cfg.counts_at(10).counts == (10, 20, 30)
        assert cfg.counts_at(0).total == 0


@pytest.fixture(scope="module")
def small_accuracy():
    cfg = accuracy_defaults(n_values=(1, 2, 5), repeats=3, evaluations_per_point=3)
    return cfg, run_accuracy_experiment(cfg)


class TestExperiments:
    def test_record_layout(self, small_accuracy):
        cfg, records = small_accuracy
        assert len(records) == 2 * len(cfg.n_values)
        assert [r.n_scale for r in records] == [1, 1, 2, 2, 5, 5]
        assert {r.method for r in records} == {Method.EXACT, Method.LOG_GAMMA}

    def test_exact_errors_are_tiny(self, small_accuracy):
        _, records = small_accuracy
        for r in records:
            if r.method is Method.EXACT:
                assert r.abs_error <= 1e-12

    def test_terms_track_cost_model(self, small_accuracy):
        _, records = small_accuracy
        for r in records:
            if r.method is Method.EXACT:
                assert r.terms == 2 * 4 * r.n_scale  # N = 4n, terms = 2N
            else:
                assert r.terms == 2 * 4 + 2

    def test_wall_time_positive(self, small_accuracy):
        _, records = small_accuracy
        assert all(r.wall_time_ns > 0 for r in records)

    def test_deterministic_apart_from_wall_time(self):
        cfg = accuracy_defaults(n_values=(1, 5), repeats=3, evaluations_per_point=3)
        a = run_accuracy_experiment(cfg)
        b = run_accuracy_experiment(cfg)
        key = lambda recs: [(r.n_scale, r.method, r.abs_error, r.rel_error, r.terms) for r in recs]
        assert key(a) == key(b)

    def test_runtime_terms_double_with_n(self):
        cfg = runtime_defaults(n_values=(10, 20), repeats=3, evaluations_per_point=3)
        records = run_runtime_experiment(cfg)
        exact = {r.n_scale: r.terms for r in records if r.method is Method.EXACT}
        assert exact[20] == 2 * exact[10]

    def test_n_zero_rows_have_zero_error(self):
        cfg = accuracy_defaults(n_values=(0, 1), repeats=3, evaluations_per_point=3)
        records = run_accuracy_experiment(cfg)
        for r in records:
            if r.n_scale == 0:
                assert r.abs_error == 0.0
                assert r.wall_time_ns > 0

    @pytest.mark.parametrize(
        "samples",
        [[7], [3, 1, 2], [5, 1, 4, 2], [9, 9, 1, 1], [2, 1], [4, 8, 15, 16, 23, 42],
         [1_000_000_007, 3, 1_000_000_008, 5, 5], [0.5, 0.25, 0.125]],
    )
    def test_median_is_statistics_median(self, samples):
        import statistics  # the oracle; dmnll.bench does not load it

        assert bench._median(samples) == statistics.median(samples)
        assert type(bench._median(samples)) is type(statistics.median(samples))


class TestSerialization:
    def test_record_invariants(self):
        with pytest.raises(DomainError):
            BenchRecord(1, Method.EXACT, -1.0, 0.0, 10, 4)
        with pytest.raises(DomainError):
            BenchRecord(1, Method.EXACT, 0.0, 0.0, 0, 4)

    def test_numpy_sizes_are_kept_as_plain_ints(self):
        record = BenchRecord(np.int64(1), Method.EXACT, 1e-15, 2e-16, np.int64(5), np.int64(8))
        assert [type(v) for v in (record.n_scale, record.wall_time_ns, record.terms)] == [int] * 3
        assert json.loads(records_to_json([record]))["records"][0]["terms"] == 8
        assert records_to_csv([record]).splitlines()[1] == "1,exact,1e-15,2e-16,5,8"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1.5, Method.EXACT, 0.0, 0.0, 5, 8), "n_scale must be an integer, got 1.5"),
            ((1, Method.EXACT, 0.0, 0.0, 5, 8.0), "terms must be an integer, got 8.0"),
            ((1, Method.EXACT, 0.0, 0.0, 5.0, 8), "wall_time_ns must be an integer, got 5.0"),
            ((-1, Method.EXACT, 0.0, 0.0, 5, 8), "n_scale must be >= 0, got -1"),
            ((1, "exact", 0.0, 0.0, 5, 8), "method must be a Method, got 'exact'"),
            ((1, None, 0.0, 0.0, 5, 8), "method must be a Method, got None"),
        ],
    )
    def test_a_field_of_the_wrong_kind_is_a_domain_error(self, fields, message):
        with pytest.raises(DomainError) as info:
            BenchRecord(*fields)
        assert str(info.value) == message

    def test_csv_layout(self):
        records = [
            BenchRecord(1, Method.EXACT, 1e-15, 1e-16, 123, 8),
            BenchRecord(1, Method.LOG_GAMMA, 2e-13, 2e-14, 456, 10),
        ]
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1,exact,1e-15,1e-16,123,8"
        assert len(lines) == 3

    def test_json_schema_and_roundtrip(self):
        records = [BenchRecord(2, Method.EXACT, 1e-14, 1e-15, 99, 16)]
        text = records_to_json(records)
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert doc["records"][0]["method"] == "exact"
        assert doc["records"][0]["n"] == 2
        # canonical form re-encodes byte for byte
        assert canonical_json(doc) == text

    @pytest.mark.parametrize(
        "sweep, cfg",
        [
            (run_accuracy_experiment, accuracy_defaults(n_values=(0, 1, 7), repeats=3)),
            (run_runtime_experiment, runtime_defaults(n_values=(1, 2), repeats=3,
                                                      evaluations_per_point=2)),
        ],
    )
    def test_both_formats_carry_the_same_records(self, sweep, cfg):
        records = sweep(cfg)
        header, *rows = records_to_csv(records).splitlines()
        names = header.split(",")
        docs = json.loads(records_to_json(records))["records"]
        assert len(rows) == len(docs) == len(records)
        for row, doc in zip(rows, docs):
            assert set(names) == set(doc)
            assert row.split(",") == [str(doc[name]) for name in names]

    @pytest.mark.parametrize("serialize", [records_to_csv, records_to_json])
    @pytest.mark.parametrize(
        "records, message",
        [
            (None, "records must be a sequence of BenchRecord, got None"),
            (3, "records must be a sequence of BenchRecord, got 3"),
            ([{"n": 1}], "records must hold BenchRecord items, got {'n': 1}"),
            ([BenchRecord(1, Method.EXACT, 0.0, 0.0, 1, 2), None],
             "records must hold BenchRecord items, got None"),
        ],
    )
    def test_records_it_cannot_read_are_a_domain_error(self, serialize, records, message):
        with pytest.raises(DomainError) as info:
            serialize(records)
        assert str(info.value) == message


class TestOneEvaluationPerPoint:
    def test_accuracy_calls_each_evaluator_once_per_point(self, monkeypatch):
        calls = []
        for method, func in list(bench._METHOD_FUNCS.items()):
            def counted(alpha, x, _func=func, _method=method):
                calls.append((_method, x.total))
                return _func(alpha, x)

            monkeypatch.setitem(bench._METHOD_FUNCS, method, counted)
        cfg = accuracy_defaults(n_values=(0, 3), repeats=3)
        records = run_accuracy_experiment(cfg)
        assert calls == [
            (Method.EXACT, 0), (Method.LOG_GAMMA, 0),
            (Method.EXACT, 12), (Method.LOG_GAMMA, 12),
        ]
        assert all(r.wall_time_ns >= 1 for r in records)

    def test_sweeps_agree_apart_from_wall_time(self):
        cfg = accuracy_defaults(n_values=(0, 1, 5, 50), repeats=3, evaluations_per_point=3)
        key = lambda recs: [
            (r.n_scale, r.method, r.abs_error, r.rel_error, r.terms) for r in recs
        ]
        assert key(run_accuracy_experiment(cfg)) == key(run_runtime_experiment(cfg))
