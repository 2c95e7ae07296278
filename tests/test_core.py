"""Unit tests for the core types and evaluators, with frozen expected values.

Expected numbers were computed independently: closed forms by hand, the
log-gamma formula via math.lgamma, and full PMFs via enumeration and
scipy.stats cross-checks.
"""

import math
import struct

import numpy as np
import pytest
from scipy import stats

from dmnll import (
    AlphaParams,
    CountVector,
    DimensionMismatchError,
    DmnError,
    DomainError,
    LogLikResult,
    MeanPhiParams,
    Method,
    ResourceLimitError,
    dmn_log_pmf,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    dmn_loglik_phi,
    dmn_loglik_rows,
    log_multinomial_coef,
    mn_log_pmf,
    mn_loglik_kernel,
    params_from_mean_phi,
)
from dmnll import core
from dmnll.core import MAX_TOTAL_COUNT

NEG_INF = float("-inf")


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class TestCountVector:
    def test_total_is_exact_sum(self):
        x = CountVector([3, 0, 7])
        assert x.total == 10
        assert x.counts == (3, 0, 7)
        assert len(x) == 3

    def test_explicit_total_checked(self):
        assert CountVector([1, 2], total=3).total == 3
        with pytest.raises(DomainError):
            CountVector([1, 2], total=4)

    def test_rejects_bad_counts(self):
        with pytest.raises(DomainError):
            CountVector([])
        with pytest.raises(DomainError):
            CountVector([-1, 2])
        with pytest.raises(DomainError):
            CountVector([1.5, 2])
        with pytest.raises(DomainError):
            CountVector([1 << 64])

    def test_accepts_numpy_integers(self):
        import numpy as np

        x = CountVector(np.array([2, 5], dtype=np.int64))
        assert x.counts == (2, 5)


class TestAlphaParams:
    def test_sum_is_cached(self):
        a = AlphaParams([0.5, 2.0, 3.0])
        assert a.sum_a == math.fsum([0.5, 2.0, 3.0])
        assert len(a) == 3

    def test_rejects_nonpositive_and_nonfinite(self):
        for bad in ([0.0, 1.0], [-1.0], [float("inf"), 1.0], [float("nan")], []):
            with pytest.raises(DomainError):
                AlphaParams(bad)

    def test_overflowing_sum_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            AlphaParams([1e308, 1e308])


class TestMeanPhiParams:
    def test_valid(self):
        mp = MeanPhiParams([0.25, 0.75], 0.1)
        assert mp.p == (0.25, 0.75)
        assert mp.phi == 0.1

    def test_simplex_tolerance(self):
        with pytest.raises(DomainError):
            MeanPhiParams([0.25, 0.74], 0.1)
        # a sub-1e-12 defect is accepted
        MeanPhiParams([0.25, 0.75 + 1e-13], 0.1)

    def test_never_renormalizes_silently(self):
        with pytest.raises(DomainError):
            MeanPhiParams([1.0, 1.0], 0.1)
        mp = MeanPhiParams([1.0, 1.0], 0.1, renormalize=True)
        assert mp.p == (0.5, 0.5)

    def test_phi_range(self):
        MeanPhiParams([1.0], 0.0)
        for bad in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(DomainError):
                MeanPhiParams([1.0], bad)

    def test_overflowing_sum_is_a_domain_error(self):
        for renormalize in (False, True):
            with pytest.raises(DomainError, match="overflows"):
                MeanPhiParams([1e308, 1e308], 0.1, renormalize=renormalize)

    def test_rejects_negative_probability(self):
        with pytest.raises(DomainError):
            MeanPhiParams([1.2, -0.2], 0.1)


def test_loglik_result_rejects_nan():
    with pytest.raises(DmnError):
        LogLikResult(float("nan"), Method.EXACT, 0)


# ---------------------------------------------------------------------------
# dmn_loglik_exact
# ---------------------------------------------------------------------------


class TestExact:
    def test_unit_alpha_pair(self):
        # numerator log1 + log1 = 0, denominator log2 + log3
        res = dmn_loglik_exact((1, 1), (1, 1))
        assert res.value == pytest.approx(-math.log(6), abs=1e-12)
        assert res.method is Method.EXACT
        assert res.terms == 4

    def test_integer_alpha_case(self):
        # numerator log2 + log3 + log4, denominator log5 + log6 + log7
        res = dmn_loglik_exact((2, 3), (1, 2))
        assert res.value == pytest.approx(math.log(4 / 35), abs=1e-12)

    def test_all_zero_counts(self):
        assert dmn_loglik_exact((0.3, 4.2), (0, 0)).value == 0.0

    def test_single_category_is_exactly_zero(self):
        for a, n in ((1.0, 0), (0.37, 5), (123.456, 1000)):
            res = dmn_loglik_exact((a,), (n,))
            assert res.value == 0.0

    def test_terms_counts_every_log(self):
        res = dmn_loglik_exact((1.0, 2.0, 3.0), (4, 0, 6))
        assert res.terms == 10 + 10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dmn_loglik_exact((1.0, 2.0), (1, 2, 3))

    def test_resource_limit(self):
        huge = CountVector([MAX_TOTAL_COUNT + 1])
        with pytest.raises(ResourceLimitError):
            dmn_loglik_exact((1.0,), huge)
        # the O(K) baseline has no such budget
        assert dmn_loglik_lgamma((1.0,), huge).value == 0.0


class TestRows:
    def test_empty_table(self):
        assert dmn_loglik_rows((1.0, 2.0), []) == []

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dmn_loglik_rows((1.0, 2.0), [(1, 2), (1, 2, 3)])

    @pytest.fixture
    def walked(self, monkeypatch):
        """The levels of every compensated walk in ``dmnll.core``, in call order."""
        seen = []
        walk = core._sum_terms

        def spy(term, start, step, levels):
            levels = list(levels)
            seen.append(levels)
            return walk(term, start, step, levels)

        monkeypatch.setattr(core, "_sum_terms", spy)
        return seen

    def test_resource_limit_before_any_pass(self, walked):
        huge = CountVector([MAX_TOTAL_COUNT + 1])
        with pytest.raises(ResourceLimitError) as per_row:
            dmn_loglik_exact((1.0,), huge)
        for params in ((1.0,), MeanPhiParams((1.0,), 0.5)):
            with pytest.raises(ResourceLimitError) as batched:
                dmn_loglik_rows(params, [CountVector([10**6]), huge])
            assert str(batched.value) == str(per_row.value)
        assert walked == []

    def test_no_walk_past_an_impossible_category(self, walked):
        # The per-row call ends the first row at its observed zero-probability
        # category, so no walk needs its second count.
        mp = MeanPhiParams((0.0, 1.0), 0.5)
        rows = [(1, 10**6), (0, 3)]
        assert dmn_loglik_rows(mp, rows) == [dmn_loglik_phi(mp, x) for x in rows]
        assert max(n for levels in walked for n in levels) == 3


# ---------------------------------------------------------------------------
# dmn_loglik_lgamma
# ---------------------------------------------------------------------------


class TestLogGamma:
    def test_matches_exact_on_unit_case(self):
        res = dmn_loglik_lgamma((1, 1), (1, 1))
        assert res.value == pytest.approx(-math.log(6), abs=1e-12)
        assert res.method is Method.LOG_GAMMA
        assert res.terms == 6

    def test_zero_counts(self):
        assert dmn_loglik_lgamma((2, 3), (0, 0)).value == 0.0

    def test_overflow_is_a_domain_error(self):
        # lgamma(2e307) overflows a float; the exact route handles the input
        with pytest.raises(DomainError, match="exact route"):
            dmn_loglik_lgamma([1e307, 1e307], [1, 1])
        assert math.isfinite(dmn_loglik_exact([1e307, 1e307], [1, 1]).value)

    def test_agrees_with_exact_for_fractional_alpha(self):
        a, x = (0.5, 0.5), (2, 1)
        assert dmn_loglik_lgamma(a, x).value == pytest.approx(
            dmn_loglik_exact(a, x).value, abs=1e-10
        )


# ---------------------------------------------------------------------------
# params_from_mean_phi / dmn_loglik_phi
# ---------------------------------------------------------------------------


class TestMeanPhiMapping:
    def test_balanced_half(self):
        a = params_from_mean_phi(MeanPhiParams((0.5, 0.5), 0.5))
        assert a.alpha == pytest.approx((0.5, 0.5), rel=1e-15)

    def test_accuracy_sweep_parameters(self):
        a = params_from_mean_phi(MeanPhiParams((0.1, 0.2, 0.3, 0.4), 1 / 200))
        assert a.alpha == pytest.approx((19.9, 39.8, 59.7, 79.6), rel=1e-14)

    def test_runtime_sweep_total(self):
        a = params_from_mean_phi(MeanPhiParams((1 / 6, 1 / 3, 1 / 2), 1 / 60))
        assert a.sum_a == pytest.approx(59.0, rel=1e-14)

    def test_phi_zero_is_rejected_with_pointer(self):
        with pytest.raises(DomainError, match="dmn_loglik_phi"):
            params_from_mean_phi(MeanPhiParams((0.5, 0.5), 0.0))

    def test_zero_probability_is_rejected(self):
        with pytest.raises(DomainError):
            params_from_mean_phi(MeanPhiParams((1.0, 0.0), 0.25))


class TestPhiForm:
    def test_phi_zero_reduces_to_mn_kernel(self):
        res = dmn_loglik_phi(MeanPhiParams((0.5, 0.5), 0.0), (1, 1))
        assert res.value == pytest.approx(2 * math.log(0.5), abs=1e-12)
        assert res.method is Method.PHI_FORM
        assert not math.isnan(res.value)

    def test_matches_alpha_form(self):
        mp = MeanPhiParams((0.1, 0.2, 0.3, 0.4), 1 / 200)
        x = (1, 1, 1, 1)
        via_alpha = dmn_loglik_exact(params_from_mean_phi(mp), x).value
        assert dmn_loglik_phi(mp, x).value == pytest.approx(via_alpha, abs=1e-10)

    def test_observed_zero_probability_is_neg_inf(self):
        res = dmn_loglik_phi(MeanPhiParams((1.0, 0.0), 0.25), (1, 1))
        assert res.value == NEG_INF

    def test_unobserved_zero_probability_is_fine(self):
        res = dmn_loglik_phi(MeanPhiParams((1.0, 0.0), 0.25), (3, 0))
        assert math.isfinite(res.value)


# ---------------------------------------------------------------------------
# mn_loglik_kernel
# ---------------------------------------------------------------------------


class TestMnKernel:
    def test_uneven_probabilities(self):
        val = mn_loglik_kernel((1 / 6, 1 / 3, 1 / 2), (1, 2, 3))
        expected = math.log(1 / 6) + 2 * math.log(1 / 3) + 3 * math.log(1 / 2)
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(-6.068425588244111, abs=1e-12)

    def test_degenerate_cases(self):
        assert mn_loglik_kernel((1.0,), (5,)) == 0.0
        assert mn_loglik_kernel((0.25, 0.75), (0, 0)) == 0.0

    def test_zero_probability_rules(self):
        assert mn_loglik_kernel((1.0, 0.0), (1, 1)) == NEG_INF
        # an unobserved zero-probability category contributes nothing
        assert mn_loglik_kernel((1.0, 0.0), (3, 0)) == 0.0

    def test_bitwise_equal_to_phi_zero(self):
        p = (0.2, 0.3, 0.5)
        x = (4, 0, 9)
        kernel = mn_loglik_kernel(p, x)
        phi0 = dmn_loglik_phi(MeanPhiParams(p, 0.0), x).value
        assert bits(kernel) == bits(phi0)


# ---------------------------------------------------------------------------
# PMFs
# ---------------------------------------------------------------------------


class TestPmfs:
    def test_dmn_pmf_uniform_prior(self):
        # with alpha = (1, 1) and N = 2 every composition has mass 1/3
        assert dmn_log_pmf((1, 1), (1, 1)) == pytest.approx(math.log(1 / 3), abs=1e-12)
        assert dmn_log_pmf((1, 1), (2, 0)) == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_dmn_pmf_empty(self):
        assert dmn_log_pmf((2.5, 1.0), (0, 0)) == 0.0

    def test_mn_pmf_binomial(self):
        assert mn_log_pmf((0.5, 0.5), (1, 1)) == pytest.approx(math.log(0.5), abs=1e-12)
        assert mn_log_pmf((1.0,), (3,)) == 0.0

    def test_mn_pmf_zero_probability(self):
        assert mn_log_pmf((1.0, 0.0), (1, 2)) == NEG_INF

    def test_log_multinomial_coef_against_lgamma(self):
        for counts in ((0,), (1, 1), (2, 0), (3, 4, 5), (10, 0, 2, 7)):
            x = CountVector(counts)
            expected = math.lgamma(x.total + 1) - math.fsum(
                math.lgamma(c + 1) for c in counts
            )
            assert log_multinomial_coef(x) == pytest.approx(expected, abs=1e-10)

    def test_dmn_pmf_against_scipy(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            alpha = rng.uniform(0.1, 20.0, size=k)
            n = int(rng.integers(0, 40))
            x = rng.multinomial(n, rng.dirichlet(np.ones(k)))
            ours = dmn_log_pmf(alpha, x.tolist())
            ref = stats.dirichlet_multinomial(alpha, n).logpmf(x) if n else 0.0
            assert ours == pytest.approx(float(ref), abs=1e-10)

    def test_mn_pmf_against_scipy(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k) * 3)
            p = p / p.sum()
            n = int(rng.integers(1, 40))
            x = rng.multinomial(n, p)
            ours = mn_log_pmf(p.tolist(), x.tolist())
            ref = stats.multinomial(n, p).logpmf(x)
            assert ours == pytest.approx(float(ref), abs=1e-9)
