"""Tests for dataset likelihood, gradient, and the Newton and fixed-point fitter."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dmnll import (
    AlphaParams,
    CountVector,
    Dataset,
    DimensionMismatchError,
    DomainError,
    ResourceLimitError,
    core,
    estimate,
    fit_alpha_mle,
    grad_loglik,
    loglik_dataset,
    sample_dmn_dataset,
    sample_mn_dataset,
)
from dmnll.estimate import ALPHA_FLOOR, MonotonicityError
from conftest import OldTailCounts


class TestDataset:
    def test_coerces_rows(self):
        d = Dataset([(1, 2), CountVector([3, 4])])
        assert d.k == 2
        assert len(d) == 2

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(DomainError):
            Dataset([])
        with pytest.raises(DimensionMismatchError):
            Dataset([(1, 2), (1, 2, 3)])

    @pytest.mark.parametrize("observations", [None, 3])
    def test_observations_that_are_not_a_sequence_are_a_domain_error(self, observations):
        # as CountVector(None) is
        match = "observations must be a sequence of count vectors"
        with pytest.raises(DomainError, match=match):
            Dataset(observations)
        with pytest.raises(DomainError, match=match):
            loglik_dataset((1.0, 2.0), observations)
        with pytest.raises(DomainError, match=match):
            grad_loglik((1.0, 2.0), observations)


@pytest.mark.parametrize("rows", [[(1, 2), (3, 0), (0, 0)], ((1, 2), CountVector([3, 0]))])
def test_dataset_functions_take_rows_as_a_dataset(rows):
    # as fit_alpha_mle does
    d = Dataset(rows)
    assert loglik_dataset((1.5, 0.5), rows) == loglik_dataset((1.5, 0.5), d)
    assert grad_loglik((1.5, 0.5), rows).tolist() == grad_loglik((1.5, 0.5), d).tolist()


class TestLoglikDataset:
    def test_single_observation(self):
        assert loglik_dataset((1.0, 1.0), Dataset([(1, 1)])) == pytest.approx(
            -math.log(6), abs=1e-12
        )

    def test_additivity(self):
        d = Dataset([(1, 1), (1, 1)])
        assert loglik_dataset((1.0, 1.0), d) == pytest.approx(-2 * math.log(6), abs=1e-12)

    def test_all_zero(self):
        assert loglik_dataset((2.0, 3.0), Dataset([(0, 0), (0, 0)])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loglik_dataset((1.0,), Dataset([(1, 1)]))


class TestGradient:
    def test_hand_example(self):
        # d/da_1 at alpha=(1,1), x=(1,1): 1/1 - (1/2 + 1/3) = 1/6
        g = grad_loglik((1.0, 1.0), Dataset([(1, 1)]))
        assert g[0] == pytest.approx(1 / 6, abs=1e-14)
        assert g[1] == pytest.approx(1 / 6, abs=1e-14)

    def test_zero_for_empty_data(self):
        g = grad_loglik((0.7, 3.0), Dataset([(0, 0)]))
        assert np.all(g == 0.0)

    def test_zero_for_single_category(self):
        g = grad_loglik((2.5,), Dataset([(7,), (3,)]))
        assert np.all(g == 0.0)

    def test_overflow_is_a_domain_error(self):
        # 1/alpha_1 overflows to inf (and inf - inf to NaN in the walk), or
        # the per-row terms are finite but their sum is not.
        for alpha, rows in (
            ([1e-320, 1.0], [[3, 1]]),
            ([1e-320, 1e-320], [[1, 1]]),
            ([1e-307, 1.0], [[1, 0]] * 100),
        ):
            with pytest.raises(DomainError, match="overflows a float"):
                grad_loglik(alpha, Dataset(rows))
        # a subnormal alpha_k whose category is never observed stays finite
        g = grad_loglik([1e-309, 5.0], Dataset([[0, 2]]))
        assert g.tolist() == [-(1 / 5 + 1 / 6), 0.0]

    def test_total_over_the_budget_is_a_resource_limit(self):
        # the walks are O(N): a total near 2^63 would never finish
        d = Dataset([(1, 1), (2**63 - 1, 0)])
        with pytest.raises(ResourceLimitError, match="exceeds the evaluator budget"):
            grad_loglik((1.0, 1.0), d)

    def test_walks_each_column_once(self, monkeypatch):
        # one walk per category and one for the totals, each over its
        # column's distinct counts, so up to its largest count
        walked = []
        walk = core._sum_terms

        def spy(term, start, step, levels):
            walked.append(list(levels))
            return walk(term, start, step, walked[-1])

        monkeypatch.setattr(core, "_sum_terms", spy)
        rows = [(3, 0, 5), (3, 0, 1), (0, 0, 5), (7, 0, 1), (3, 0, 5)]
        grad_loglik((1.0, 2.0, 0.5), Dataset(rows))
        assert walked == [[0, 3, 7], [0], [1, 5], [4, 5, 8]]

    def test_matches_finite_differences(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 6))
            alpha = np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=k))
            obs = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(0, 201))
                obs.append(rng.multinomial(n, rng.dirichlet(np.ones(k))).tolist())
            d = Dataset(obs)
            g = grad_loglik(alpha.tolist(), d)
            for j in range(k):
                h = 1e-6 * alpha[j]
                up, down = alpha.copy(), alpha.copy()
                up[j] += h
                down[j] -= h
                fd = (loglik_dataset(up.tolist(), d) - loglik_dataset(down.tolist(), d)) / (2 * h)
                assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))


def _recips_one_walk(start, count):
    """Neumaier-compensated sum of 1/(start + j) for j < count, on its own."""
    s = 0.0
    c = 0.0
    for j in range(count):
        t = 1.0 / (start + j)
        total = s + t
        if abs(s) >= abs(t):
            c += (s - total) + t
        else:
            c += (t - total) + s
        s = total
    return s + c


def _per_row_gradient(alpha, d):
    """grad_loglik computed the direct way: one walk per row and category."""
    alpha = AlphaParams(alpha)
    parts = [[] for _ in range(d.k)]
    for x in d.observations:
        den = _recips_one_walk(alpha.sum_a, x.total)
        for i, (a_k, x_k) in enumerate(zip(alpha.alpha, x.counts)):
            parts[i].append(_recips_one_walk(a_k, x_k) - den)
    return np.array([math.fsum(p) for p in parts])


@st.composite
def alpha_and_table(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    a = st.floats(min_value=0.01, max_value=100.0)
    alpha = draw(st.lists(a, min_size=k, max_size=k))
    row = st.lists(st.integers(min_value=0, max_value=40), min_size=k, max_size=k)
    return alpha, draw(st.lists(row, min_size=1, max_size=12))


@given(case=alpha_and_table())
@settings(max_examples=150, deadline=None)
def test_gradient_matches_per_row_walks_bitwise(case):
    alpha, rows = case
    d = Dataset(rows)
    assert grad_loglik(alpha, d).tobytes() == _per_row_gradient(alpha, d).tobytes()


class TestFit:
    def test_rejects_single_category(self):
        with pytest.raises(DomainError):
            fit_alpha_mle(Dataset([(5,), (3,)]))

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            fit_alpha_mle(Dataset([(0, 0), (0, 0)]))

    def test_max_iter_zero_returns_init(self):
        init = AlphaParams((2.0, 3.0))
        result = fit_alpha_mle(Dataset([(1, 2), (3, 1)]), init=init, max_iter=0)
        assert result.alpha_hat.alpha == init.alpha
        assert not result.converged
        assert result.iterations == 0
        assert result.trace is not None and len(result.trace) == 1

    @pytest.mark.parametrize("bad", [2.5, "3", None], ids=repr)
    def test_non_integral_max_iter_is_a_domain_error(self, bad):
        with pytest.raises(DomainError) as info:
            fit_alpha_mle(Dataset([(1, 2), (3, 1)]), max_iter=bad)
        assert str(info.value) == f"max_iter must be an integer, got {bad!r}"

    @pytest.mark.parametrize("bad", [None, "x"], ids=repr)
    def test_non_numeric_tol_is_a_domain_error(self, bad):
        with pytest.raises(DomainError) as info:
            fit_alpha_mle(Dataset([(1, 2), (3, 1)]), tol=bad)
        assert str(info.value) == f"tol must be a number > 0, got {bad!r}"

    def test_numpy_integer_max_iter_is_accepted(self):
        d = Dataset([(1, 2), (3, 1), (2, 2)])
        result = fit_alpha_mle(d, max_iter=np.int64(5))
        assert result.alpha_hat == fit_alpha_mle(d, max_iter=5).alpha_hat
        with pytest.raises(DomainError, match="max_iter must be >= 0, got -1"):
            fit_alpha_mle(d, max_iter=np.int64(-1))

    def test_loglik_field_matches_dataset_sum(self):
        d = Dataset([(3, 1, 0), (2, 2, 2), (0, 5, 1)])
        result = fit_alpha_mle(d, max_iter=40)
        assert result.loglik == loglik_dataset(result.alpha_hat, d)

    def test_trace_is_nondecreasing(self, rng):
        d = sample_dmn_dataset((1.5, 4.0, 2.0), n_trials=30, n_obs=200, seed=7)
        result = fit_alpha_mle(d)
        values = [v for _, v in result.trace]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_divergent_two_cell_case_stays_sane(self):
        # A single (1,1) observation has its MLE at the multinomial limit:
        # the iteration must stay monotone and finite, and not converge.
        result = fit_alpha_mle(
            Dataset([(1, 1)]), init=AlphaParams((1.0, 1.0)), max_iter=60
        )
        assert not result.converged
        assert result.iterations == 60
        values = [v for _, v in result.trace]
        assert all(map(math.isfinite, values))
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))
        # the limit value is the multinomial kernel 2 log(1/2)
        assert values[-1] < 2 * math.log(0.5)

    def test_never_observed_category_is_floored(self):
        d = Dataset([(4, 0, 1), (2, 0, 3), (5, 0, 2)])
        result = fit_alpha_mle(d, max_iter=50)
        assert result.floored == (1,)
        assert result.alpha_hat.alpha[1] == ALPHA_FLOOR

    def test_observed_category_near_the_floor_is_not_floored(self):
        # column 1 is observed once; its alpha_hat is about 2.4e-5, off the floor
        d = Dataset([(5, 0, 0)] * 8 + [(0, 1, 0), (0, 0, 0)])
        result = fit_alpha_mle(d, init=(1e-8, 1e-8, 1e-8), max_iter=50)
        assert result.floored == (2,)
        assert result.alpha_hat.alpha[1] > ALPHA_FLOOR
        assert result.alpha_hat.alpha[2] == ALPHA_FLOOR

    def test_mn_data_drives_total_concentration_up(self):
        # Multinomial data is the phi=0 regime, so the fitted total
        # concentration should climb toward infinity from the start.
        d = sample_mn_dataset((0.2, 0.5, 0.3), n_trials=40, n_obs=300, seed=11)
        totals = [
            fit_alpha_mle(d, max_iter=i).alpha_hat.sum_a for i in range(11)
        ]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_recovery_moderate(self):
        true_alpha = (2.0, 5.0, 3.0)
        d = sample_dmn_dataset(true_alpha, n_trials=50, n_obs=2000, seed=42)
        result = fit_alpha_mle(d)
        assert result.converged
        for est, true in zip(result.alpha_hat.alpha, true_alpha):
            assert abs(est - true) / true <= 0.10

    def test_init_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            fit_alpha_mle(Dataset([(1, 2)]), init=AlphaParams((1.0, 1.0, 1.0)))

    def test_init_below_the_floor_fails_before_any_array_work(self, monkeypatch):
        def no_arrays(d):
            raise AssertionError("built the fit's arrays")

        monkeypatch.setattr(estimate, "_TailCounts", no_arrays)
        d = Dataset([(1, 2), (2, 1), (3, 0)])
        with pytest.raises(DomainError, match=f"1e-320 is below the floor {ALPHA_FLOOR!r}"):
            fit_alpha_mle(d, init=(1e-320, 1e-320))
        with pytest.raises(DomainError, match="alpha 5e-09 is below"):
            fit_alpha_mle(d, init=(1.0, ALPHA_FLOOR / 2))

    def test_jump_off_the_floor_warns_nothing(self):
        # alpha_2 jumps from the floor to about 3e307 in one step: its
        # relative change overflows, which only says "not converged"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_alpha_mle(Dataset([(1, 5), (3, 4)]), init=(1e308, 1e-8))
        assert not result.converged
        assert math.isfinite(result.loglik)

    def test_record_trace_off(self):
        result = fit_alpha_mle(Dataset([(1, 2), (2, 1)]), max_iter=5, record_trace=False)
        assert result.trace is None

    @pytest.mark.parametrize("seed", [1, 2])
    def test_large_table_converges(self, seed):
        # |loglik| is about 2.8e6, where one ulp (4.7e-10) is more than a
        # fixed slack of 1e-10, and the trace dips by an ulp on the way.
        d = sample_dmn_dataset((2, 5, 3, 1, 4), 200, 10000, seed=seed)
        result = fit_alpha_mle(d, max_iter=5000)
        assert result.converged

    def test_clearly_worse_step_raises(self, monkeypatch):
        d = sample_dmn_dataset((2.0, 5.0, 3.0), n_trials=50, n_obs=300, seed=5)
        mle = fit_alpha_mle(d).alpha_hat
        step = estimate._TailCounts.step

        def worse(self, alpha, grid):
            return step(self, alpha, grid) * np.array([2.0, 1.0, 1.0])

        monkeypatch.setattr(estimate._TailCounts, "step", worse)
        with pytest.raises(MonotonicityError, match="at iteration 1:"):
            fit_alpha_mle(d, init=mle)

    # Each count of the first row is below 2^23, but its grid has 2^24
    # levels; the second row's counts are near 2^63.
    @pytest.mark.parametrize("row", [(1 << 22, 1 << 22), ((1 << 62) + 1, 1 << 62)])
    def test_grid_over_the_level_bound_fails_before_allocating(self, row):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"{sum(row) * 2} count levels"):
                fit_alpha_mle(Dataset([row]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a grid of 2^23 float levels alone is 64 MiB


def _stationarity(result, d):
    """max_k |alpha_k g_k|, the gradient in log alpha, at the fitted point."""
    g = grad_loglik(result.alpha_hat, d)
    return float(np.max(np.abs(np.array(result.alpha_hat.alpha) * g)))


class TestNewton:
    """Newton steps reach the stationary point the fixed point crawls toward,
    and stay finite and unconverged where the maximum is at infinity."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_concentrated_data_converges_to_a_stationary_point(self, seed):
        # The fixed point alone takes about 2800 iterations here and stops
        # with |alpha g| about 5e-4.
        d = sample_dmn_dataset((10, 30, 60, 16, 44), 200, 1000, seed=seed)
        result = fit_alpha_mle(d)
        assert result.converged
        assert result.iterations <= 30
        assert _stationarity(result, d) <= 1e-6

    def test_single_two_cell_row_stays_finite_and_unconverged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_alpha_mle(Dataset([(1, 1)]), max_iter=5000)
        assert not result.converged
        assert all(map(math.isfinite, result.alpha_hat.alpha))

    def test_never_observed_category_does_not_stop_newton(self):
        # The fixed point alone takes 2511 iterations here.
        d = sample_dmn_dataset((10, 30, 60, 16), 200, 1000, seed=4)
        rows = [[*x.counts[:2], 0, *x.counts[2:]] for x in d.observations]
        result = fit_alpha_mle(Dataset(rows), max_iter=5000)
        assert result.converged
        assert result.iterations <= 50
        assert result.floored == (2,)

    def test_multinomial_data_reaches_its_stationary_point(self):
        # The fixed point alone does not converge in 5000 iterations here.
        d = sample_mn_dataset((0.2, 0.5, 0.3), n_trials=40, n_obs=300, seed=11)
        result = fit_alpha_mle(d, max_iter=5000)
        assert result.converged
        assert _stationarity(result, d) <= 1e-6


@st.composite
def fit_cases(draw):
    """Tables with K = 2..6, never-observed categories, all-zero rows and
    single rows, and an iteration cap of 0, small or large."""
    k = draw(st.integers(min_value=2, max_value=6))
    row = st.lists(st.integers(min_value=0, max_value=30), min_size=k, max_size=k)
    rows = draw(st.lists(row, min_size=1, max_size=10))
    unobserved = draw(st.sets(st.integers(min_value=0, max_value=k - 1), max_size=k - 1))
    rows = [[0 if j in unobserved else c for j, c in enumerate(r)] for r in rows]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * k)
    assume(any(map(any, rows)))
    return rows, draw(st.sampled_from([0, 1, 7, 5000]))


def _fit_fields(result):
    return (
        [a.hex() for a in result.alpha_hat.alpha],
        result.loglik.hex(),
        result.iterations,
        result.converged,
        result.floored,
        [(i, v.hex()) for i, v in result.trace],
    )


@given(case=fit_cases())
@settings(max_examples=80, deadline=None)
def test_fit_matches_per_category_histograms_bitwise(case):
    rows, max_iter = case
    d = Dataset(rows)
    new = fit_alpha_mle(d, max_iter=max_iter, record_trace=True)
    real = estimate._TailCounts
    estimate._TailCounts = OldTailCounts
    try:
        old = fit_alpha_mle(d, max_iter=max_iter, record_trace=True)
    finally:
        estimate._TailCounts = real
    assert _fit_fields(new) == _fit_fields(old)
    unobserved = tuple(k for k, column in enumerate(zip(*rows)) if not any(column))
    assert new.floored == (unobserved if max_iter > 0 else ())
