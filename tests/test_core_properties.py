"""Property and invariant tests for the core evaluators."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmnll import (
    AlphaParams,
    CountVector,
    MeanPhiParams,
    Method,
    dmn_log_pmf,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    dmn_loglik_phi,
    dmn_loglik_rows,
    mn_log_pmf,
    mn_loglik_kernel,
    params_from_mean_phi,
)
from dmnll.core import _loglik_table
from conftest import random_alpha, random_counts


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def compositions(total, k):
    """All count vectors of length k summing to total."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, k - 1):
            yield (head,) + rest


positive_alpha = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)
pairs = st.lists(
    st.tuples(positive_alpha, st.integers(min_value=0, max_value=60)),
    min_size=1,
    max_size=8,
)


@given(pairs=pairs, k_choice=st.integers(min_value=0, max_value=7))
@settings(max_examples=150, deadline=None)
def test_recurrence_identity(pairs, k_choice):
    """Adding one count to category k shifts the value by
    log(alpha_k + x_k) - log(A + N)."""
    alpha = AlphaParams([a for a, _ in pairs])
    counts = [c for _, c in pairs]
    k = k_choice % len(pairs)
    base = dmn_loglik_exact(alpha, CountVector(counts)).value
    bumped_counts = list(counts)
    bumped_counts[k] += 1
    bumped = dmn_loglik_exact(alpha, CountVector(bumped_counts)).value
    shift = math.log(alpha.alpha[k] + counts[k]) - math.log(alpha.sum_a + sum(counts))
    assert bumped - base == pytest.approx(shift, abs=1e-12)


@given(pairs=pairs, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_permutation_invariance_bitwise(pairs, seed):
    """Jointly permuting (alpha_k, x_k) pairs cannot change a single bit."""
    perm = np.random.default_rng(seed).permutation(len(pairs))
    base = dmn_loglik_exact(
        AlphaParams([a for a, _ in pairs]), CountVector([c for _, c in pairs])
    )
    shuffled = [pairs[i] for i in perm]
    permuted = dmn_loglik_exact(
        AlphaParams([a for a, _ in shuffled]), CountVector([c for _, c in shuffled])
    )
    assert bits(base.value) == bits(permuted.value)
    assert base.terms == permuted.terms


@given(
    a=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
    n=st.integers(min_value=0, max_value=5000),
)
@settings(max_examples=100, deadline=None)
def test_single_category_degeneracy(a, n):
    assert dmn_loglik_exact((a,), (n,)).value == 0.0


def test_oracle_equivalence_sample(rng):
    """Exact and lgamma routes agree to 1e-8 relative (fast spot check;
    the full 1e4-instance sweep runs in the acceptance suite)."""
    for _ in range(300):
        k = int(rng.integers(1, 11))
        alpha = random_alpha(rng, k)
        x = random_counts(rng, k, n_max=500)
        e = dmn_loglik_exact(alpha, x).value
        l = dmn_loglik_lgamma(alpha, x).value
        assert not math.isnan(e) and not math.isnan(l)
        assert abs(e - l) <= 1e-8 * max(1.0, abs(e))


def test_phi_matches_alpha_form(rng):
    """For phi in (0, 1) the two parameterizations give the same value."""
    for _ in range(200):
        k = int(rng.integers(2, 7))
        p = rng.dirichlet(np.full(k, 2.0))
        p = (p / p.sum()).tolist()
        if min(p) <= 0.0:
            continue
        phi = float(rng.uniform(1e-6, 0.999))
        mp = MeanPhiParams(p, phi)
        x = random_counts(rng, k, n_max=300)
        via_phi = dmn_loglik_phi(mp, x).value
        via_alpha = dmn_loglik_exact(params_from_mean_phi(mp), x).value
        assert via_phi == pytest.approx(via_alpha, rel=1e-9, abs=1e-9)


def test_phi_continuity_at_zero(rng):
    """phi = 1e-12 is within 1e-8 of the multinomial kernel."""
    for _ in range(300):
        k = int(rng.integers(2, 7))
        while True:
            p = rng.dirichlet(np.full(k, 3.0))
            if p.min() >= 0.02:
                break
        p = (p / p.sum()).tolist()
        n = int(rng.integers(0, 501))
        x = rng.multinomial(n, p).tolist()
        near = dmn_loglik_phi(MeanPhiParams(p, 1e-12), x).value
        at = mn_loglik_kernel(p, x)
        assert abs(near - at) <= 1e-8


def test_phi_zero_bitwise_sample(rng):
    for _ in range(200):
        k = int(rng.integers(1, 7))
        p = rng.dirichlet(np.ones(k))
        p = (p / p.sum()).tolist()
        x = random_counts(rng, k, n_max=200)
        phi0 = dmn_loglik_phi(MeanPhiParams(p, 0.0), x).value
        kernel = mn_loglik_kernel(p, x)
        assert bits(phi0) == bits(kernel)


@pytest.mark.parametrize("alpha", [(1.0, 1.0, 1.0), (0.5, 2.0, 3.0)])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_dmn_pmf_normalization(alpha, k, n):
    """The PMF sums to 1 over all compositions of n into k parts."""
    a = alpha[:k]
    total = math.fsum(
        math.exp(dmn_log_pmf(a, CountVector(x))) for x in compositions(n, k)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_mn_pmf_normalization():
    total = math.fsum(
        math.exp(mn_log_pmf((0.3, 0.7), CountVector(x))) for x in compositions(3, 2)
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_no_nan_on_awkward_inputs(rng):
    """No evaluator produces NaN for any precondition-satisfying input."""
    awkward = [
        (MeanPhiParams((1.0, 0.0), 0.9999), (5, 3)),
        (MeanPhiParams((1.0, 0.0), 0.0), (0, 4)),
        (MeanPhiParams((0.5, 0.5), 1 - 1e-12), (1000, 0)),
    ]
    for mp, counts in awkward:
        v = dmn_loglik_phi(mp, counts).value
        assert not math.isnan(v)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        alpha = random_alpha(rng, k, lo=1e-6, hi=1e6)
        x = random_counts(rng, k, n_max=300)
        for f in (dmn_loglik_exact, dmn_loglik_lgamma):
            assert not math.isnan(f(alpha, x).value)
        assert not math.isnan(dmn_log_pmf(alpha, x))


def test_reference_agrees_on_experiment_grids():
    """The 40-digit reference and the exact evaluator agree to 1e-12
    everywhere on both default sweep grids."""
    from dmnll.bench import accuracy_defaults, reference_loglik, runtime_defaults

    for cfg in (accuracy_defaults(), runtime_defaults()):
        alpha = cfg.alpha()
        for n in cfg.n_values:
            x = cfg.counts_at(n)
            assert abs(dmn_loglik_exact(alpha, x).value - reference_loglik(alpha, x)) <= 1e-12


@st.composite
def tables_with_params(draw):
    """A count table with duplicate rows, empty rows and zero-count columns,
    plus alpha, integer weights for p (zeros allowed) and phi (0 allowed)."""
    k = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(st.integers(min_value=0, max_value=40), min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=6))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=15))
    rows = [[0 if j in zero_cols else pool[i][j] for j in range(k)] for i in picks]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * k)
    alpha = draw(st.lists(positive_alpha, min_size=k, max_size=k))
    weight = st.integers(min_value=0, max_value=3)
    weights = draw(st.lists(weight, min_size=k, max_size=k).filter(any))
    phi = draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.999)))
    return rows, alpha, weights, phi


@given(case=tables_with_params())
# K = 1 with an empty row and duplicates at phi = 0
@example(case=([[3], [0], [3]], [0.5], [1], 0.0))
# an observed p_k = 0 after an observed category, a zero column, an empty row
@example(case=([[0, 2, 1], [4, 0, 0], [0, 0, 0], [4, 0, 0]], [1.0, 2.0, 3.0], [1, 0, 2], 0.3))
# an observed p_k = 0 in the first category at phi = 0
@example(case=([[1, 5], [0, 5]], [2.0, 0.25], [0, 1], 0.0))
# p_1 (1 - phi) subnormal or underflowing to 0 with p_1 > 0 (float weights)
@example(case=([[1, 0], [2, 3], [0, 4], [1, 0]], [1.0, 2.0], [5e-324, 1.0], 0.5))
@example(case=([[1, 0], [3, 1], [0, 0]], [0.5, 3.0], [3e-320, 1.0], 0.9))
@example(case=([[2, 2], [1, 0]], [1.5, 1.5], [1e-310, 1.0], 0.0))
@settings(max_examples=200, deadline=None)
def test_rows_match_per_row_calls_bitwise(case):
    """The shared-pass evaluator returns, row for row, the per-row call's
    value (same bits, -inf included) and terms."""
    rows, alpha, weights, phi = case
    p = [w / sum(weights) for w in weights]
    for params, per_row in (
        (AlphaParams(alpha), dmn_loglik_exact),
        (MeanPhiParams(p, phi), dmn_loglik_phi),
    ):
        batched = dmn_loglik_rows(params, rows)
        expected = [per_row(params, x) for x in rows]
        assert [(r.value.hex(), r.terms, r.method) for r in batched] == [
            (r.value.hex(), r.terms, r.method) for r in expected
        ]


def _neumaier(terms):
    """The compensated sum of ``terms`` in order, as (sum, compensation)."""
    s = c = 0.0
    for t in terms:
        total = s + t
        if abs(s) >= abs(t):
            c += (s - total) + t
        else:
            c += (t - total) + s
        s = total
    return s, c


def _sum_of_logs_formula(alpha, x):
    """The exact route written out straight: each category's log sum and the
    denominator's, each in ascending order with Neumaier compensation,
    merged by ``fsum``."""
    a_sum = math.fsum(alpha)
    parts = []
    for a_k, x_k in zip(alpha, x):
        parts += _neumaier(math.log(a_k + j) for j in range(x_k))
    s, c = _neumaier(math.log(a_sum + i) for i in range(sum(x)))
    return math.fsum([*parts, -s, -c])


def _phi_formula(p, phi, x):
    """The phi route written out straight, as :func:`_sum_of_logs_formula`:
    terms log(p_k (1-phi) + j phi) over log((1-phi) + i phi).  An observed
    p_k = 0 makes the row -inf."""
    if any(p_k == 0.0 and x_k for p_k, x_k in zip(p, x)):
        return -math.inf
    parts = []
    for p_k, x_k in zip(p, x):
        parts += _neumaier(_phi_term(p_k, phi, j) for j in range(x_k))
    s, c = _neumaier(math.log((1.0 - phi) + i * phi) for i in range(sum(x)))
    return math.fsum([*parts, -s, -c])


def _phi_term(p_k, phi, j):
    """log(p_k (1-phi) + j phi); where p_k (1-phi) is subnormal or 0, the
    first term is log(p_k) + log1p(-phi)."""
    start = p_k * (1.0 - phi)
    if j == 0 and start < sys.float_info.min:
        return math.log(p_k) + math.log1p(-phi)
    return math.log(start + j * phi)


@given(case=tables_with_params())
@example(case=([[3], [0], [3]], [0.5], [1], 0.0))
@example(case=([[0, 2, 1], [4, 0, 0], [0, 0, 0], [4, 0, 0]], [1.0, 2.0, 3.0], [1, 0, 2], 0.3))
@example(case=([[1, 0], [2, 3], [0, 4], [1, 0]], [1.0, 2.0], [5e-324, 1.0], 0.5))
@example(case=([[2, 2], [1, 0]], [1.5, 1.5], [1e-310, 1.0], 0.0))
@settings(max_examples=150, deadline=None)
def test_sum_of_logs_routes_match_the_written_out_formulas_bitwise(case):
    """The exact and phi evaluators, per row and per table, return the
    written-out formulas' values, bit for bit, phi = 0 included."""
    rows, alpha, weights, phi = case
    p = [w / sum(weights) for w in weights]
    mp = MeanPhiParams(p, phi)
    exact = [_sum_of_logs_formula(alpha, x).hex() for x in rows]
    assert [dmn_loglik_exact(alpha, x).value.hex() for x in rows] == exact
    assert [r.value.hex() for r in dmn_loglik_rows(alpha, rows)] == exact
    by_phi = [_phi_formula(mp.p, phi, x).hex() for x in rows]
    assert [dmn_loglik_phi(mp, x).value.hex() for x in rows] == by_phi
    assert [r.value.hex() for r in dmn_loglik_rows(mp, rows)] == by_phi


#: alpha from the smallest subnormal up to where lgamma overflows a float
#: (lgamma(x) does past about 2.5e305), and past it.
extreme_alpha = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    st.sampled_from([5e-324, 1e-310, 1e-8, 0.5, 1.0, 3.0, 1e300, 2.5e305, 2.6e305, 1e308]),
)
#: counts near 2^63, where the O(K) route is the only one that runs
extreme_count = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.sampled_from([2**53 + 1, 2**62, 2**63 - 2, 2**63 - 1]),
)


@st.composite
def lgamma_tables(draw):
    """A count table with duplicate rows, zero columns and K = 1 among its
    shapes, plus the alpha of the lgamma route."""
    k = draw(st.integers(min_value=1, max_value=4))
    row = st.lists(extreme_count, min_size=k, max_size=k)
    pool = draw(st.lists(row, min_size=1, max_size=5))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    rows = [[0 if j in zero_cols else pool[i][j] for j in range(k)] for i in picks]
    return rows, draw(st.lists(extreme_alpha, min_size=k, max_size=k))


def _outcome(evaluate):
    """``evaluate()``'s (value bits, terms) per row, or its error's type and message."""
    try:
        return [(v.hex(), t) for v, t in evaluate()]
    except Exception as exc:
        return type(exc), str(exc)


def _lgamma_formula(alpha, x):
    """The lgamma route's formula as written out before the table route existed."""
    lg = math.lgamma
    a_sum = math.fsum(alpha)
    parts = [lg(a_sum) - lg(a_sum + sum(x))]
    parts += [lg(a_k + x_k) - lg(a_k) for a_k, x_k in zip(alpha, x)]
    return math.fsum(parts)


@given(case=lgamma_tables())
# K = 1 with duplicate rows and an empty one
@example(case=([[3], [0], [3]], [0.5]))
# counts near 2^63 with a subnormal alpha
@example(case=([[2**63 - 1, 0], [1, 2**62]], [5e-324, 1.0]))
# lgamma overflows on one row only
@example(case=([[0, 1], [5, 0]], [1.0, 2.6e305]))
# lgamma overflows on the totals only
@example(case=([[1, 1]], [2e305, 2e305]))
@settings(max_examples=200, deadline=None)
def test_lgamma_table_matches_per_row_calls_bitwise(case):
    """The table evaluator's lgamma route returns, row for row, the per-row
    call's value (same bits) and terms (2K + 2); where the per-row calls
    fail, it fails with the same error."""
    rows, alpha = case
    per_row = []

    def one_by_one():
        for x in rows:
            per_row.append(dmn_loglik_lgamma(alpha, x))
        return [(r.value, r.terms) for r in per_row]

    expected = _outcome(one_by_one)
    assert _outcome(lambda: zip(*_loglik_table(alpha, rows, Method.LOG_GAMMA))) == expected
    if isinstance(expected, tuple):
        return
    assert {r.method for r in per_row} == {Method.LOG_GAMMA}
    assert {t for _, t in expected} == {2 * len(alpha) + 2}
    # the per-row values are those of the formula, bit for bit
    assert [r.value.hex() for r in per_row] == [_lgamma_formula(alpha, x).hex() for x in rows]
