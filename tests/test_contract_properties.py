"""One property over the public entry points: whatever finite input they
get, they return a result with no NaN in it or raise a ``DmnError``.

Parameters are drawn from extreme finite floats (subnormals, values near
the float maximum) and counts near 2^63.  A drawn row's total is either at
most about 1e4 or above ``MAX_TOTAL_COUNT``: totals in between are valid,
but the O(N) routes take minutes on them, and this test does not check
speed.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmnll import (
    AlphaParams,
    CountVector,
    Dataset,
    DmnError,
    MeanPhiParams,
    dmn_log_pmf,
    dmn_loglik_exact,
    dmn_loglik_lgamma,
    dmn_loglik_phi,
    dmn_loglik_rows,
    fit_alpha_mle,
    grad_loglik,
    log_multinomial_coef,
    loglik_dataset,
    mn_log_pmf,
    mn_loglik_kernel,
    params_from_mean_phi,
    sample_dmn_dataset,
    sample_mn_dataset,
)
from dmnll.bench import reference_loglik
from dmnll.core import MAX_TOTAL_COUNT

MAX_FLOAT = sys.float_info.max
MIN_NORMAL = sys.float_info.min
MIN_SUBNORMAL = 5e-324

#: Finite floats, weighted toward the extremes: subnormals and values near
#: the float maximum, next to ordinary ones.
extreme = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=MIN_SUBNORMAL, max_value=MIN_NORMAL),
    st.floats(min_value=1e300, max_value=MAX_FLOAT),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([MIN_SUBNORMAL, MIN_NORMAL, MAX_FLOAT, 0.0, 1.0]),
)

#: Over-dispersion: extremes, plus the valid range [0, 1) and its ends.
phis = st.one_of(
    extreme,
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from([0.0, MIN_SUBNORMAL, 1.0 - 2.0**-53]),
)

#: A cell that puts a row's total past the budget, up to 2^63 - 1.
big_count = st.one_of(
    st.integers(MAX_TOTAL_COUNT + 1, 2**63 - 1),
    st.sampled_from([MAX_TOTAL_COUNT + 1, 2**63 - 2, 2**63 - 1]),
)

#: A cell no count vector accepts.
bad_count = st.sampled_from([-1, 2**63, 2**64])


@st.composite
def rows(draw, k):
    """A row of K cells whose total is at most 1e4 or past the budget; at
    times with a cell out of range, or one cell too many."""
    cells = draw(st.lists(st.integers(0, 10_000 // k), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["small", "small", "big", "big", "bad"]))
    if kind != "small":
        at = draw(st.integers(0, k - 1))
        cells[at] = draw(big_count if kind == "big" else bad_count)
        if kind == "big" and draw(st.booleans()):
            # other cells may be near 2^63 too
            cells = [draw(st.one_of(st.just(c), big_count)) for c in cells]
    if draw(st.integers(0, 9)) == 0:
        cells.append(0)
    return cells


@st.composite
def probs(draw, k):
    """K weights, most often scaled to sum to about 1, zeros included."""
    weights = draw(st.lists(st.one_of(extreme, st.just(0.0)), min_size=k, max_size=k))
    if draw(st.integers(0, 4)):
        weights = [abs(w) / 4 for w in weights]  # K <= 4: the sum stays finite
        total = math.fsum(weights)
        if total > 0.0:
            weights = [w / total for w in weights]
    return weights


@st.composite
def case(draw):
    """K, and the parameters and counts of a call with K categories."""
    k = draw(st.integers(1, 4))
    return {
        "alpha": draw(st.lists(extreme, min_size=k, max_size=k)),
        "p": draw(probs(k)),
        "phi": draw(phis),
        "x": draw(rows(k)),
        "table": draw(st.lists(rows(k), min_size=1, max_size=3)),
        "renormalize": draw(st.booleans()),
        "max_iter": draw(st.integers(0, 4)),
        "with_init": draw(st.booleans()),
        "n_trials": draw(
            st.one_of(st.integers(0, 10_000), st.integers(2**63 - 4, 2**63 + 4))
        ),
        "n_obs": draw(st.integers(0, 3)),
    }


def mean_phi(c):
    return MeanPhiParams(c["p"], c["phi"], renormalize=c["renormalize"])


ENTRY_POINTS = {
    "CountVector": lambda c: CountVector(c["x"]),
    "AlphaParams": lambda c: AlphaParams(c["alpha"]),
    "MeanPhiParams": mean_phi,
    "params_from_mean_phi": lambda c: params_from_mean_phi(mean_phi(c)),
    "dmn_loglik_exact": lambda c: dmn_loglik_exact(c["alpha"], c["x"]),
    "dmn_loglik_lgamma": lambda c: dmn_loglik_lgamma(c["alpha"], c["x"]),
    "dmn_loglik_phi": lambda c: dmn_loglik_phi(mean_phi(c), c["x"]),
    "dmn_loglik_rows": lambda c: dmn_loglik_rows(c["alpha"], c["table"]),
    "dmn_loglik_rows_phi": lambda c: dmn_loglik_rows(mean_phi(c), c["table"]),
    "mn_loglik_kernel": lambda c: mn_loglik_kernel(c["p"], c["x"]),
    "log_multinomial_coef": lambda c: log_multinomial_coef(c["x"]),
    "dmn_log_pmf": lambda c: dmn_log_pmf(c["alpha"], c["x"]),
    "mn_log_pmf": lambda c: mn_log_pmf(c["p"], c["x"]),
    "loglik_dataset": lambda c: loglik_dataset(c["alpha"], Dataset(c["table"])),
    "grad_loglik": lambda c: grad_loglik(c["alpha"], Dataset(c["table"])),
    "fit_alpha_mle": lambda c: fit_alpha_mle(
        Dataset(c["table"]),
        init=c["alpha"] if c["with_init"] else None,
        max_iter=c["max_iter"],
    ),
    "sample_dmn_dataset": lambda c: sample_dmn_dataset(
        c["alpha"], c["n_trials"], c["n_obs"], seed=0
    ),
    "sample_mn_dataset": lambda c: sample_mn_dataset(
        c["p"], c["n_trials"], c["n_obs"], seed=0
    ),
    "reference_loglik": lambda c: reference_loglik(c["alpha"], c["x"]),
}


def has_nan(result) -> bool:
    """Whether a NaN is anywhere in ``result``: a float, an array, a
    sequence, or a field of a result, parameter or dataset object."""
    if isinstance(result, float):
        return math.isnan(result)
    if isinstance(result, np.ndarray):
        return bool(np.isnan(result).any())
    if isinstance(result, (list, tuple)):
        return any(map(has_nan, result))
    if dataclasses.is_dataclass(result):
        return any(has_nan(getattr(result, f.name)) for f in dataclasses.fields(result))
    return False


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@given(c=case())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_no_nan_or_a_dmn_error(entry, c):
    try:
        result = ENTRY_POINTS[entry](c)
    except DmnError:
        return
    assert not has_nan(result), result
