"""Tests for the synthetic-data helpers."""

import re

import numpy as np
import pytest

from dmnll import DomainError, MeanPhiParams, sample_dmn_dataset, sample_mn_dataset


def test_dmn_shapes_and_totals():
    d = sample_dmn_dataset((2.0, 5.0, 3.0), n_trials=50, n_obs=20, seed=1)
    assert d.k == 3
    assert len(d) == 20
    assert all(o.total == 50 for o in d.observations)


def test_mn_shapes_and_totals():
    d = sample_mn_dataset((0.2, 0.8), n_trials=10, n_obs=5, seed=1)
    assert d.k == 2
    assert all(o.total == 10 for o in d.observations)


def test_seed_reproducibility():
    d1 = sample_dmn_dataset((1.0, 2.0), 20, 10, seed=99)
    d2 = sample_dmn_dataset((1.0, 2.0), 20, 10, seed=99)
    assert d1.observations == d2.observations


@pytest.mark.parametrize("sample", [sample_dmn_dataset, sample_mn_dataset])
def test_negative_sizes_are_domain_errors(sample):
    with pytest.raises(DomainError, match="n_trials must be >= 0, got -1"):
        sample((0.25, 0.75), -1, 3, seed=1)
    with pytest.raises(DomainError, match="n_obs must be >= 0, got -2"):
        sample((0.25, 0.75), 3, -2, seed=1)


@pytest.mark.parametrize("sample", [sample_dmn_dataset, sample_mn_dataset])
def test_non_integral_sizes_are_domain_errors(sample):
    with pytest.raises(DomainError, match=r"n_trials must be an integer, got 2\.5"):
        sample((0.25, 0.75), 2.5, 3, seed=1)
    with pytest.raises(DomainError, match="n_obs must be an integer, got '3'"):
        sample((0.25, 0.75), 3, "3", seed=1)


@pytest.mark.parametrize("sample", [sample_dmn_dataset, sample_mn_dataset])
def test_numpy_integer_sizes_are_accepted(sample):
    d = sample((0.25, 0.75), np.int64(4), np.int32(3), seed=1)
    assert len(d) == 3
    assert all(o.total == 4 for o in d.observations)


def test_mean_phi_params_point_to_the_phi_form():
    with pytest.raises(DomainError, match="dmn_loglik_phi"):
        sample_dmn_dataset(MeanPhiParams((0.5, 0.5), 0.1), 3, 2, seed=1)


@pytest.mark.parametrize("sample", [sample_dmn_dataset, sample_mn_dataset])
def test_n_trials_past_64_bits_is_a_domain_error(sample):
    d = sample((0.5, 0.5), 2**63 - 1, 2, seed=1)
    assert [o.total for o in d.observations] == [2**63 - 1] * 2
    with pytest.raises(DomainError, match=f"n_trials {2**63} does not fit in 64 bits"):
        sample((0.5, 0.5), 2**63, 2, seed=1)


def test_dirichlet_draw_rounded_past_one_is_accepted():
    # numpy's Dirichlet draws (7.3e-309, 1.0000000000000002) here
    d = sample_dmn_dataset((1.0, 9.373062675601641e307), 5, 1, seed=0)
    assert d.observations[0].counts == (0, 5)


@pytest.mark.parametrize("sample", [sample_dmn_dataset, sample_mn_dataset])
@pytest.mark.parametrize("seed", [-1, [1, -2], 1.5, "x"])
def test_a_seed_numpy_refuses_is_a_domain_error(sample, seed):
    with pytest.raises(DomainError, match=f"seed must be None.*got {re.escape(repr(seed))}$"):
        sample((0.25, 0.75), 3, 2, seed=seed)
