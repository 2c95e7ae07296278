"""Tests for the synthetic-data helpers."""

import pytest

from dmnll import DomainError, sample_dmn_dataset, sample_mn_dataset


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
