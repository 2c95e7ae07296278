"""Synthetic count data for fitting tests: compound Dirichlet-multinomial draws."""

from __future__ import annotations

import numpy as np

from .core import AlphaLike, DomainError, _as_alpha, _as_simplex
from .estimate import Dataset

__all__ = ["sample_dmn_dataset", "sample_mn_dataset"]


def _check_sizes(n_trials: int, n_obs: int) -> None:
    for name, n in (("n_trials", n_trials), ("n_obs", n_obs)):
        if n < 0:
            raise DomainError(f"{name} must be >= 0, got {n}")


def sample_dmn_dataset(
    alpha: AlphaLike, n_trials: int, n_obs: int, seed: int | None = None
) -> Dataset:
    """Draw n_obs observations: p ~ Dirichlet(alpha), then counts ~ MN(n_trials, p)."""
    alpha = _as_alpha(alpha)
    _check_sizes(n_trials, n_obs)
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(alpha.alpha, size=n_obs)
    counts = rng.multinomial(n_trials, probs)
    return Dataset(row for row in counts.tolist())


def sample_mn_dataset(
    p, n_trials: int, n_obs: int, seed: int | None = None
) -> Dataset:
    """Draw n_obs plain multinomial observations (the phi = 0 regime)."""
    probs = _as_simplex(p)
    _check_sizes(n_trials, n_obs)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n_trials, np.tile(probs, (n_obs, 1)))
    return Dataset(row for row in counts.tolist())
