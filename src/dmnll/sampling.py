"""Synthetic count data for fitting tests: compound Dirichlet-multinomial draws."""

from __future__ import annotations

import numpy as np

from .core import _MAX_COUNT, AlphaLike, Dataset, DomainError, _as_alpha, _as_simplex, _check_size

__all__ = ["sample_dmn_dataset", "sample_mn_dataset"]


def _check_sizes(n_trials: int, n_obs: int) -> None:
    _check_size("n_trials", n_trials)
    _check_size("n_obs", n_obs)
    # numpy draws counts as 64-bit integers
    if n_trials > _MAX_COUNT:
        raise DomainError(f"n_trials {n_trials} does not fit in 64 bits")


def _rng(seed) -> np.random.Generator:
    """numpy's generator for ``seed``; a seed numpy refuses is a :class:`DomainError`."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise DomainError(
            f"seed must be None, an integer >= 0 or a sequence of them, got {seed!r}"
        ) from None


def sample_dmn_dataset(
    alpha: AlphaLike, n_trials: int, n_obs: int, seed: int | None = None
) -> Dataset:
    """Draw n_obs observations: p ~ Dirichlet(alpha), then counts ~ MN(n_trials, p)."""
    alpha = _as_alpha(alpha)
    _check_sizes(n_trials, n_obs)
    rng = _rng(seed)
    probs = rng.dirichlet(alpha.alpha, size=n_obs)
    # numpy's normalization can round a probability just past 1, which its
    # multinomial refuses
    np.minimum(probs, 1.0, out=probs)
    counts = rng.multinomial(n_trials, probs)
    return Dataset(counts.tolist())


def sample_mn_dataset(
    p, n_trials: int, n_obs: int, seed: int | None = None
) -> Dataset:
    """Draw n_obs plain multinomial observations (the phi = 0 regime)."""
    probs = _as_simplex(p)
    _check_sizes(n_trials, n_obs)
    rng = _rng(seed)
    counts = rng.multinomial(n_trials, np.tile(probs, (n_obs, 1)))
    return Dataset(counts.tolist())
