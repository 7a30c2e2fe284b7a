"""Reproducible random sampling utilities for the Monte Carlo engine."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "make_rng",
    "spawn_rngs",
    "block_rng",
    "seed_entropy",
    "truncated_normal",
    "truncated_normal_from_uniform",
    "alpha_samples",
    "alpha_from_uniform",
    "uniform_from_alpha",
]


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a Generator; pass through if one is given already."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """n independent generators from one seed (for chunked / parallel MC)."""
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def block_rng(entropy: int | None, key: Sequence[int]) -> np.random.Generator:
    """Child generator at spawn-tree position ``key`` under root ``entropy``.

    ``block_rng(seed, (i,))`` draws the same stream as ``spawn_rngs(seed,
    n)[i]`` for any ``n > i``: a ``SeedSequence`` child is fully addressed
    by ``(entropy, spawn_key)``, so parallel workers can build exactly the
    generator their block needs without materializing the whole spawn list.
    """
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def seed_entropy(seed: int | np.random.Generator | None = 0) -> int:
    """Root entropy of a deterministic spawn tree, from any seed spec.

    Integers pass through unchanged; ``None`` draws fresh OS entropy; a
    Generator contributes one draw from its own stream (reproducible given
    the generator's state).
    """
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63))
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def truncated_normal(
    rng: np.random.Generator,
    mu: float,
    sigma: float,
    z_lo: float,
    z_hi: float,
    size: int,
) -> np.ndarray:
    """Samples from N(mu, sigma) truncated to ``[mu + z_lo*sigma, mu + z_hi*sigma]``.

    Uses the inverse-CDF method (vectorized, no rejection loop), which is
    exact and fast for the mild truncations used here.
    """
    if sigma == 0.0:
        return np.full(size, mu)
    if z_lo >= z_hi:
        raise ValueError("z_lo must be < z_hi")
    u = rng.random(size)
    return truncated_normal_from_uniform(u, mu, sigma, z_lo, z_hi)


def truncated_normal_from_uniform(
    u: np.ndarray,
    mu: float,
    sigma: float,
    z_lo: float,
    z_hi: float,
) -> np.ndarray:
    """The deterministic tail of :func:`truncated_normal`.

    Maps already-drawn uniforms through the inverse CDF.  Batch engines
    (``repro.fleet.soa``) draw per-device uniforms in stream order and
    push a whole programming round through this in one call; sharing the
    expression with :func:`truncated_normal` keeps the two paths
    bit-identical.
    """
    if z_lo >= z_hi:
        raise ValueError("z_lo must be < z_hi")
    p_lo, p_hi = ndtr(z_lo), ndtr(z_hi)
    z = ndtri(p_lo + np.asarray(u) * (p_hi - p_lo))
    return mu + sigma * z


def alpha_samples(
    rng: np.random.Generator, mu_alpha: float, sigma_alpha: float, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drift exponents truncated at zero, plus their standardized quantiles.

    Returns ``(alpha, z)`` where ``alpha = mu + z * sigma`` and ``z`` is used
    by correlated tier escalation (a fast cell stays fast after escalation).
    A degenerate distribution (``mu_alpha == 0`` or ``sigma_alpha == 0``)
    is a constant and makes no draw.
    """
    if mu_alpha == 0.0 or sigma_alpha == 0.0:
        return np.full(size, mu_alpha), np.zeros(size)
    return alpha_from_uniform(rng.random(size), mu_alpha, sigma_alpha)


def alpha_from_uniform(
    u: np.ndarray, mu_alpha: float, sigma_alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic tail of :func:`alpha_samples`: ``(alpha, z)`` of
    already-drawn uniforms, through the inverse CDF of the exponent
    distribution truncated at zero (``sigma_alpha > 0``).  Increasing in
    ``u``."""
    z_lo = -mu_alpha / sigma_alpha  # alpha >= 0
    p_lo = ndtr(z_lo)
    z = ndtri(p_lo + np.asarray(u) * (1.0 - p_lo))
    return mu_alpha + sigma_alpha * z, z


def uniform_from_alpha(
    alpha: np.ndarray, mu_alpha: float, sigma_alpha: float
) -> np.ndarray:
    """Inverse of :func:`alpha_from_uniform`: the uniform that maps to
    ``alpha`` (``0`` at or below zero, ``1`` at ``inf``)."""
    p_lo = ndtr(-mu_alpha / sigma_alpha)
    p = ndtr((np.asarray(alpha, dtype=float) - mu_alpha) / sigma_alpha)
    return np.clip((p - p_lo) / (1.0 - p_lo), 0.0, 1.0)
