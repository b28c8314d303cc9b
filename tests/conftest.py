"""Shared matrices and generators used across the test modules."""

import math

import numpy as np
import pytest

from artifact import CorrelationMatrix, IndexSubset, TailSet
from artifact.simulate import _gaussian_blocks, _to_pareto


def rect(members, thresholds) -> TailSet:
    """The rectangle {y_s > x_s for every s in members}: k = |S|."""
    return TailSet(IndexSubset(tuple(members)), tuple(thresholds), len(members))


def at_least(thresholds, level) -> TailSet:
    """At least level of all coordinates exceed their thresholds."""
    return TailSet(IndexSubset.full(len(thresholds)), tuple(thresholds), level)


def box_complement(thresholds) -> TailSet:
    """Some coordinate exceeds its threshold: k = 1 over all coordinates."""
    return TailSet(IndexSubset.full(len(thresholds)), tuple(thresholds), 1)


def equi_matrix(d: int, rho: float) -> CorrelationMatrix:
    """Equi-correlation matrix: every off-diagonal entry equals rho."""
    m = np.full((d, d), float(rho))
    np.fill_diagonal(m, 1.0)
    return CorrelationMatrix(m)


def coupled_pair_matrix(rho: float) -> CorrelationMatrix:
    """3x3 family with one tight pair: rho_12 = rho, rho_13 = rho_23 = sqrt(2) rho.

    For rho above 1/(2 sqrt(2) - 1) the third coordinate rides along with the
    pair (active set {1,2}); below it all three coordinates bind.
    """
    r2 = math.sqrt(2.0) * rho
    return CorrelationMatrix(
        np.array([[1.0, rho, r2], [rho, 1.0, r2], [r2, r2, 1.0]])
    )


def two_block_6x6() -> CorrelationMatrix:
    """Block-diagonal 6x6 whose level-3 minimum is tied exactly between blocks.

    Block one is the coupled-pair 3x3 with rho = 0.6 (gamma over {1,2,3} is
    2/1.6 = 1.25 through the pair), block two is 3x3 equi-correlation with
    rho = 0.7 (gamma = 3/2.4 = 1.25 with all three active).
    """
    m = np.eye(6)
    a = coupled_pair_matrix(0.6).entries
    b = equi_matrix(3, 0.7).entries
    m[:3, :3] = a
    m[3:, 3:] = b
    return CorrelationMatrix(m)


def near_tie_4x4() -> CorrelationMatrix:
    """Valid 4x4 matrix whose level-3 and level-4 minima tie within tolerance.

    An exact cross-level tie is impossible for a positive definite matrix, so
    this witness sits a hair away from the singular boundary where the gap
    collapses; it passes the construction gate (smallest eigenvalue 3e-10,
    above the pivot tolerance) while the computed level-3 and level-4 gammas
    come out float-identical.
    """
    a, b, c = 0.500000001, 0.7500000001, 0.5
    return CorrelationMatrix(
        np.array(
            [
                [1.0, a, b, b],
                [a, 1.0, b, b],
                [b, b, 1.0, c],
                [b, b, c, 1.0],
            ]
        )
    )


def tie_block_matrix(d: int) -> CorrelationMatrix:
    """A d x d matrix around a pinned 6x6 block of exact ties.

    In the block, coordinates 1 and 2 have correlation 0.5, coordinates 3-6
    have 0.75 to both and 0.8 to each other: the pairs, triples and the
    quadruple inside 3-6 tie exactly at levels 2-4, and at level 6 the
    minimizer over 1-6 is active on {1,2} with 3-6 exactly on the boundary.
    The other correlations are drawn from [-0.2, 0.2] at a fixed seed until
    the smallest eigenvalue exceeds 0.05.
    """
    block = np.full((6, 6), 0.8)
    block[:2, :] = block[:, :2] = 0.75
    block[0, 1] = block[1, 0] = 0.5
    rng = np.random.default_rng(2)
    while True:
        lower = np.tril(rng.uniform(-0.2, 0.2, size=(d, d)), -1)
        m = lower + lower.T
        m[:6, :6] = block
        np.fill_diagonal(m, 1.0)
        if np.linalg.eigvalsh(m).min() > 0.05:
            return CorrelationMatrix(m)


def random_correlation(rng: np.random.Generator, d: int) -> CorrelationMatrix:
    """Random well-conditioned correlation matrix (exactly symmetric)."""
    a = rng.standard_normal((d, d))
    s = a @ a.T + 0.5 * d * np.eye(d)
    inv_sd = 1.0 / np.sqrt(np.diagonal(s))
    c = s * inv_sd[:, None] * inv_sd[None, :]
    lower = np.tril(c, -1)
    return CorrelationMatrix(lower + lower.T + np.eye(d))


def normal_blocks(cfg):
    """The sampler's normal rows, one block at a time."""
    return (z for _, z in _gaussian_blocks(cfg))


def pareto_blocks(cfg):
    """Coordinates 1-2 of the sampler's heavy-tailed rows, one block at a time."""
    return (_to_pareto(z[:, :2], cfg.marg.alpha) for _, z in _gaussian_blocks(cfg))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)
