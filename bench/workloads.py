"""Workload definitions: one generated job config per workload and seed.

Every input is drawn from the workload seed, so the same seed gives the same
config file byte for byte. The program only ever sees the generated config.
Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# The seed whose outputs are recorded under reference/; any other seed gets
# the schema check only.
DEFAULT_SEED = 1

ALPHA = 2.0

# Smallest eigenvalue a generated matrix must keep, so that every Cholesky
# pivot stays far above the library's positive-definiteness tolerance.
MIN_EIGENVALUE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # Rows sampled per command (0 for analyze); rows_per_s is n / run_s.
    n: int
    # CSV files the command writes.
    outputs: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-d10", "analyze", 0, ("cones.csv", "sets.csv")),
        Workload("simulate-d12", "simulate", 500_000, ("hill.csv", "condprob.csv")),
        Workload(
            "verify-d6",
            "verify",
            4_000_000,
            ("verify_1.csv", "verify_2.csv", "verify_3.csv", "verify_4.csv"),
        ),
    )
}


def _symmetric(lower_entries: np.ndarray) -> np.ndarray:
    lower = np.tril(lower_entries, -1)
    return lower + lower.T + np.eye(lower.shape[0])


def _tie_block() -> np.ndarray:
    """Pinned 6x6 block of the analyze matrix.

    Coordinates 1 and 2 have correlation 0.5; coordinates 3-6 have 0.75 to
    both of them and 0.8 to each other. The pairs, triples and the quadruple
    inside 3-6 tie exactly at levels 2-4, the two 5-sets {1 or 2} + {3..6}
    tie at level 5, and at level 6 the minimizer over 1-6 is active on {1,2}
    with 3-6 exactly on the boundary (0.75 * 2 / 1.5 = 1), which sends the
    tail constant through the 4-dimensional orthant QMC.
    """
    block = np.full((6, 6), 0.8)
    block[:2, :] = block[:, :2] = 0.75
    block[0, 1] = block[1, 0] = 0.5
    np.fill_diagonal(block, 1.0)
    return block


def analyze_sigma(rng: np.random.Generator, d: int = 10) -> np.ndarray:
    """Tie block plus d - 6 coordinates with weak random correlations.

    |rho| <= 0.3 outside the block keeps every pair, triple and boundary
    decision away from the pinned ones, so the tie structure and the amount
    of work are the same at every seed.
    """
    while True:
        m = _symmetric(rng.uniform(-0.3, 0.3, size=(d, d)))
        m[:6, :6] = _tie_block()
        if np.linalg.eigvalsh(m).min() > MIN_EIGENVALUE:
            return m


def uniform_sigma(rng: np.random.Generator, d: int, low: float, high: float) -> np.ndarray:
    """Correlations drawn uniformly from [low, high], redrawn until positive definite."""
    while True:
        m = _symmetric(rng.uniform(low, high, size=(d, d)))
        if np.linalg.eigvalsh(m).min() > MIN_EIGENVALUE:
            return m


def wishart_sigma(rng: np.random.Generator, d: int) -> np.ndarray:
    """Normalized A A' + d/2 I: mixed-sign correlations, smallest eigenvalue
    bounded away from 0 at any d."""
    a = rng.standard_normal((d, d))
    s = a @ a.T + 0.5 * d * np.eye(d)
    inv_sd = 1.0 / np.sqrt(np.diagonal(s))
    return _symmetric(s * inv_sd[:, None] * inv_sd[None, :])


def job_config(name: str, seed: int) -> dict:
    """The JSON job config of one workload at one seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    if name == "analyze-d10":
        d = 10
        ones = [1.0] * d
        return {
            "sigma": analyze_sigma(rng, d).tolist(),
            "alpha": ALPHA,
            "sets": [
                {"type": "rectangular", "subset": list(range(1, d + 1)), "thresholds": ones},
                {"type": "rectangular", "subset": list(range(1, 7)), "thresholds": [1.0] * 6},
                {"type": "at-least", "level": 2, "thresholds": ones},
                {"type": "at-least", "level": 3, "thresholds": ones},
                {"type": "complement-box", "thresholds": ones},
            ],
            "t_grid": [10.0, 100.0, 1000.0],
        }
    if name == "simulate-d12":
        return {
            "sigma": wishart_sigma(rng, 12).tolist(),
            "alpha": ALPHA,
            "sets": [],
            "t_grid": [],
            "simulation": {"n": WORKLOADS[name].n, "seed": seed},
        }
    if name == "verify-d6":
        d = 6
        ones = [1.0] * d
        return {
            "sigma": uniform_sigma(rng, d, 0.3, 0.6).tolist(),
            "alpha": ALPHA,
            "sets": [
                {"type": "rectangular", "subset": [1, 2], "thresholds": [1.0, 1.0]},
                {"type": "rectangular", "subset": [3, 4], "thresholds": [1.0, 1.0]},
                {"type": "at-least", "level": 2, "thresholds": ones},
                {"type": "complement-box", "thresholds": ones},
            ],
            "t_grid": [10.0, 14.0, 20.0, 28.0, 40.0],
            "simulation": {"n": WORKLOADS[name].n, "seed": seed},
        }
    raise KeyError(name)


def write_config(name: str, seed: int, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(job_config(name, seed), fh, indent=1)
        fh.write("\n")
