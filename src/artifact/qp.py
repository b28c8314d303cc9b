"""Exact structural solver for min z' Sigma^{-1} z subject to z >= 1.

The unique minimizer of this box-constrained quadratic program organizes every
tail constant downstream: the optimal value gamma, the active coordinate set I
(where the minimizer sits on the boundary z_i = 1), the inactive set J (where
it floats above 1), and the positive weights h = Sigma_I^{-1} 1.

The solver enumerates candidate active sets in increasing order of their
candidate value 1' Sigma_I^{-1} 1 and accepts the first candidate whose
assembled point is feasible. Any feasible candidate's assembled point attains
exactly its candidate value, so the first feasible one in value order is the
global minimizer; no iterative QP machinery is needed or wanted.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_ENUMERATION_DIM,
    CorrelationMatrix,
    IndexSubset,
    solve_spd,
    spd_factorize,
)

# Classification threshold for e*_j = 1 versus e*_j > 1 on the inactive set.
# This split feeds the orthant factor downstream (a boundary coordinate
# contributes a half-space, a strictly interior one contributes nothing), so
# it is explicit and tested.
BOUNDARY_EPS = 1e-9

# Strict positivity threshold for the weights h. The degenerate boundary case
# h_j = 0 (coordinate j belongs to the inactive set with e*_j = 1) appears as
# +-1e-17 noise in floating point, so candidates are accepted only when every
# weight clears this margin.
H_TOLERANCE = 1e-10


class SolverInconsistency(RuntimeError):
    """No candidate active set passed both feasibility checks.

    Impossible for a valid positive definite correlation matrix; raising this
    signals numerical breakdown, and the message carries a per-candidate dump.
    """


@dataclass(frozen=True)
class QpSolution:
    """Structural solution of the quadratic program.

    Fields:
        gamma: optimal value 1' Sigma_I^{-1} 1, always > 1 for d >= 2.
        e_star: minimizer, ordered like the coordinates of ``support``.
        active_set: labels I where e*_i = 1 exactly.
        inactive_set: labels J (possibly empty) where e*_j >= 1.
        h: weights Sigma_I^{-1} 1, parallel to active_set.members.
        support: the coordinate labels this solution refers to (the full
            matrix for solve_qp; a subset when produced by SubsetQpSolver).
    """

    gamma: float
    e_star: np.ndarray
    active_set: IndexSubset
    inactive_set: IndexSubset
    h: np.ndarray
    support: IndexSubset


@dataclass(frozen=True)
class ResidualReport:
    """Max violation per solution invariant, for post-hoc certification."""

    stationarity: float        # max |(Sigma^{-1} e*)_J|, 0 when J empty
    min_h: float               # min_i h_i
    min_inactive_slack: float  # min_j (e*_j - 1) over J, +inf when J empty
    gamma_gap: float           # |gamma - 1' Sigma_I^{-1} 1| recomputed fresh
    max_active_violation: float  # max |e*_I - 1|


class SubsetQpSolver:
    """Solves the program restricted to any coordinate subset of one matrix.

    Candidate ingredients depend only on the candidate active set I, not on
    the subset S being solved, so they are cached across calls: a full cone
    scan then costs 2^d factorizations instead of 3^d.

    The solver keeps the entries, not the matrix, so that subset_solver's
    weak cache can release it together with the matrix.
    """

    def __init__(self, sigma: CorrelationMatrix):
        self._entries = sigma.entries
        self._dim = sigma.dim
        self._candidates: dict[tuple[int, ...], tuple[float, np.ndarray, bool]] = {}
        self._solutions: dict[tuple[int, ...], QpSolution] = {}

    def _candidate(self, labels: tuple[int, ...]) -> tuple[float, np.ndarray, bool]:
        """(candidate value, weights h, all-weights-positive) for active set labels."""
        cached = self._candidates.get(labels)
        if cached is not None:
            return cached
        idx = np.asarray(labels, dtype=int) - 1
        block = self._entries[np.ix_(idx, idx)]
        h = solve_spd(spd_factorize(block), np.ones(len(labels)))
        value = float(np.sum(h))
        ok = bool(np.min(h) > H_TOLERANCE)
        self._candidates[labels] = (value, h, ok)
        return value, h, ok

    def solve(self, subset: IndexSubset) -> QpSolution:
        """Solve over the coordinates in ``subset`` (labels of the parent matrix)."""
        subset.validate_within(self._dim)
        if len(subset) == 0:
            raise ValueError("cannot solve the program over an empty subset")
        key = subset.members
        cached = self._solutions.get(key)
        if cached is not None:
            return cached

        ranked = []
        for size in range(1, len(subset) + 1):
            for combo in itertools.combinations(subset.members, size):
                value, h, ok = self._candidate(combo)
                ranked.append((value, size, combo, h, ok))
        ranked.sort(key=lambda item: (item[0], item[1], item[2]))

        entries = self._entries
        for value, _, combo, h, ok in ranked:
            if not ok:
                continue
            inactive = tuple(m for m in subset.members if m not in combo)
            if inactive:
                rows = np.asarray(inactive, dtype=int) - 1
                cols = np.asarray(combo, dtype=int) - 1
                e_inactive = entries[np.ix_(rows, cols)] @ h
                if np.min(e_inactive) < 1.0 - BOUNDARY_EPS:
                    continue
            else:
                e_inactive = np.empty(0)
            e_star = np.ones(len(subset))
            if inactive:
                inactive_pos = {m: p for p, m in enumerate(subset.members)}
                for lab, val in zip(inactive, e_inactive):
                    e_star[inactive_pos[lab]] = val
            solution = QpSolution(
                gamma=value,
                e_star=e_star,
                active_set=IndexSubset(combo),
                inactive_set=IndexSubset(inactive),
                h=np.array(h),
                support=subset,
            )
            self._solutions[key] = solution
            return solution

        dump = "; ".join(
            f"I={combo}: value={value:.6g}, min_h={np.min(h):.3e}, ok={ok}"
            for value, _, combo, h, ok in ranked
        )
        raise SolverInconsistency(
            f"no candidate active set is feasible over {subset} (numerical "
            f"breakdown). Candidates: {dump}"
        )


_SOLVERS: weakref.WeakKeyDictionary[CorrelationMatrix, SubsetQpSolver] = (
    weakref.WeakKeyDictionary()
)


def subset_solver(sigma: CorrelationMatrix) -> SubsetQpSolver:
    """The one solver of ``sigma``: every subset of a matrix is solved once.

    CorrelationMatrix is immutable and hashes by identity, so the cache is
    keyed by the matrix object and drops the solver with the matrix.
    """
    solver = _SOLVERS.get(sigma)
    if solver is None:
        solver = _SOLVERS[sigma] = SubsetQpSolver(sigma)
    return solver


def solve_qp(sigma: CorrelationMatrix) -> QpSolution:
    """Solve min z' Sigma^{-1} z subject to z >= 1 for the full matrix.

    Args:
        sigma: valid correlation matrix with 2 <= d <= 12.

    Returns:
        The unique QpSolution; repeated calls are bit-identical.

    Raises:
        SolverInconsistency: numerical breakdown (never for valid input).
    """
    if sigma.dim < 2 or sigma.dim > MAX_ENUMERATION_DIM:
        raise ValueError(
            f"solve_qp supports 2 <= d <= {MAX_ENUMERATION_DIM}, got d={sigma.dim}"
        )
    return subset_solver(sigma).solve(IndexSubset.full(sigma.dim))


def kkt_residuals(sigma: CorrelationMatrix, sol: QpSolution) -> ResidualReport:
    """Recompute every invariant of ``sol`` directly from ``sigma``.

    For a correct solution: stationarity < 1e-9, min_h > 0, inactive slack
    >= -BOUNDARY_EPS, gamma_gap < 1e-10, active violation 0.
    """
    labels = sol.support
    idx = labels.as_indices()
    block = sigma.entries[np.ix_(idx, idx)]
    fact = spd_factorize(block)
    grad = solve_spd(fact, sol.e_star)

    active_pos = sol.active_set.positions_in(labels)
    inactive_pos = sol.inactive_set.positions_in(labels)

    stationarity = float(np.max(np.abs(grad[inactive_pos]))) if len(inactive_pos) else 0.0
    slack = (
        float(np.min(sol.e_star[inactive_pos] - 1.0)) if len(inactive_pos) else float("inf")
    )
    sub = block[np.ix_(active_pos, active_pos)]
    h_fresh = solve_spd(spd_factorize(sub), np.ones(len(active_pos)))
    return ResidualReport(
        stationarity=stationarity,
        min_h=float(np.min(sol.h)),
        min_inactive_slack=slack,
        gamma_gap=abs(sol.gamma - float(np.sum(h_fresh))),
        max_active_violation=float(np.max(np.abs(sol.e_star[active_pos] - 1.0))),
    )

