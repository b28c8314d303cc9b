"""Exact structural solver for min z' Sigma^{-1} z subject to z >= 1.

The unique minimizer of this box-constrained quadratic program organizes every
tail constant downstream: the optimal value gamma, the active coordinate set I
(where the minimizer sits on the boundary z_i = 1), the inactive set J (where
it floats above 1), and the positive weights h = Sigma_I^{-1} 1.

The solver works on the dual. With Sigma = L L', the dual is the nonnegative
least squares problem lam = argmin ||L' lam - L^{-1} 1||, lam >= 0
(Lawson & Hanson, "Solving Least Squares Problems", 1974; the program's form
is the one of Hashorva & Huesler, "On multivariate Gaussian tails", 2003). Its
solution gives the minimizer e* = Sigma lam, the value gamma = 1' lam and the
active set I* = {lam > H_TOLERANCE}. The solver runs Lawson and Hanson's
active-set method on the Gram form of that problem (Bro & de Jong, "A fast
non-negativity-constrained least squares algorithm", J. Chemometrics 11,
1997), where A'A = Sigma and A'b = 1, so each step solves a principal block
of Sigma against ones. It is warm-started with every coordinate passive:
where h = Sigma^{-1} 1 is positive, lam = h and no step is taken.

The discrete decisions are those of ranking every candidate active set I by
(value v = 1' Sigma_I^{-1} 1, size, labels) and accepting the first whose
weights h = Sigma_I^{-1} 1 exceed H_TOLERANCE and whose assembled point
z = Sigma_{.I} h is >= 1 - BOUNDARY_EPS off I. Such a candidate is a dual
point lam_I = h with dual value v, so v <= gamma; z / (1 - BOUNDARY_EPS) is
feasible, so v >= gamma (1 - BOUNDARY_EPS)^2. Because e* >= 1 and
(e* - 1)' lam = 0,

    (lam_I - lam)' Sigma (lam_I - lam) <= gamma - v
                                       <= gamma (1 - (1 - BOUNDARY_EPS)^2) < r^2

with r^2 = 4 BOUNDARY_EPS gamma, twice the bound to absorb rounding in lam.
A candidate that drops a set R from I* has lam_I = 0 on R, and one that adds
a set A has z = Sigma lam_I = 1 on A. The least (lam_I - lam)' Sigma
(lam_I - lam) under both constraints is d(R) + d(A), with
d(R) = lam_R' ((Sigma^{-1})_RR)^{-1} lam_R and
d(A) = (e*_A - 1)' (Sigma_AA)^{-1} (e*_A - 1), since the two constraint sets
are orthogonal in that inner product. So only candidates with
d(R) + d(A) < r^2 can pass. The solver ranks that window (I* alone in almost
every solve) and accepts the first candidate that passes, computing each
candidate's weights with spd_factorize and solve_spd as the full ranking
would, so its decisions and bits are the ranking's.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_DIM, CorrelationMatrix, IndexSubset, solve_spd, spd_factorize

# Classification threshold for e*_j = 1 versus e*_j > 1 on the inactive set,
# drawn once, in SubsetQpSolver._assemble (QpSolution.boundary_set). It feeds
# the orthant factor downstream (a boundary coordinate contributes a
# half-space, a strictly interior one nothing), so it is explicit and tested.
BOUNDARY_EPS = 1e-9

# Strict positivity threshold for the weights h. The degenerate boundary case
# h_j = 0 (coordinate j belongs to the inactive set with e*_j = 1) appears as
# +-1e-17 noise in floating point, so candidates are accepted only when every
# weight clears this margin.
H_TOLERANCE = 1e-10

# Rounding allowance of a dual lower bound (SubsetQpSolver.dual_bounds),
# relative to (1 + 1' lam)^2: the rounding of the bound and of the value
# solve computes through spd_factorize both grow with the square of the
# weights. The excess it absorbs was at most 1e-4 of it on random and
# nearly singular matrices (smallest eigenvalue down to 3e-10).
BOUND_MARGIN = 1e-12

# The most passes the dual's active-set loop may make before solve gives up
# with SolverInconsistency. Each pass but the last adds one coordinate to the
# passive set or removes at least one. Warm-started, the loop took at most 46
# passes on nearly singular matrices up to d = 64, and one on most subsets.
_DUAL_MAX_PASSES = 3 * MAX_DIM


class SolverInconsistency(RuntimeError):
    """No candidate active set in the tie window passed both feasibility checks.

    Impossible for a valid positive definite correlation matrix; raising this
    signals numerical breakdown, and the message carries a per-candidate dump.
    """


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Structural solution of the quadratic program, compared and hashed
    by identity (its ndarray fields have no single truth value).

    Fields:
        gamma: optimal value 1' Sigma_I^{-1} 1, always > 1 for d >= 2.
        e_star: minimizer, ordered like the coordinates of ``support``.
        active_set: labels I where e*_i = 1 exactly.
        inactive_set: labels J (possibly empty) where e*_j >= 1.
        h: weights Sigma_I^{-1} 1, parallel to active_set.members.
        support: the coordinate labels the program was solved over.
        boundary_set: labels j of J with |e*_j - 1| <= BOUNDARY_EPS; only
            these enter the orthant factor of the tail constant.
    """

    gamma: float
    e_star: np.ndarray
    active_set: IndexSubset
    inactive_set: IndexSubset
    h: np.ndarray
    support: IndexSubset
    boundary_set: IndexSubset


@dataclass(frozen=True)
class ResidualReport:
    """Max violation per solution invariant, for post-hoc certification."""

    stationarity: float        # max |Sigma_S lam - e*|, lam = h on I and 0 on J
    min_h: float               # min_i h_i
    min_inactive_slack: float  # min_j (e*_j - 1) over J, +inf when J empty
    gamma_gap: float           # |gamma - 1' Sigma_I^{-1} 1| recomputed fresh
    max_active_violation: float  # max |e*_I - 1|


class SubsetQpSolver:
    """Solves the program restricted to any coordinate subset of one matrix.

    Each subset is solved once, and each size's dual bounds are computed
    once; later calls return the cached values. The solver keeps the
    entries, not the matrix, so that subset_solver's weak cache can release
    it together with the matrix.
    """

    def __init__(self, sigma: CorrelationMatrix):
        self._entries = sigma.entries
        self._dim = sigma.dim
        self._solutions: dict[tuple[int, ...], QpSolution] = {}
        self._bounds: dict[tuple[tuple[int, ...], int], tuple[np.ndarray, np.ndarray]] = {}

    def _candidate(self, labels: tuple[int, ...]) -> tuple:
        """(value 1'h, size, labels, h = Sigma_I^{-1} 1) of active set labels."""
        idx = np.asarray(labels, dtype=int) - 1
        h = solve_spd(spd_factorize(self._entries[np.ix_(idx, idx)]), np.ones(len(labels)))
        return float(np.sum(h)), len(labels), labels, h

    def _assemble(
        self, subset: IndexSubset, value: float, labels: tuple[int, ...], h: np.ndarray
    ) -> QpSolution | None:
        """The solution with active set labels, or None when it fails a check;
        the one place where its inactive coordinates are classified."""
        if not h.min() > H_TOLERANCE:
            return None
        inactive_pos = [p for p, m in enumerate(subset.members) if m not in labels]
        inactive = tuple(subset.members[p] for p in inactive_pos)
        e_star = np.ones(len(subset))
        boundary: tuple[int, ...] = ()
        if inactive:
            rows = np.asarray(inactive, dtype=int) - 1
            cols = np.asarray(labels, dtype=int) - 1
            e_inactive = self._entries[np.ix_(rows, cols)] @ h
            if e_inactive.min() < 1.0 - BOUNDARY_EPS:
                return None
            e_star[inactive_pos] = e_inactive
            boundary = tuple(m for m, e in zip(inactive, e_inactive) if abs(e - 1.0) <= BOUNDARY_EPS)
        return QpSolution(
            gamma=value,
            e_star=e_star,
            active_set=IndexSubset(labels),
            inactive_set=IndexSubset(inactive),
            h=np.array(h),
            support=subset,
            boundary_set=IndexSubset(boundary),
        )

    def dual_bounds(
        self, labels: tuple[int, ...], size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lower bounds on gamma for every size-subset of labels, computed
        once per (labels, size): the subsets as rows of sorted labels, and
        their bounds, both in increasing order of the bound.

        By weak duality, 2 1'lam - lam' Sigma_S lam <= gamma_S for every
        lam >= 0. The bound takes lam = max(h, 0) with h = Sigma_S^{-1} 1,
        improved by two projected coordinate-ascent sweeps
        lam_i <- max(0, 1 - sum_{j != i} Sigma_ij lam_j); it is gamma_S
        itself where h > 0. All subsets of one size are bounded at once, on
        the stack of their principal blocks. solve certifies its value only
        to a factor (1 - BOUNDARY_EPS)^2 of gamma_S (module docstring), so
        each bound is lowered by 2 BOUNDARY_EPS of itself, and by
        BOUND_MARGIN (1 + 1' lam)^2 for rounding: it stays below the value
        solve returns.
        """
        key = (labels, size)
        cached = self._bounds.get(key)
        if cached is None:
            pos = np.fromiter(
                itertools.chain.from_iterable(itertools.combinations(range(len(labels)), size)),
                dtype=np.intp,
            ).reshape(-1, size)
            subsets = np.asarray(labels, dtype=np.intp)[pos]
            idx = subsets - 1
            blocks = self._entries[idx[:, :, None], idx[:, None, :]]
            lam = np.maximum(np.linalg.solve(blocks, np.ones(idx.shape + (1,)))[..., 0], 0.0)
            for _ in range(2):
                for i in range(size):
                    pull = np.einsum("mj,mj->m", blocks[:, i, :], lam) - lam[:, i]
                    lam[:, i] = np.maximum(0.0, 1.0 - pull)
            total = lam.sum(axis=1)
            bounds = 2.0 * total - np.einsum("mi,mij,mj->m", lam, blocks, lam)
            bounds -= 2.0 * BOUNDARY_EPS * np.abs(bounds) + BOUND_MARGIN * (1.0 + total) ** 2
            order = np.argsort(bounds, kind="stable")
            cached = self._bounds[key] = (subsets[order], bounds[order])
        return cached

    def solve(self, subset: IndexSubset) -> QpSolution:
        """Solve over the coordinates in ``subset`` (labels of the parent matrix)."""
        subset.validate_within(self._dim)
        if len(subset) == 0:
            raise ValueError("cannot solve the program over an empty subset")
        key = subset.members
        cached = self._solutions.get(key)
        if cached is not None:
            return cached

        idx = np.asarray(key, dtype=int) - 1
        block = self._entries[np.ix_(idx, idx)]
        lam = _dual_weights(block)
        e_star = block @ lam
        gamma = float(np.sum(lam))
        # The tie window of the module docstring: the candidates that drop a
        # set R of positions from I* and add a set A with d(R) + d(A) <= r^2.
        budget = 4.0 * BOUNDARY_EPS * gamma
        in_dual = lam > H_TOLERANCE
        drops = _within(np.linalg.inv(block), lam, in_dual, budget)
        adds = _within(block, e_star - 1.0, ~in_dual, budget)
        window = []
        for drop, d_drop in drops.items():
            kept = [m for p, m in enumerate(key) if in_dual[p] and p not in drop]
            for add, d_add in adds.items():
                labels = tuple(sorted(kept + [key[p] for p in add]))
                if labels and d_drop + d_add <= budget:
                    window.append(self._candidate(labels))
        window.sort(key=lambda item: item[:3])
        solution = None
        for value, _, labels, h in window:
            solution = self._assemble(subset, value, labels, h)
            if solution is not None:
                break
        if solution is None:
            dump = "; ".join(
                f"I={labels}: value={value:.6g}, min_h={np.min(h):.3e}, "
                f"ok={bool(np.min(h) > H_TOLERANCE)}"
                for value, _, labels, h in window
            )
            raise SolverInconsistency(
                f"no candidate active set is feasible over {subset} (numerical "
                f"breakdown). Candidates: {dump}"
            )
        self._solutions[key] = solution
        return solution


def _dual_weights(gram: np.ndarray) -> np.ndarray:
    """lam = argmin lam' gram lam - 2 1' lam over lam >= 0.

    Lawson and Hanson's active-set loop on the Gram form. It starts with
    every coordinate passive: s = gram^{-1} 1 and lam = max(s, 0), which is
    the answer after one solve where s > 0. While s, the minimizer over the
    passive coordinates, has a nonpositive weight, lam steps toward s until
    the first such weight reaches zero, and the weights at zero leave the
    passive set (from the start the step is empty, and every nonpositive
    coordinate leaves). Otherwise lam = s, and the coordinate with the
    largest gradient 1 - (gram lam)_j above rounding joins the passive set,
    or the loop ends.
    """
    n = len(gram)
    tol = 10.0 * n * np.finfo(float).eps
    passive = np.ones(n, dtype=bool)
    s = np.linalg.solve(gram, np.ones(n))
    lam = np.maximum(s, 0.0)
    for _ in range(_DUAL_MAX_PASSES):
        short = np.flatnonzero(passive & (s <= 0.0))
        if short.size:
            # lam >= 0 >= s here; a weight at zero on both sides steps by 0
            ratios = lam[short] / np.maximum(lam[short] - s[short], np.finfo(float).tiny)
            lam = lam + ratios.min() * (s - lam)
            lam[short[np.argmin(ratios)]] = 0.0
            passive &= lam > 0.0
            lam[~passive] = 0.0
        else:
            lam = s
            grad = 1.0 - gram @ lam
            grad[passive] = -np.inf
            t = int(np.argmax(grad))
            if not grad[t] > tol * (1.0 + lam.sum()):
                return lam
            passive[t] = True
        s = np.zeros(n)
        s[passive] = np.linalg.solve(gram[np.ix_(passive, passive)], np.ones(passive.sum()))
    raise SolverInconsistency(
        f"the dual active-set loop did not converge in {_DUAL_MAX_PASSES} passes "
        "(numerical breakdown)"
    )


def _within(
    gram: np.ndarray, vec: np.ndarray, mask: np.ndarray, budget: float
) -> dict[tuple[int, ...], float]:
    """Every set P of positions where mask holds with vec_P' gram_PP^{-1} vec_P
    <= budget, mapped to that form.

    The form only grows with P, so every such set is grown one position at a
    time from a smaller one within the budget, starting from the empty set;
    in almost every solve no single position is within it.
    """
    singles = np.flatnonzero(mask & (vec * vec <= budget * np.diagonal(gram))).tolist()
    found = {(): 0.0}
    frontier = [()]
    while frontier:
        grown = []
        for base in frontier:
            for q in singles:
                if base and q <= base[-1]:
                    continue
                pos = base + (q,)
                v = vec[list(pos)]
                form = float(v @ np.linalg.solve(gram[np.ix_(pos, pos)], v))
                if form <= budget:
                    found[pos] = form
                    grown.append(pos)
        frontier = grown
    return found


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
        sigma: valid correlation matrix with 2 <= d <= 64.

    Returns:
        The unique QpSolution; repeated calls are bit-identical.

    Raises:
        SolverInconsistency: numerical breakdown (never for valid input).
    """
    if sigma.dim < 2:
        raise ValueError(f"solve_qp supports 2 <= d <= {MAX_DIM}, got d={sigma.dim}")
    return subset_solver(sigma).solve(IndexSubset.full(sigma.dim))


def kkt_residuals(sigma: CorrelationMatrix, sol: QpSolution) -> ResidualReport:
    """Recompute every invariant of ``sol`` directly from ``sigma``.

    For a correct solution: stationarity < 1e-9, min_h > 0, inactive slack
    >= -BOUNDARY_EPS, gamma_gap < 1e-10, active violation 0.
    """
    labels = sol.support
    idx = labels.as_indices()
    block = sigma.entries[np.ix_(idx, idx)]
    active_pos = sol.active_set.positions_in(labels)
    inactive_pos = sol.inactive_set.positions_in(labels)

    lam = np.zeros(len(labels))
    lam[active_pos] = sol.h
    slack = (
        float(np.min(sol.e_star[inactive_pos] - 1.0)) if len(inactive_pos) else float("inf")
    )
    sub = block[np.ix_(active_pos, active_pos)]
    h_fresh = solve_spd(spd_factorize(sub), np.ones(len(active_pos)))
    return ResidualReport(
        stationarity=float(np.max(np.abs(block @ lam - sol.e_star))),
        min_h=float(np.min(sol.h)),
        min_inactive_slack=slack,
        gamma_gap=abs(sol.gamma - float(np.sum(h_fresh))),
        max_active_violation=float(np.max(np.abs(sol.e_star[active_pos] - 1.0))),
    )

