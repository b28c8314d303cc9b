"""Validated dense symmetric linear algebra for small correlation matrices.

Everything downstream (the box-constrained quadratic program, the Gaussian
tail constants, the sampler) runs on principal submatrices of one small
correlation matrix, so the representation stays dense and the validation
strict. Dimensions are desk-scale: everything accepts d <= MAX_DIM = 64.

Solves against a Cholesky factor are forward and back substitution written
in numpy, one row of the factor at a time; at these sizes that costs little,
and it keeps scipy.linalg, with its import time, off every command's path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# Factorization pivots must exceed this; near-singular correlation matrices
# (off-diagonals approaching +-1) are out of scope.
PD_TOLERANCE = 1e-10

# Relative asymmetry tolerated by spd_factorize. The library passes it only
# principal blocks of exactly symmetric matrices, but arrays from public
# callers may be symmetric only to rounding (a product A A'), so this
# cannot be exact the way CorrelationMatrix construction is.
SYMMETRY_TOLERANCE = 1e-10

MAX_DIM = 64


class NotPositiveDefinite(ValueError):
    """A symmetric factorization hit a pivot at or below PD_TOLERANCE."""

    def __init__(self, minor: int, pivot: float):
        self.minor = minor
        self.pivot = pivot
        super().__init__(
            "matrix is not positive definite: leading minor of order "
            f"{minor} has pivot {pivot:.6e} <= {PD_TOLERANCE:.1e}"
        )


@dataclass(frozen=True)
class IndexSubset:
    """Nonempty-or-empty set of 1-based coordinate labels, kept sorted.

    Labels are 1-based to match the reporting convention used everywhere in
    this package (active sets are printed as {1,2}, not {0,1}). Conversion to
    0-based numpy indices happens only at the slicing boundary.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        # operator.index takes numpy integers but not 1.7; bool it would take.
        try:
            members = tuple(self.members)
            if any(isinstance(m, bool) for m in members):
                raise TypeError
            normalized = tuple(map(operator.index, members))
        except TypeError:
            raise ValueError(f"index labels must be integers, got {self.members!r}") from None
        if any(m < 1 for m in normalized):
            raise ValueError(f"index labels must be >= 1, got {normalized}")
        if len(set(normalized)) != len(normalized):
            raise ValueError(f"duplicate index labels in {normalized}")
        object.__setattr__(self, "members", tuple(sorted(normalized)))

    @classmethod
    def of(cls, *labels: int) -> "IndexSubset":
        return cls(tuple(labels))

    @classmethod
    def full(cls, dim: int) -> "IndexSubset":
        return cls(tuple(range(1, dim + 1)))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def as_indices(self) -> np.ndarray:
        """0-based integer indices for numpy slicing."""
        return np.asarray(self.members, dtype=int) - 1

    def positions_in(self, sup: "IndexSubset") -> np.ndarray:
        """0-based positions of this subset's labels within ``sup``'s ordering."""
        lookup = {label: pos for pos, label in enumerate(sup.members)}
        try:
            return np.asarray([lookup[m] for m in self.members], dtype=int)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]} not contained in {sup.members}") from exc

    def validate_within(self, dim: int) -> None:
        if self.members and self.members[-1] > dim:
            raise ValueError(
                f"index label {self.members[-1]} out of range for dimension {dim}"
            )

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self.members) + "}"


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """Symmetric positive definite matrix with unit diagonal.

    Invariants enforced at construction:
      - exactly symmetric (no silent symmetrization; asymmetric input is a
        typo that must surface),
      - unit diagonal, exactly,
      - off-diagonal magnitudes strictly below 1,
      - positive definite: the Cholesky pivots all exceed PD_TOLERANCE.

    The entries array is stored read-only.
    """

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {a.shape}")
        d = a.shape[0]
        if d < 1 or d > MAX_DIM:
            raise ValueError(f"dimension {d} outside supported range [1, {MAX_DIM}]")
        if not np.all(np.isfinite(a)):
            raise ValueError("correlation matrix entries must be finite")
        if not np.array_equal(a, a.T):
            j, k = np.argwhere(a != a.T)[0]
            raise ValueError(
                f"correlation matrix not symmetric: entry ({j + 1},{k + 1}) is "
                f"{a[j, k]!r} but ({k + 1},{j + 1}) is {a[k, j]!r}"
            )
        if not np.all(np.diagonal(a) == 1.0):
            j = int(np.argwhere(np.diagonal(a) != 1.0)[0][0])
            raise ValueError(f"diagonal entry ({j + 1},{j + 1}) must equal 1 exactly")
        off = a[~np.eye(d, dtype=bool)]
        if off.size and np.max(np.abs(off)) >= 1.0:
            raise ValueError("off-diagonal magnitudes must be strictly below 1")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "dim", d)
        # Positive definiteness is part of the type's contract, so the
        # factorization runs eagerly and its failure is a construction error.
        _cholesky_lower(a)

    def __repr__(self) -> str:
        return f"CorrelationMatrix(dim={self.dim})"


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Row-by-row Cholesky with explicit pivot control.

    Hand-rolled rather than delegated so the failing leading minor and the
    offending pivot value are available for the error message, and so the
    pivot tolerance is exactly PD_TOLERANCE rather than LAPACK's internal
    breakdown criterion.
    """
    d = a.shape[0]
    lower = np.zeros((d, d))
    for j in range(d):
        row = lower[j, :j]
        pivot = a[j, j] - row @ row
        if pivot <= PD_TOLERANCE:
            raise NotPositiveDefinite(minor=j + 1, pivot=float(pivot))
        root = math.sqrt(pivot)
        lower[j, j] = root
        if j + 1 < d:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ row) / root
    return lower


def spd_factorize(m) -> np.ndarray:
    """Factor a symmetric positive definite matrix.

    Args:
        m: square array-like or CorrelationMatrix; must be symmetric to
           relative tolerance SYMMETRY_TOLERANCE (the lower triangle is the
           one actually read).

    Returns:
        The lower-triangular factor L with L L' = m.

    Raises:
        NotPositiveDefinite: if any pivot falls at or below PD_TOLERANCE;
            the exception names the failing leading minor.
        ValueError: non-square, oversized, non-finite or visibly asymmetric input.
    """
    if isinstance(m, CorrelationMatrix):
        a = m.entries
    else:
        a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > SYMMETRY_TOLERANCE * scale:
        raise ValueError(f"matrix is not symmetric: asymmetry {asym:.3e} exceeds tolerance")
    return _cholesky_lower(a)


def solve_spd(lower: np.ndarray, rhs) -> np.ndarray:
    """Solve m x = rhs given the lower factor of m from spd_factorize.

    Accepts a vector or a matrix right-hand side, which is left unmodified;
    relative residual is at the 1e-12 scale for well-conditioned desk-size
    systems. Forward substitution solves L y = rhs, back substitution
    L' x = y, both in place on one copy of rhs.
    """
    x = np.array(rhs, dtype=float)
    dim = lower.shape[0]
    if x.shape[0] != dim:
        raise ValueError(f"rhs has leading dimension {x.shape[0]}, expected {dim}")
    for i in range(dim):
        x[i] = (x[i] - lower[i, :i] @ x[:i]) / lower[i, i]
    for i in reversed(range(dim)):
        x[i] = (x[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return x

