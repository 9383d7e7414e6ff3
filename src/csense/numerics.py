"""Dense complex linear algebra with one shared notion of numerical rank.

Everything here but read_only_copy, which freezes the array it returns, is a
pure function of its inputs. The rank tolerance, the Gram matrix and the
input coercions are the ones every module uses. ZERO_TOL is the zero test on
column norms and signal entries and, times ||y||, on fitted values;
coherence_index and the pursuit's pivot test scale theirs with the problem
(n * eps and m * eps).
The batched scans, the least-squares fits and the pursuit factor their own
stacks, so solve_least_squares, numerical_rank and hermitian_eigen_extremes
have no caller in csense: they are the one-matrix reference implementations
the tests check those engines against.
"""
from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, RankDeficientError

__all__ = [
    "as_matrix",
    "as_vector",
    "gram",
    "hermitian_eigen_extremes",
    "numerical_rank",
    "rank_tolerance",
    "read_only_copy",
    "solve_least_squares",
]

HERMITIAN_TOL = 1e-10
# Magnitudes at or below this count as numerically zero: fitted values, signal entries, column norms.
ZERO_TOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("matrix must have at least one row and one column")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    return arr


def as_vector(y) -> np.ndarray:
    """Coerce to a 1-D complex128 array, rejecting non-finite entries."""
    vec = np.asarray(y, dtype=np.complex128)
    if vec.ndim != 1 or vec.shape[0] == 0:
        raise ValueError("expected a non-empty 1-D vector")
    if not np.isfinite(vec).all():
        raise ValueError("vector entries must be finite")
    return vec


def read_only_copy(arr: np.ndarray, given) -> np.ndarray:
    """arr, coerced from the caller's given, set read-only in place; first copied if it may share given's memory."""
    if isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def rank_tolerance(shape, sigma_max):
    """Cutoff below which singular values count as zero: max(m,n)*smax*eps, elementwise for arrays."""
    return max(shape) * sigma_max * np.finfo(np.float64).eps


def gram(a) -> np.ndarray:
    """Gram matrix A^H A, symmetrized so the result is exactly Hermitian."""
    arr = as_matrix(a)
    g = arr.conj().T @ arr
    g += g.conj().T  # in place: one n x n temporary instead of three
    g *= 0.5
    return g


def numerical_rank(a) -> int:
    """Number of singular values above the shared rank tolerance."""
    arr = as_matrix(a)
    s = np.linalg.svd(arr, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tolerance(arr.shape, float(s[0]))))


def solve_least_squares(a, y) -> np.ndarray:
    """Minimum-residual solution of ``a @ x = y`` for a tall full-rank system.

    Solved through an SVD-backed least-squares routine rather than by forming
    and inverting the normal equations, which keeps well-conditioned systems
    accurate to near machine precision.

    Raises
    ------
    RankDeficientError
        If the numerical rank of ``a`` is below its column count.
    """
    arr = as_matrix(a)
    vec = as_vector(y)
    rows, cols = arr.shape
    if rows < cols:
        raise ValueError(f"system must be square or overdetermined, got {rows}x{cols}")
    if vec.shape[0] != rows:
        raise ValueError(f"right-hand side has length {vec.shape[0]}, expected {rows}")
    x, _, rank, _ = np.linalg.lstsq(arr, vec, rcond=None)
    if rank < cols:
        raise RankDeficientError(f"matrix has numerical rank {rank} < {cols} columns")
    return x


def hermitian_eigen_extremes(g) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a Hermitian matrix."""
    arr = as_matrix(g)
    if arr.shape[0] != arr.shape[1]:
        raise NotHermitianError(f"matrix is not square: {arr.shape}")
    if float(np.max(np.abs(arr - arr.conj().T))) > HERMITIAN_TOL:
        raise NotHermitianError("matrix is not Hermitian within 1e-10")
    w = np.linalg.eigvalsh(arr)
    return float(w[0]), float(w[-1])
