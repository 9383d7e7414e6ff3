"""Dense complex linear algebra with one shared notion of numerical rank.

Everything here but read_only_copy, which freezes the array it returns, is a
pure function of its inputs. The rank tolerance, the Gram matrix and the
input coercions are the ones every module uses. ZERO_TOL is the zero test on
column norms and signal entries and, times ||y||, on fitted values;
coherence_index and the pursuit's pivot test scale theirs with the problem
(n * eps and m * eps).
The Gram is walked in upper-triangular row strips of STRIP_ROWS = 64 rows, one
BLAS product each, conjugating only that strip's columns (gram_strips). The
strips are shared among min(usable CPUs, GRAM_BLOCK // STRIP_ROWS) workers:
the calling thread and, when there are two strips or more, short-lived
threads (_walk). Each worker's strip buffer is allocated by the calling
thread, so a walk holds at most GRAM_BLOCK strip rows. A strip's entries do
not depend on its height or on which thread computes it, so no result depends
on the number of workers. gram fills the n x n Gram for its one whole reader,
rip_constant, once it visits a subset; no matrix keeps one, and the pursuit
reads A or its FFT instead. gram_extremes reduces the strips to the
coherence's needs in O(GRAM_BLOCK n) memory: mu makes no n x n array.
gram_blocks gives the scans the Gram of each subset's columns, one block per
subset, from the columns they gather. The batched scans, the least-squares
fits and the pursuit factor their own stacks, so solve_least_squares,
numerical_rank and hermitian_eigen_extremes have no caller in csense: they
are the one-matrix reference implementations the tests check those engines
against.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .errors import NotHermitianError, RankDeficientError

HERMITIAN_TOL = 1e-10
# Rows of one Gram strip. Fixed, so no entry depends on how many workers walk the strips.
STRIP_ROWS = 64
# Strip rows held at once across a walk's workers: gram_extremes holds GRAM_BLOCK x n complex numbers and their magnitudes.
GRAM_BLOCK = 256
# Magnitudes at or below this count as numerically zero: fitted values, signal entries, column norms.
ZERO_TOL = 1e-14
# u: one rounding moves a double by at most u, relative (half of eps).
UNIT_ROUNDOFF = 2.0**-53


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
    """arr, coerced from the caller's given, set read-only in place; first copied if it may share given's memory.

    A view whose base chain ends at immutable bytes (np.frombuffer of a bytes
    object, as a loaded matrix's data is) is kept: no one can write its memory.
    """
    if isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        base = arr
        while isinstance(base, np.ndarray):
            base = base.base
        if not isinstance(base, bytes):
            arr = arr.copy()
    arr.flags.writeable = False
    return arr


def rank_tolerance(shape, sigma_max):
    """Cutoff below which singular values count as zero: max(m,n)*smax*eps, elementwise for arrays."""
    return max(shape) * sigma_max * np.finfo(np.float64).eps


def _strip_rows(n: int):
    """(i, j) row ranges of the Gram strips. A last strip of one row joins the one
    before it: BLAS computes a product with a side of 1 on another path (gemv)."""
    starts = list(range(0, n - 1, STRIP_ROWS)) or [0]
    return list(zip(starts, starts[1:] + [n]))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else every CPU."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _walk(strips: int, work, buffer) -> list:
    """[work(buffer, k) for k in range(strips)], the strips shared among min(usable CPUs, GRAM_BLOCK // STRIP_ROWS, strips) workers.

    The calling thread allocates each worker's buffer() and is the first
    worker; one short-lived thread runs each other one, so a walk of one strip
    starts none. Workers take strips in turn. The first exception raised in
    any worker is raised here unchanged, once every thread has been joined.
    """
    buffers = [buffer() for _ in range(min(_usable_cpus(), GRAM_BLOCK // STRIP_ROWS, strips))]
    results = [None] * strips
    deal = iter(range(strips))
    failures = []

    def share(buffer):
        try:
            for k in deal:
                if failures:
                    return
                results[k] = work(buffer, k)
        except BaseException as exc:  # handed to the calling thread, which raises it
            failures.append(exc)

    threads = []
    if len(buffers) > 1:
        import threading  # here, not at the top: importing csense loads no module that numpy does not

        threads = [threading.Thread(target=share, args=(buffer,)) for buffer in buffers[1:]]
    for thread in threads:
        thread.start()
    try:
        share(buffers[0])
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return results


def gram_strips(a, reduce, out=None) -> list:
    """[reduce(strip) for each upper-triangular row strip of A^H A], in order: rows i..j from column i on.

    Strip i is the one product A_I^H A_{>=I}. Read only its strict upper triangle and its
    diagonal's real part: left of the diagonal, entries are rounded apart from their conjugates
    above it. For n <= STRIP_ROWS + 1 that is one strip, A^H A. The strips are shared among
    workers (_walk), and reduce runs on the worker that computed the strip. Each strip is
    written to out[i:j, i:] when out is given, else to its worker's buffer, which is valid
    only until reduce returns.
    """
    arr = as_matrix(a)
    n = arr.shape[1]
    rows = _strip_rows(n)
    size = max((j - i) * (n - i) for i, j in rows)

    def strip(buffer, k):
        i, j = rows[k]
        dest = out[i:j, i:] if out is not None else buffer[: (j - i) * (n - i)].reshape(j - i, n - i)
        return reduce(np.matmul(arr[:, i:j].conj().T, arr[:, i:], out=dest))

    return _walk(len(rows), strip, lambda: None if out is not None else np.empty(size, dtype=np.complex128))


def gram(a) -> np.ndarray:
    """Gram matrix A^H A, exactly Hermitian: gram_strips' upper triangle, each strip mirrored in place a row at a time, on a real diagonal."""
    arr = as_matrix(a)
    n = arr.shape[1]
    g = np.empty((n, n), dtype=np.complex128)

    def mirror(strip):
        # rows i..j write only columns i..j below the diagonal, where no other strip writes
        for k in range(n - strip.shape[1], n - strip.shape[1] + len(strip)):
            np.conjugate(g[k, k + 1 :], out=g[k + 1 :, k])

    gram_strips(arr, mirror, out=g)
    np.fill_diagonal(g.imag, 0.0)
    return g


def gram_blocks(rows: np.ndarray) -> np.ndarray:
    """The Gram of each entry of a (c, s, m) stack of rows: conj(rows[i]) rows[i]^T, a (c, s, s) stack.

    rows[i] holds the columns a_k of a sub-matrix A_S as its rows, so entry i is A_S^H A_S. Each of
    its entries is one conjugating dot product (np.vecdot), so no conjugate copy of the stack is made,
    and lies within gamma ||a_k|| ||a_l|| of the exact one, in any summation order (coherence.gamma).
    """
    return np.vecdot(rows[:, :, None, :], rows[:, None, :, :])


def _strip_extremes(strip: np.ndarray) -> tuple[float, float, float]:
    """(largest, smallest) magnitude right of a strip's diagonal, and its smallest diagonal real part.

    A strip of r rows starts at its diagonal, so its columns from r on are strictly upper: their
    magnitudes are reduced as they are, and only the r x r diagonal block is masked.
    """
    r = strip.shape[0]
    right = np.abs(strip[:, r:])
    block = np.abs(strip[:, :r])[np.arange(r) > np.arange(r)[:, None]]
    return (
        float(max(right.max(initial=0.0), block.max(initial=0.0))),
        float(min(right.min(initial=math.inf), block.min(initial=math.inf))),
        float(strip.diagonal().real.min()),
    )


def gram_extremes(a) -> tuple[float, float, float]:
    """(largest, smallest) off-diagonal Gram magnitude and smallest diagonal real part; (0, 0, d) for one column.

    Reduced over the upper triangle, which holds every off-diagonal magnitude of
    the exactly Hermitian Gram, one gram_strips strip at a time. No n x n array
    is made.
    """
    maxes, mins, diagonals = zip(*gram_strips(a, _strip_extremes))
    return max(maxes), (0.0 if min(mins) == math.inf else min(mins)), min(diagonals)


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
