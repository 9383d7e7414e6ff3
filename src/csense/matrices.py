"""Constructors for the measurement matrices used across the toolkit.

Four families: partial DFT (kept rows of the inverse DFT matrix),
equiangular tight frames, seeded random Gaussian, and regular subsampling.
Every constructor returns a column-normalized matrix, and every random
draw is keyed by an explicit integer seed so identical arguments always
reproduce identical matrices bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import numerics
from .errors import UnsupportedSizeError, ZeroColumnError
from .serialization import complex_to_pairs, decoding, load_json, pairs_to_complex, save_json

__all__ = [
    "FAMILIES",
    "MeasurementMatrix",
    "RowIndexSet",
    "build_etf",
    "build_gaussian",
    "build_partial_dft",
    "build_subsampling_rows",
    "check_indices",
    "check_shape",
    "draw_without_replacement",
    "from_spec",
    "gram_offdiagonal_extremes",
    "load_matrix",
    "matrix_from_dict",
    "matrix_to_dict",
    "normalize_columns",
    "paley_conference",
    "restrict_columns",
    "sample_rows",
    "save_matrix",
    "welch_bound",
    "welch_distance",
]

COLUMN_NORM_TOL = 1e-10
CONFERENCE_GRAM_TOL = 1e-9
FALLBACK_GRAM_TOL = 1e-3

FAMILIES = ("partial-dft", "etf", "gaussian", "subsampling", "custom")

_FALLBACK_MAX_ITERS = 10_000
_FALLBACK_SEED = 61803


def check_shape(m, n) -> tuple[int, int]:
    """(m, n) as ints, checked 1 <= m <= n: the shape of a short, wide frame."""
    m, n = int(m), int(n)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return m, n


def check_indices(indices, n: int, what: str, out_of_range=ValueError) -> tuple[int, ...]:
    """indices as a tuple of ints, checked strictly increasing and inside [0, n).

    An index outside [0, n) raises out_of_range, any other fault ValueError.
    """
    idx = tuple(int(i) for i in indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{what} indices must be strictly increasing (no duplicates)")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise out_of_range(f"{what} indices must lie in [0, {n})")
    return idx


@dataclass(eq=False)
class RowIndexSet:
    """Strictly increasing row indices drawn from range(n)."""

    n: int
    indices: tuple[int, ...]

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 1:
            raise ValueError("ambient length must be positive")
        self.indices = check_indices(self.indices, self.n, "row")

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass(eq=False)
class MeasurementMatrix:
    """Column-normalized m-by-n sensing matrix tagged with its family.

    data is a read-only private copy, so the Gram matrix, built on first use
    and then kept, can never go stale.
    """

    m: int
    n: int
    data: np.ndarray
    family: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.m, self.n = check_shape(self.m, self.n)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        data = numerics.as_matrix(self.data)
        if data.shape != (self.m, self.n):
            raise ValueError(f"data has shape {data.shape}, expected ({self.m}, {self.n})")
        norms = np.linalg.norm(data, axis=0)
        if float(np.max(np.abs(norms - 1.0))) > COLUMN_NORM_TOL:
            raise ValueError("every column must have unit l2 norm")
        if isinstance(self.data, np.ndarray) and np.may_share_memory(data, self.data):
            data = data.copy()  # freeze a copy, never an array the caller still holds
        data.flags.writeable = False
        self.data = data

    @cached_property
    def gram(self) -> np.ndarray:
        """A^H A from numerics.gram, computed once and read-only."""
        g = numerics.gram(self.data)
        g.flags.writeable = False
        return g

    @property
    def cached_gram(self) -> np.ndarray | None:
        """The Gram if something already built it, else None; never builds it."""
        return self.__dict__.get("gram")


def build_partial_dft(n: int, rows: RowIndexSet) -> MeasurementMatrix:
    """Keep the listed rows of the n-point inverse-DFT matrix.

    Entry (m, k) is exp(+2j*pi*rows[m]*k/n) / sqrt(M), so each column has
    M entries of magnitude 1/sqrt(M) and is automatically unit norm.
    """
    m, n = check_shape(len(rows), n)
    if rows.n != n:
        raise ValueError(f"row set is indexed against length {rows.n}, not {n}")
    idx = np.asarray(rows.indices, dtype=np.float64)
    cols = np.arange(n, dtype=np.float64)
    data = np.exp(2j * np.pi * np.outer(idx, cols) / n) / math.sqrt(m)
    return MeasurementMatrix(m, n, data, "partial-dft", {"rows": list(rows.indices)})


def draw_without_replacement(rng: np.random.Generator, n: int, m: int) -> tuple[int, ...]:
    """m distinct indices from range(n) via a partial Fisher-Yates shuffle."""
    pool = list(range(n))
    for i in range(m):
        j = i + int(rng.integers(n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:m]))


def sample_rows(n: int, m: int, seed: int) -> RowIndexSet:
    """Uniform random m-subset of range(n); same (n, m, seed) -> same set."""
    m, n = check_shape(m, n)
    rng = np.random.default_rng(int(seed))
    return RowIndexSet(n, draw_without_replacement(rng, n, m))


def build_subsampling_rows(n: int, p: int) -> RowIndexSet:
    """Every p-th index: {0, p, 2p, ..., n-p}. p must divide n."""
    n = int(n)
    p = int(p)
    if p < 1:
        raise ValueError("subsampling period must be >= 1")
    if n % p != 0:
        raise ValueError(f"period {p} does not divide {n}")
    return RowIndexSet(n, tuple(range(0, n, p)))


def _is_odd_prime(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    return all(q % d for d in range(3, math.isqrt(q) + 1, 2))


def paley_conference(n: int) -> np.ndarray:
    """Symmetric conference matrix of order n from quadratic residues mod n-1.

    Requires n = 2 (mod 4) with n-1 an odd prime. The result has zero
    diagonal, +-1 elsewhere, and satisfies C^T C = (n-1) I exactly.
    """
    n = int(n)
    q = n - 1
    if n % 4 != 2 or not _is_odd_prime(q):
        raise UnsupportedSizeError(
            f"no Paley conference matrix of order {n}: need n = 2 (mod 4) with n-1 an odd prime"
        )
    character = -np.ones(q)
    character[np.unique(np.arange(1, q, dtype=np.int64) ** 2 % q)] = 1.0
    character[0] = 0.0
    i = np.arange(q)
    c = np.ones((n, n))
    c[1:, 1:] = character[(i[:, None] - i[None, :]) % q]
    np.fill_diagonal(c, 0.0)
    if float(np.max(np.abs(c.T @ c - (n - 1) * np.eye(n)))) > 1e-10:
        raise UnsupportedSizeError(f"conference-matrix self-check failed for order {n}")
    return c


def welch_bound(m: int, n: int) -> float:
    """sqrt((n-m)/(m(n-1))), the coherence floor for m-by-n unit-norm frames."""
    m, n = check_shape(m, n)
    if m == n:
        return 0.0
    return math.sqrt((n - m) / (m * (n - 1)))


def gram_offdiagonal_extremes(a: MeasurementMatrix) -> tuple[float, float]:
    """(largest, smallest) off-diagonal Gram magnitude |<a_k, a_l>|, k != l; (0, 0) for one column."""
    if a.n == 1:
        return 0.0, 0.0
    off = np.abs(a.gram[~np.eye(a.n, dtype=bool)])
    return float(np.max(off)), float(np.min(off))


def welch_distance(m: int, n: int, off_max: float, off_min: float) -> float:
    """Largest |off - w| over off-diagonal Gram magnitudes in [off_min, off_max], w the Welch bound.

    Rounded subtraction is monotone, so the two extremes give it bit for bit.
    An m-by-n frame of unit columns is an ETF exactly when it is 0.
    """
    w = welch_bound(m, n)
    return max(off_max - w, w - off_min)


def _check_equiangular(a: MeasurementMatrix, tol: float) -> None:
    worst = welch_distance(a.m, a.n, *gram_offdiagonal_extremes(a))
    if worst > tol:
        raise UnsupportedSizeError(
            f"off-diagonal Gram magnitudes deviate from the Welch bound by {worst:.3e} (tolerance {tol:g})"
        )


def _etf_from_conference(m: int, n: int) -> np.ndarray:
    c = paley_conference(n)
    w, v = np.linalg.eigh(c)
    basis = v[:, w > 0.0]
    if basis.shape[1] != m:
        raise UnsupportedSizeError(
            f"positive eigenspace of the order-{n} conference matrix has dimension {basis.shape[1]}, expected {m}"
        )
    return normalize_columns(basis.T)


def _etf_alternating_projections(m: int, n: int) -> np.ndarray:
    """Frame-design heuristic: alternate between the unit-diagonal Gram set
    with off-diagonal magnitudes clamped at the Welch bound and the nearest
    rank-m positive-semidefinite factorization. Approximate by nature."""
    target = welch_bound(m, n)
    rng = np.random.default_rng(_FALLBACK_SEED)
    a = normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    off = ~np.eye(n, dtype=bool)
    for _ in range(_FALLBACK_MAX_ITERS):
        g = a.conj().T @ a
        if float(np.max(np.abs(np.abs(g[off]) - target))) <= FALLBACK_GRAM_TOL:
            return a
        mag = np.abs(g)
        shrink = np.ones_like(mag)
        mask = mag > target
        shrink[mask] = target / mag[mask]
        g = g * shrink
        np.fill_diagonal(g, 1.0)
        g = (g + g.conj().T) / 2.0
        w, v = np.linalg.eigh(g)
        w = np.clip(w, 0.0, None)
        w[: n - m] = 0.0
        a = (v[:, n - m :] * np.sqrt(w[n - m :])).conj().T
        norms = np.linalg.norm(a, axis=0)
        dead = norms < numerics.ZERO_TOL
        if np.any(dead):
            k = int(dead.sum())
            a[:, dead] = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        a = normalize_columns(a)
    raise UnsupportedSizeError(
        f"alternating projections did not reach an equiangular Gram for {m}x{n} "
        f"within {_FALLBACK_MAX_ITERS} iterations"
    )


def build_etf(m: int, n: int) -> MeasurementMatrix:
    """Equiangular tight frame: unit-norm columns whose pairwise inner
    products all share one magnitude, the Welch bound sqrt((n-m)/(m(n-1))).

    The exact route applies when n = 2m and a symmetric Paley conference
    matrix of order n exists (n = 2 (mod 4), n-1 an odd prime): rows are a
    scaled orthonormal basis of the conference matrix's positive eigenspace.
    Other sizes fall back to alternating projections, which is approximate
    (Gram tolerance 1e-3 instead of 1e-9) and may fail outright.
    meta["route"] records which path produced the matrix.
    """
    m, n = check_shape(m, n)
    if m == n:
        # orthonormal columns: every off-diagonal inner product is 0 = Welch
        return MeasurementMatrix(m, n, np.eye(n), "etf", {"route": "orthonormal"})
    if n == 2 * m and n % 4 == 2 and _is_odd_prime(n - 1):
        data = _etf_from_conference(m, n)
        route, tol = "paley-conference", CONFERENCE_GRAM_TOL
    else:
        data = _etf_alternating_projections(m, n)
        route, tol = "alternating-projections", FALLBACK_GRAM_TOL
    mat = MeasurementMatrix(m, n, data, "etf", {"route": route, "gram_tolerance": tol})
    _check_equiangular(mat, tol)
    return mat


def build_gaussian(m: int, n: int, seed: int) -> MeasurementMatrix:
    """Real i.i.d. standard-normal entries (Box-Muller), columns normalized."""
    m, n = check_shape(m, n)
    rng = np.random.default_rng(int(seed))
    u1 = 1.0 - rng.random((m, n))  # (0, 1] keeps the log finite
    u2 = rng.random((m, n))
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return MeasurementMatrix(m, n, normalize_columns(g), "gaussian", {"seed": int(seed)})


def restrict_columns(a: MeasurementMatrix, support) -> np.ndarray:
    """Sub-matrix keeping exactly the listed columns (sorted index set)."""
    idx = check_indices(support, a.n, "support", out_of_range=IndexError)
    if not idx:
        raise ValueError("support must not be empty")
    return a.data[:, list(idx)].copy()


def normalize_columns(a) -> np.ndarray:
    """Scale every column to unit l2 norm."""
    arr = numerics.as_matrix(a)
    norms = np.linalg.norm(arr, axis=0)
    if float(np.min(norms)) < numerics.ZERO_TOL:
        raise ZeroColumnError("cannot normalize a (near-)zero column")
    return arr / norms


def from_spec(family: str, *, m=None, n=None, seed=0, rows=None, p=None) -> MeasurementMatrix:
    """Build a matrix from a flat family spec (CLI flags, experiment configs); a wrongly typed value is a ValueError."""
    family = str(family).lower().replace("_", "-")
    with decoding("matrix spec"):
        m, n, p = (None if v is None else int(v) for v in (m, n, p))
        seed = int(seed)
        rows = None if rows is None else tuple(int(i) for i in rows)
    if family == "etf":
        _require(m is not None and n is not None, "etf needs m and n")
        return build_etf(m, n)
    if family == "gaussian":
        _require(m is not None and n is not None, "gaussian needs m and n")
        return build_gaussian(m, n, seed)
    if family == "partial-dft":
        _require(n is not None, "partial-dft needs n")
        if rows is not None:
            row_set = RowIndexSet(n, rows)
        else:
            _require(m is not None, "partial-dft needs explicit rows or m (+ seed)")
            row_set = sample_rows(n, m, seed)
        return build_partial_dft(n, row_set)
    if family == "subsampling":
        _require(n is not None and p is not None, "subsampling needs n and p")
        row_set = build_subsampling_rows(n, p)
        mat = build_partial_dft(n, row_set)
        return replace(mat, family="subsampling", meta={"p": p, "rows": list(row_set.indices)})
    raise ValueError(f"unknown family {family!r}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def matrix_to_dict(a: MeasurementMatrix) -> dict:
    """JSON form: {"m", "n", "family", "meta", "data": [[re, im], ...]} row-major."""
    return {
        "m": a.m,
        "n": a.n,
        "family": a.family,
        "meta": a.meta,
        "data": complex_to_pairs(a.data),
    }


def matrix_from_dict(d: dict) -> MeasurementMatrix:
    with decoding("matrix"):
        m, n, flat = int(d["m"]), int(d["n"]), pairs_to_complex(d["data"])
        family, meta = str(d["family"]), dict(d.get("meta", {}))
    if flat.shape[0] != m * n:
        raise ValueError(f"data holds {flat.shape[0]} entries, expected m*n = {m * n}")
    return MeasurementMatrix(m, n, flat.reshape(m, n), family, meta)


def save_matrix(a: MeasurementMatrix, path) -> None:
    save_json(matrix_to_dict(a), path)


def load_matrix(path) -> MeasurementMatrix:
    return matrix_from_dict(load_json(path))
