"""Constructors for the measurement matrices used across the toolkit.

Four families: partial DFT (kept rows of the inverse DFT matrix),
equiangular tight frames, seeded random Gaussian, and regular subsampling.
Every constructor returns a column-normalized matrix, and every random
draw is keyed by an explicit integer seed so identical arguments always
reproduce identical matrices bit for bit.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import numerics
from .errors import UnsupportedSizeError, ZeroColumnError
from .serialization import BOOLS, base64_to_complex, complex_to_base64, decoding, load_json, save_json

# Imported by name, though matrices writes no pairs: perfbench/tracing.py patches both converters here.
from .serialization import complex_to_pairs, pairs_to_complex  # noqa: F401

__all__ = [
    "SPEC_BUILDERS",
    "MeasurementMatrix",
    "bind_spec",
    "build_etf",
    "build_gaussian",
    "build_partial_dft",
    "build_subsampling_rows",
    "check_indices",
    "check_int",
    "check_positive",
    "check_shape",
    "draw_without_replacement",
    "from_spec",
    "gram_offdiagonal_extremes",
    "load_matrix",
    "matrix_from_dict",
    "matrix_to_dict",
    "normalize_columns",
    "paley_conference",
    "sample_rows",
    "save_matrix",
    "welch_bound",
    "welch_distance",
]

COLUMN_NORM_TOL = 1e-10
# Largest welch_distance of an equiangular tight frame: build_etf's check and coherence_index's is_etf.
ETF_GRAM_TOL = 1e-9


def check_int(value, what: str, low: int, high: int | None = None) -> int:
    """value as an int in [low, high] (no upper bound when high is None).

    An int or a whole float such as 7.0 is accepted; a fractional,
    non-finite, boolean or non-numeric value, or one out of range, is a ValueError.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or type(value) in BOOLS:
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if whole < low or (high is not None and whole > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{what} must be {bounds}, got {whole}")
    return whole


def check_positive(value, what: str) -> float:
    """value as a positive, finite float; anything else (NaN, a numeric string or a bool included) is a ValueError."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if x != value or type(value) in BOOLS or not 0.0 < x < math.inf:
        raise ValueError(f"{what} must be a positive, finite number, got {value!r}")
    return x


def check_shape(m, n) -> tuple[int, int]:
    """(m, n) as ints, checked 1 <= m <= n: the shape of a short, wide frame."""
    n = check_int(n, "n", 1)
    return check_int(m, "m", 1, n), n


def check_indices(indices, n: int, what: str) -> tuple[int, ...]:
    """indices as a tuple of ints, checked whole, strictly increasing and inside [0, n); any fault is a ValueError."""
    given = tuple(indices)
    try:
        idx = tuple(map(int, given))
    except (TypeError, ValueError, OverflowError):
        idx = ()
    if idx != given or not BOOLS.isdisjoint(map(type, given)):  # 2.0 == 2 passes, 2.5 != 2 and True do not
        raise ValueError(f"{what} indices must be whole numbers, got {given}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{what} indices must be strictly increasing (no duplicates)")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"{what} indices must lie in [0, {n})")
    return idx


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
        if self.family not in SPEC_BUILDERS and self.family != "custom":
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


def build_partial_dft(n: int, rows) -> MeasurementMatrix:
    """Keep the listed rows, strictly increasing in range(n), of the n-point inverse-DFT matrix.

    Entry (m, k) is exp(+2j*pi*((rows[m]*k) mod n)/n) / sqrt(M), so each
    column has M entries of magnitude 1/sqrt(M) and is automatically unit norm.
    """
    m, n = check_shape(len(rows), n)
    rows = check_indices(rows, n, "row")
    # the phase index r*k is reduced mod n in integers, so equal phases give equal bits
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    data = roots[np.outer(rows, np.arange(n)) % n] / math.sqrt(m)
    return MeasurementMatrix(m, n, data, "partial-dft", {"rows": list(rows)})


def draw_without_replacement(rng: np.random.Generator, n: int, m: int) -> tuple[int, ...]:
    """m distinct indices from range(n) via a partial Fisher-Yates shuffle."""
    pool = list(range(n))
    for i in range(m):
        j = i + int(rng.integers(n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:m]))


def sample_rows(n: int, m: int, seed: int) -> tuple[int, ...]:
    """Uniform random m-subset of range(n), sorted; same (n, m, seed) -> same set."""
    m, n = check_shape(m, n)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    return draw_without_replacement(rng, n, m)


def build_subsampling_rows(n: int, p: int) -> tuple[int, ...]:
    """Every p-th index: (0, p, 2p, ..., n-p). p must divide n."""
    n, p = check_int(n, "n", 1), check_int(p, "subsampling period p", 1)
    if n % p != 0:
        raise ValueError(f"period {p} does not divide {n}")
    return tuple(range(0, n, p))


def _is_odd_prime(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    return all(q % d for d in range(3, math.isqrt(q) + 1, 2))


def _quadratic_residues(p: int) -> np.ndarray:
    """The nonzero squares mod p, sorted and distinct."""
    return np.unique(np.arange(1, p, dtype=np.int64) ** 2 % p)


def paley_conference(n: int) -> np.ndarray:
    """Symmetric conference matrix of order n from quadratic residues mod n-1.

    Requires n = 2 (mod 4) with n-1 an odd prime. The result has zero
    diagonal, +-1 elsewhere, and satisfies C^T C = (n-1) I exactly.
    """
    n = check_int(n, "conference matrix order n", 1)
    q = n - 1
    if n % 4 != 2 or not _is_odd_prime(q):
        raise UnsupportedSizeError(
            f"no Paley conference matrix of order {n}: need n = 2 (mod 4) with n-1 an odd prime"
        )
    character = -np.ones(q)
    character[_quadratic_residues(q)] = 1.0
    character[0] = 0.0
    i = np.arange(q)
    c = np.ones((n, n))
    c[1:, 1:] = character[(i[:, None] - i[None, :]) % q]
    np.fill_diagonal(c, 0.0)
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
    mags = np.abs(a.gram)
    np.fill_diagonal(mags, 0.0)  # below every magnitude: the max is off-diagonal
    off_max = float(np.max(mags))
    np.fill_diagonal(mags, np.inf)
    return off_max, float(np.min(mags))


def welch_distance(m: int, n: int, off_max: float, off_min: float) -> float:
    """Largest |off - w| over off-diagonal Gram magnitudes in [off_min, off_max], w the Welch bound.

    Rounded subtraction is monotone, so the two extremes give it bit for bit.
    An m-by-n frame of unit columns is an ETF exactly when it is 0.
    """
    w = welch_bound(m, n)
    return max(off_max - w, w - off_min)


def _check_equiangular(a: MeasurementMatrix) -> None:
    worst = welch_distance(a.m, a.n, *gram_offdiagonal_extremes(a))
    if worst > ETF_GRAM_TOL:
        raise UnsupportedSizeError(
            f"off-diagonal Gram magnitudes deviate from the Welch bound by {worst:.3e} (tolerance {ETF_GRAM_TOL:g})"
        )


def _harmonic_rows(m: int, n: int) -> tuple[int, ...] | None:
    """m rows of the n-point DFT that form a cyclic difference set mod n, or None if no base set gives m.

    A base set is {0} or, for a prime n = 3 (mod 4), the quadratic residues;
    the rows are a base set or its complement, whichever has m elements.
    """
    bases = [(0,)]
    if n % 4 == 3 and _is_odd_prime(n):
        bases.append(tuple(_quadratic_residues(n).tolist()))
    for base in bases:
        for rows in (base, tuple(sorted(set(range(n)).difference(base)))):
            if len(rows) == m:
                return rows
    return None


def build_etf(m: int, n: int) -> MeasurementMatrix:
    """Equiangular tight frame: unit-norm columns whose pairwise inner
    products all share one magnitude, the Welch bound sqrt((n-m)/(m(n-1))).

    Three exact routes, each checked at ETF_GRAM_TOL; meta["route"] names the one taken:
    - orthonormal, for m = n: the identity;
    - harmonic, for m = 1, m = n-1, and m = (n-1)/2 or (n+1)/2 with n a prime = 3 (mod 4):
      the partial DFT on a cyclic difference set, whose rows meta["rows"] lists;
    - paley-conference, for n = 2m = 2 (mod 4) with n-1 a prime: rows are a scaled
      orthonormal basis of the Paley conference matrix's positive eigenspace.
    Any other size is an UnsupportedSizeError.
    """
    m, n = check_shape(m, n)
    if m == n:
        # orthonormal columns: every off-diagonal inner product is 0 = Welch
        mat = MeasurementMatrix(m, n, np.eye(n), "etf", {"route": "orthonormal"})
    elif (rows := _harmonic_rows(m, n)) is not None:
        mat = replace(build_partial_dft(n, rows), family="etf", meta={"route": "harmonic", "rows": list(rows)})
    elif n == 2 * m and n % 4 == 2 and _is_odd_prime(n - 1):
        # C^2 = (n-1) I and trace 0 give C the eigenvalues +-sqrt(n-1), each n/2 = m times
        w, v = np.linalg.eigh(paley_conference(n))
        data = normalize_columns(v[:, w > 0.0].T)
        mat = MeasurementMatrix(m, n, data, "etf", {"route": "paley-conference"})
    else:
        raise UnsupportedSizeError(
            f"no equiangular tight frame route for {m}x{n}: orthonormal needs m = n; "
            "harmonic needs m = 1, m = n-1, or n a prime = 3 (mod 4) with m = (n-1)/2 or (n+1)/2; "
            "paley-conference needs n = 2m = 2 (mod 4) with n-1 a prime"
        )
    _check_equiangular(mat)
    return mat


def build_gaussian(m: int, n: int, seed: int = 0) -> MeasurementMatrix:
    """Real i.i.d. standard-normal entries (Box-Muller), columns normalized."""
    m, n = check_shape(m, n)
    seed = check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    u1 = 1.0 - rng.random((m, n))  # (0, 1] keeps the log finite
    u2 = rng.random((m, n))
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return MeasurementMatrix(m, n, normalize_columns(g), "gaussian", {"seed": seed})


def normalize_columns(a) -> np.ndarray:
    """Scale every column to unit l2 norm."""
    arr = numerics.as_matrix(a)
    norms = np.linalg.norm(arr, axis=0)
    if float(np.min(norms)) < numerics.ZERO_TOL:
        raise ZeroColumnError("cannot normalize a (near-)zero column")
    return arr / norms


def _etf_spec(m: int, n: int) -> MeasurementMatrix:
    """build_etf, looked up per call, so a wrapper on matrices.build_etf (perfbench) sees it."""
    return build_etf(m, n)


def _partial_dft_spec(n: int, rows=None, m=None, seed=None) -> MeasurementMatrix:
    """The partial-dft spec: the given rows, or m rows drawn by sample_rows with seed (default 0)."""
    if rows is None:
        if m is None:
            raise TypeError("partial-dft needs rows or m")
        return build_partial_dft(n, sample_rows(n, m, 0 if seed is None else seed))
    if m is not None or seed is not None:
        raise TypeError(f"partial-dft reads rows or m, not both: got rows and {'m' if m is not None else 'seed'}")
    return build_partial_dft(n, rows)


def _subsampling_spec(n: int, p: int) -> MeasurementMatrix:
    """Every p-th row of the n-point partial DFT, tagged subsampling with its period."""
    mat = build_partial_dft(n, build_subsampling_rows(n, p))
    return replace(mat, family="subsampling", meta={"p": mat.n // mat.m, **mat.meta})


# Each family's builder; its parameters are exactly the keys of that family's spec.
SPEC_BUILDERS = {
    "etf": _etf_spec,
    "partial-dft": _partial_dft_spec,
    "gaussian": build_gaussian,
    "subsampling": _subsampling_spec,
}


def bind_spec(family: str | None = None, **spec) -> partial:
    """The builder call a flat family spec stands for, its keys checked but nothing built.

    An unknown family is a ValueError; a missing family or key, or one the family does not read, a TypeError.
    """
    if family is None:
        raise TypeError("missing a required argument: 'family'")
    builder = SPEC_BUILDERS.get(str(family).lower().replace("_", "-"))
    if builder is None:
        raise ValueError(f"unknown family {family!r}")
    bound = inspect.signature(builder).bind(**spec)
    return partial(builder, *bound.args, **bound.kwargs)


def from_spec(family: str | None = None, **spec) -> MeasurementMatrix:
    """Build a matrix from a flat family spec (CLI flags, experiment configs); any fault in it is a ValueError."""
    with decoding("matrix spec"):
        return bind_spec(family, **spec)()


def matrix_to_dict(a: MeasurementMatrix) -> dict:
    """JSON form: {"m", "n", "family", "meta", "data"}, data the base64 of the row-major complex128 bytes."""
    return {
        "m": a.m,
        "n": a.n,
        "family": a.family,
        "meta": a.meta,
        "data": complex_to_base64(a.data),
    }


def matrix_from_dict(d: dict) -> MeasurementMatrix:
    """Inverse of matrix_to_dict; data may also be the hand-written list of [re, im] pairs, row-major.

    The decoded bytes are viewed, not copied: MeasurementMatrix's frozen copy is the only one.
    """
    with decoding("matrix"):
        (m, n), data = check_shape(d["m"], d["n"]), d["data"]
        flat = base64_to_complex(data) if isinstance(data, str) else pairs_to_complex(data)
        family, meta = str(d["family"]), d.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be a JSON object, got {type(meta).__name__}")
    if flat.shape[0] != m * n:
        raise ValueError(f"data holds {flat.shape[0]} entries, expected m*n = {m * n}")
    return MeasurementMatrix(m, n, flat.reshape(m, n), family, dict(meta))


def save_matrix(a: MeasurementMatrix, path) -> None:
    save_json(matrix_to_dict(a), path)


def load_matrix(path) -> MeasurementMatrix:
    return matrix_from_dict(load_json(path))
