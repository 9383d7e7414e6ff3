"""Uniqueness analytics for measurement matrices.

Coherence index mu and the sparsity level K it certifies, Welch-bound
comparisons, full-rank scans over 2K-column subsets (with the condition
numbers of the sub-matrices they factor), and brute-force
restricted-isometry constants. The scans exist precisely to demonstrate the
combinatorial cost that makes coherence the practical certificate.

max_sparsity owns that certificate: K is certified when the worst-case
signal floor 1 - (K-1) mu clears the disturbance ceiling K mu, i.e. when
(2K-1) mu < 1, decided exactly on the rational value of the float mu.
coherence_index gives it coherence_upper_bound, not the computed mu, so
rounding cannot certify a K the exact frame does not have.

The paper's own move, bounding a subset's Gram from its entries, also
screens the scans: block_spectra bounds the singular values of each
subset's columns from the eigenvalues of its Gram block, with an allowance
for every rounding (gamma for the block's entries, factor_allowance for
the eigensolver and the SVD). uniqueness_rank_scan factors only the subsets
those bounds cannot place, so its report is the SVD's, bit for bit, on
every shape. One chunk rule (_chunk_length) serves all three scans: a
chunk's Gram blocks, the isometry scan's included, take half a chunk.
On partial DFTs and Paley ETFs a complete scan screens one block per
translation orbit (_orbit_chunks), widened by the measured translation_gap.
The l0 oracle (recovery.exhaustive_l0_search) needs only a floor under each
block's smallest eigenvalue, and gershgorin_floor reads one from the
block's entries, Gershgorin's theorem, with no eigensolver; where ||y||
computes to 0 it fits nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matrices, numerics
from .serialization import BOOLS

DEFAULT_MAX_SUBSETS = 100_000
# Bytes of sub-matrices one scan chunk gathers; its Gram blocks take at most half as many.
# Together they fix a scan's working memory.
SCAN_CHUNK_BYTES = 256 * 1024


@dataclass
class CoherenceReport:
    """Coherence index mu plus everything the sparsity bound derives from it.

    k_max is max_sparsity of coherence_upper_bound, which lies at or above mu;
    bound_value is (1 + 1/mu)/2 on mu itself. Both are None when mu == 0
    (orthonormal columns): no sparsity level is excluded in that case. is_etf
    says whether every off-diagonal Gram magnitude lies within
    matrices.ETF_GRAM_TOL of the Welch bound, the tolerance at which build_etf
    accepts a frame.
    """

    mu: float
    welch: float
    k_max: int | None
    bound_value: float | None
    is_etf: bool
    gram_offdiag_max: float
    gram_offdiag_min: float


@dataclass
class UniquenessReport:
    """Rank scan over 2k-column subsets; all_full_rank is None if cut short before any witness."""

    k: int
    total_subsets: int
    scanned: int
    all_full_rank: bool | None
    witness: tuple[int, ...] | None
    min_cond: float
    max_cond: float
    complete: bool


@dataclass
class RipReport:
    """Worst eigenvalue deviation of k-column Grams from the identity."""

    k: int
    delta: float
    subsets_scanned: int
    total_subsets: int
    complete: bool


def sparsity_bound(mu: float) -> float | None:
    """The strict upper bound (1 + 1/mu)/2 on sparsity, in floating point; None when mu == 0."""
    x = float(mu)
    if x != mu or type(mu) in BOOLS or not 0.0 <= x <= 1.0:  # nor is a string, NaN or a bool
        raise ValueError(f"coherence must be a number in [0, 1], got {mu!r}")
    return None if x == 0.0 else 0.5 * (1.0 + 1.0 / x)


def max_sparsity(mu: float) -> int | None:
    """Largest integer K with (2K-1) mu < 1, i.e. K < (1 + 1/mu)/2; None means unbounded.

    Decided exactly on the rational value p/q of the double mu
    (float.as_integer_ratio): (2K-1) p < q holds for exactly the
    K <= ceil(q/p) // 2.
    """
    if sparsity_bound(mu) is None:  # which also checks 0 <= mu <= 1
        return None
    p, q = float(mu).as_integer_ratio()
    return -(-q // p) // 2


def gamma(m: int) -> tuple[int, int]:
    """gamma = (m + 4) u / (1 - (m + 4) u), u = 2^-53, as the integers (g, h) with gamma = g / h.

    For any summation order, a computed Gram entry of columns of length m lies
    within gamma ||a_k|| ||a_l|| of the exact one: gamma_{m+2} for a complex
    inner product of m-vectors (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 3), one rounding for the magnitude and one
    to spare.
    """
    return m + 4, 2**53 - (m + 4)


def frobenius_sq(cols: int) -> float:
    """An upper bound on ||A_S||_F^2 for cols columns of a MeasurementMatrix, whose norms are within COLUMN_NORM_TOL of 1."""
    return cols * (1.0 + matrices.COLUMN_NORM_TOL) ** 2


def factor_allowance(rows: int, cols: int) -> float:
    """(rows + cols)^2 u: the backward error allowed a LAPACK SVD or Hermitian eigensolver of a rows x cols input.

    Both reduce their input by Householder reflections and then iterate on a
    bidiagonal or tridiagonal matrix. The computed values are the exact ones
    of the input plus a perturbation of 2-norm at most c rows cols u times
    the input's (Higham 2002, Thm 19.4 and the notes to ch. 19, which leave
    the small constant c open); (rows + cols)^2 >= 4 rows cols takes c = 4.
    By Weyl's theorem no singular value or eigenvalue moves further.
    """
    return (rows + cols) ** 2 * numerics.UNIT_ROUNDOFF


def singular_value_allowance(m: int, cols: int) -> float:
    """d: the SVD of m x cols columns of a MeasurementMatrix returns each singular value within d of the exact one.

    d = factor_allowance(m, cols) ||A_S||_2, with ||A_S||_2^2 <= frobenius_sq(cols).
    """
    return factor_allowance(m, cols) * math.sqrt(frobenius_sq(cols))


def block_spectra(g: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """The eigenvalues w of each (s, s) block of g, ascending, and an allowance e for all of them.

    Each block is a Gram from numerics.gram_blocks of s columns of length m
    with norms at most 1 + COLUMN_NORM_TOL, so the exact Gram G has trace and
    Frobenius norm at most t = frobenius_sq(s). Every eigenvalue of G lies
    within e of its computed one:
    - the computed entries lie within gamma ||a_k|| ||a_l|| of G's, and
      eigvalsh reads the lower triangle, so it factors G + E with E
      Hermitian and ||E||_2 <= ||E||_F <= gamma t;
    - eigvalsh returns the exact eigenvalues of that input plus a
      perturbation of 2-norm at most factor_allowance(s, s) (1 + gamma) t;
    - by Weyl's theorem no eigenvalue moves by more than the sum, and e is
      twice it, which covers the few roundings (each at most u, relative) of
      the interval arithmetic the scans do with w and e.
    """
    g_num, g_den = gamma(m)
    gam, s = g_num / g_den, g.shape[-1]
    e = 2.0 * frobenius_sq(s) * (gam + factor_allowance(s, s) * (1.0 + gam))
    return np.linalg.eigvalsh(g), e


def gershgorin_floor(g: np.ndarray, m: int) -> np.ndarray:
    """lam: for each (s, s) block of g, a lower bound on the smallest eigenvalue of the exact Gram it was computed from.

    Each block is a Gram from numerics.gram_blocks of s columns of length m
    with norms at most rho = 1 + COLUMN_NORM_TOL. Gershgorin's theorem, the
    paper's bound of a Gram from its entries, gives lambda_min(G) >= min_k
    (G_kk - sum_{l != k} |G_kl|) for the exact Gram G, and lam is that bound
    on the computed block less an allowance a:
    - each computed entry lies within gamma rho^2 of G's (gamma), so each
      row's bound moves by at most s gamma rho^2;
    - a computed magnitude is within 2u of the exact one, relative, and the
      sum of the s - 1 of them within (s + 2)u of its exact value, relative,
      each magnitude being at most 2 rho^2, so the row sum moves by at most
      2 (s + 2) s u rho^2, and the difference's rounding adds u 2 s rho^2;
    - a is twice their sum, which covers the roundings of a itself and of
      lam = min_k(...) - a.
    """
    g_num, g_den = gamma(m)
    s, rho_sq = g.shape[-1], frobenius_sq(1)
    a = 2.0 * s * rho_sq * (g_num / g_den + 2.0 * (s + 3) * numerics.UNIT_ROUNDOFF)
    mags = np.abs(g)
    mags[:, range(s), range(s)] = 0.0
    return np.min(np.diagonal(g, axis1=1, axis2=2).real - mags.sum(axis=-1), axis=-1) - a


def coherence_upper_bound(m: int, off_max: float, norm_sq_min: float) -> float:
    """An upper bound in [0, 1] on the exact coherence of the stored columns, each scaled to unit norm.

    off_max is the largest computed off-diagonal Gram magnitude, norm_sq_min the
    smallest computed diagonal entry (a squared column norm) of a complex walk
    or, on a real frame, of a real one (_gram_extremes). A computed entry lies
    within gamma ||a_k|| ||a_l|| of the exact one, in either arithmetic and any
    summation order (gamma), so the two norm_sq_min are both covered. The bound
    off_max (1 + gamma) / norm_sq_min + gamma is evaluated on the rational
    values of the doubles, num / den in integers, and rounded up.
    """
    g, h = gamma(m)
    (p, q), (r, s) = float(off_max).as_integer_ratio(), float(norm_sq_min).as_integer_ratio()
    num, den = p * (h + g) * s + g * q * r, q * h * r
    bound = num / den  # int / int rounds to nearest
    top, bottom = bound.as_integer_ratio()
    if top * den < num * bottom:
        bound = math.nextafter(bound, math.inf)
    return min(bound, 1.0)  # Cauchy-Schwarz


def coherence_index(a: matrices.MeasurementMatrix) -> CoherenceReport:
    """Maximum off-diagonal Gram magnitude of a column-normalized matrix.

    Off-diagonal mass below the numerical noise floor n*eps counts as zero,
    so orthonormal columns report mu = 0 (unbounded sparsity) instead of
    rounding dust. The Gram is walked in strips and no n x n Gram is built:
    one complex pass, except on a real frame of two strips or more, where a
    real pass picks the strips the complex pass computes (_gram_extremes).
    """
    off_max, off_min, norm_sq_min = _gram_extremes(a)
    if off_max <= a.n * np.finfo(np.float64).eps:
        mu = mu_hi = 0.0
    else:
        mu = min(off_max, 1.0)  # rounding can push |g_kl| a hair past 1
        mu_hi = coherence_upper_bound(a.m, off_max, norm_sq_min)
    return CoherenceReport(
        mu=mu,
        welch=matrices.welch_bound(a.m, a.n),
        k_max=max_sparsity(mu_hi),
        bound_value=sparsity_bound(mu),
        is_etf=matrices.welch_distance(a.m, a.n, off_max, off_min) <= matrices.ETF_GRAM_TOL,
        gram_offdiag_max=off_max,
        gram_offdiag_min=off_min,
    )


def _gram_extremes(a: matrices.MeasurementMatrix) -> tuple[float, float, float]:
    """numerics.gram_extremes(a.data), the off-diagonal extremes bit for bit; the smallest diagonal may be a real walk's.

    A complex frame, or one of a single strip (n <= STRIP_ROWS + 1), takes
    numerics.gram_extremes. A real frame (a.is_real) of two strips or more is
    walked first as a real product (numerics.strip_extremes with real), and
    then only the strips that _strips_to_walk keeps are computed, each by the
    complex product gram_extremes computes it with. They hold both extremes,
    so those carry the complex walk's bits. The smallest diagonal entry is the
    real walk's, which coherence_upper_bound covers as it does the complex one.
    """
    if a.n <= numerics.STRIP_ROWS + 1 or not a.is_real:  # a single strip reads no predicate
        return numerics.gram_extremes(a.data)
    real = numerics.strip_extremes(a.data, real=True)
    maxes, mins, _ = zip(*numerics.strip_extremes(a.data, _strips_to_walk(real, a.m)))
    return max(maxes), min(mins), min(diagonal for _, _, diagonal in real)


def _strips_to_walk(real, m: int) -> list[int]:
    """The strips, in order, whose complex product can hold the largest or the smallest off-diagonal magnitude.

    real holds each strip's (largest, smallest, diagonal) from the real walk
    of columns of length m. A strip is kept when its real largest lies within
    t = 5 gamma rho^2 of the real walk's largest, or its real smallest within t
    of the real walk's smallest (rho^2 = frobenius_sq(1)):
    - a computed magnitude lies within gamma rho^2 of the exact one, complex
      (gamma) or real (gamma_m < gamma, and its magnitude is exact), and
      every value the real walk reads for a strip is a computed product of
      one of its pairs, so the two walks' largest of one strip lie within
      2 gamma rho^2 of each other;
    - the strip S that holds the complex largest C has a real largest of at
      least C - 2 gamma rho^2, and C is at least the complex largest of the
      strip that holds the real largest R, itself at least R - 2 gamma rho^2:
      S's real largest is at least R - 4 gamma rho^2, and the smallest
      mirrors it;
    - the fifth gamma rho^2 exceeds 5 u rho^2 (m >= 1), which covers the few
      roundings of t and of R - t, each at most u times about rho^2.
    So every strip that holds an extreme of the complex walk is kept. When
    every strip ties, as on an ETF, all are kept and the real walk is spent.
    """
    g_num, g_den = gamma(m)
    t = 5.0 * g_num / g_den * frobenius_sq(1)
    maxes, mins = np.array([strip[:2] for strip in real]).T
    return np.flatnonzero((maxes >= maxes.max() - t) | (mins <= mins.min() + t)).tolist()


def _chunk_length(size: int, column_bytes: int) -> int:
    """Subsets per chunk, for every scan: their size columns of column_bytes fit SCAN_CHUNK_BYTES,
    and their complex (size, size) Gram blocks half of it, which on near-square sub-matrices sets the cap."""
    per_subset = max(size * column_bytes, 2 * size**2 * np.dtype(np.complex128).itemsize)
    return max(1, SCAN_CHUNK_BYTES // per_subset)


class SubsetScan:
    """Subsets of range(n) by size, then lexicographically, cut off after max_subsets.

    The budget fixes the counts before the first chunk: every route visits
    scanned = min(total, max_subsets) subsets.
    """

    def __init__(self, n: int, sizes, max_subsets: int):
        max_subsets = matrices.check_int(max_subsets, "the subset budget", 0)
        self.n, self.sizes = n, tuple(sizes)
        self.total = sum(math.comb(n, size) for size in self.sizes)
        self.scanned = min(self.total, max_subsets)

    @property
    def complete(self) -> bool:
        return self.scanned == self.total

    def chunks(self, column_bytes: int):
        """Yield the first scanned subsets as (c, size) index arrays, c at most _chunk_length(size, column_bytes)."""
        left = self.scanned
        for size in self.sizes:
            per_chunk, subsets = _chunk_length(size, column_bytes), _Lex(self.n, size)
            while left and len(idx := subsets.take(min(per_chunk, left))):
                left -= len(idx)
                yield idx


class _Lex:
    """The size-subsets of range(n) in lexicographic order, taken in blocks: itertools.combinations'
    order, without its pool of n Python ints.

    A subset is a prefix, a (size - 1)-subset of range(n - 1) that the level
    below makes, and a last element that runs from the prefix's last + 1 to
    n - 1. A level holds the prefix whose run it is in and, in ahead, the
    subsets it made that the level above gave back unused.
    """

    def __init__(self, n: int, size: int):
        self.n = n
        self.prefixes = _Lex(n - 1, size - 1) if size > 1 else None
        self.ahead = np.empty((0, size), dtype=np.intp)
        self.prefix = np.empty(0, dtype=np.intp) if size == 1 and n > 0 else None
        self.last = 0  # the next last element of prefix's run

    def take(self, count: int) -> np.ndarray:
        """The next count subsets as the rows of an index array; fewer only at the end."""
        out = np.empty((count, self.ahead.shape[1]), dtype=np.intp)
        head, self.ahead = self.ahead[:count], self.ahead[count:]
        got = len(head)
        out[:got] = head
        if got < count and self.prefix is not None:
            run = min(count - got, self.n - self.last)
            out[got : got + run, :-1], out[got : got + run, -1] = self.prefix, np.arange(self.last, self.last + run)
            self.last += run
            got += run
            if self.last == self.n:
                self.prefix = None
        if got < count and self.prefixes is not None:
            want = count - got
            pre = self.prefixes.take(want)
            runs = self.n - 1 - pre[:, -1]  # at least 1 each
            ends = np.cumsum(runs)
            j = int(np.searchsorted(ends, want))  # prefixes 0..j give the want subsets
            if j < len(pre):
                used = want - (int(ends[j - 1]) if j else 0)
                if used < runs[j]:
                    self.prefix, self.last = pre[j], int(pre[j, -1]) + 1 + used
                self.prefixes.ahead = np.concatenate((pre[j + 1 :], self.prefixes.ahead))
                pre, runs, ends = pre[: j + 1], runs[: j + 1], ends[: j + 1]
                runs[j], ends[j] = used, want
            block = out[got : got + (int(ends[-1]) if len(ends) else 0)]
            block[:, :-1] = np.repeat(pre, runs, axis=0)
            block[:, -1] = block[:, -2] + np.arange(1, len(block) + 1) - np.repeat(ends - runs, runs)
            got += len(block)
        return out[:got]


def uniqueness_rank_scan(
    a: matrices.MeasurementMatrix,
    k: int,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> UniquenessReport:
    """Check that every 2k-column sub-matrix has full rank 2k.

    Full rank for all subsets rules out two distinct k-sparse vectors
    explaining the same measurements. Subsets are visited in lexicographic
    order and the witness is the lexicographically first failure. Only the
    first max_subsets subsets are scanned, and complete says whether that
    was all of them.

    Every reported number comes from one batched SVD of the subsets that
    need it. The Gram block of each subset decides first which do
    (_needs_svd): a subset it proves full rank, whose condition number it
    proves to lie inside the extremes seen so far, is not factored. It
    cannot be the witness or set min_cond or max_cond, so the report is the
    same as when every subset is factored.

    When the budget covers every subset and a's family names a translation
    group (translation_group) that the stored data obey to within
    translation_gap < 1/2, one Gram block per orbit decides for its whole
    orbit instead (_orbit_chunks), with the same report.
    """
    k = matrices.check_int(k, "sparsity k", 1, a.m // 2)  # 2k columns must fit in m rows
    scan = SubsetScan(a.n, (2 * k,), max_subsets)
    group = translation_group(a) if scan.complete else None
    orbits = group is not None and (eta := translation_gap(a, *group)) < 0.5
    batches = _orbit_chunks(a, 2 * k, *group, eta) if orbits else scan.chunks(a.m * a.data.itemsize)
    witness = None
    min_cond = math.inf
    max_cond = 0.0
    bounds = (0.0, math.inf)  # (floor, ceiling), see _needs_svd
    for idx in batches:
        first, low, high, bounds = _factor_chunk(a, idx, bounds, screen=not orbits)
        witness = min((w for w in (witness, first) if w is not None), default=None)
        min_cond, max_cond = min(min_cond, low), max(max_cond, high)
    if max_cond == 0.0:  # no full-rank subset seen
        min_cond = max_cond = math.inf
    all_full_rank = False if witness is not None else (True if scan.complete else None)
    return UniquenessReport(k, scan.total, scan.scanned, all_full_rank, witness, min_cond, max_cond, scan.complete)


def _factor_chunk(a: matrices.MeasurementMatrix, idx: np.ndarray, bounds, screen: bool = True):
    """One chunk of the uniqueness scan: (lex-least rank-deficient subset or None, least and greatest
    condition number of the full-rank ones, bounds updated), from one SVD of the subsets that need it,
    all of idx unless screen.

    Its arrays go when it returns, so none is alive while the next chunk is gathered.
    """
    rows = a.data.T[idx]  # rows[i] holds the columns of sub-matrix i as its rows
    size = idx.shape[1]
    if screen:
        need, bounds = _needs_svd(rows, a.m, bounds)
        if not need.all():
            idx, rows = idx[need], rows[need]
    s = np.linalg.svd(rows.transpose(0, 2, 1), compute_uv=False)
    del rows  # the chunk's largest array is not read past the SVD
    deficient = s[:, -1] <= numerics.rank_tolerance((a.m, size), s[:, 0])
    bad = idx[deficient]
    first = tuple(bad[np.lexsort(bad.T[::-1])[0]].tolist()) if len(bad) else None
    cond = s[~deficient, 0] / s[~deficient, -1]
    low, high = float(np.min(cond, initial=math.inf)), float(np.max(cond, initial=0.0))
    return first, low, high, (max(bounds[0], high), min(bounds[1], low))


def _needs_svd(rows: np.ndarray, m: int, bounds, extra: float = 0.0):
    """Mask of the subsets whose SVD the scan must read, and bounds updated.

    From the eigenvalues w of each Gram block and their allowance e
    (block_spectra), sigma_max^2 lies in w_max +- e and sigma_min^2 in
    w_min +- e. The SVD returns each singular value within d of the exact
    one, d twice singular_value_allowance. So the SVD's values lie in known
    intervals, and:
    - a subset is surely full rank when the low end for sigma_min is more
      than twice the rank tolerance at the high end for sigma_max;
    - its condition number then lies in [lo, hi], the quotients of the ends.
    bounds = (floor, ceiling): floor is the largest lo and computed
    condition number seen so far, ceiling the smallest hi and computed one.
    The scan's max_cond thus ends at or above floor and its min_cond at or
    below ceiling, as the bounds only widen. A surely full-rank subset with
    hi < floor and lo > ceiling sets neither and is not factored; a subset
    that sets one has hi >= floor or lo <= ceiling at every step.

    extra widens e, so the mask and [lo, hi] also hold for every sub-matrix
    whose exact Gram lies within extra of a block's exact Gram in 2-norm
    (Weyl's theorem): the other members of an orbit (_orbit_chunks).
    """
    s = rows.shape[1]
    w, e = block_spectra(numerics.gram_blocks(rows), m)
    e += extra
    d = 2.0 * singular_value_allowance(m, s)
    big_lo, big_hi = np.sqrt(np.maximum(w[:, -1] - e, 0.0)) - d, np.sqrt(w[:, -1] + e) + d
    small_lo, small_hi = np.sqrt(np.maximum(w[:, 0] - e, 0.0)) - d, np.sqrt(np.maximum(w[:, 0] + e, 0.0)) + d
    sure = small_lo > 2.0 * numerics.rank_tolerance((m, s), big_hi)
    lo, hi = big_lo[sure] / small_hi[sure], big_hi[sure] / small_lo[sure]
    floor, ceiling = max(bounds[0], float(lo.max(initial=0.0))), min(bounds[1], float(hi.min(initial=math.inf)))
    need = ~sure
    need[sure] = (hi >= floor) | (lo <= ceiling)
    return need, (floor, ceiling)


def translation_group(a: matrices.MeasurementMatrix) -> tuple[int, int] | None:
    """(o, q): the translations a's family names, or None. Translation b keeps the columns below o
    and moves column c >= o to o + (c - o + b) mod q.

    - A partial DFT, whose meta holds its rows (partial-dft, subsampling and
      harmonic etf), has columns a_c = (w^(r c))_r, so A_{S+b} = D_b A_S with
      D_b = diag(w^(r b)) unitary: (0, n).
    - A Paley ETF has the Gram I + C / sqrt(n - 1). Its columns are infinity,
      then GF(n - 1), and x -> x + b fixes infinity and the conference matrix
      C: (1, n - 1).
    Either way the exact sub-matrices of one orbit share their singular
    values. The name only says which group to try: translation_gap measures
    how closely the stored data obey it.
    """
    if "rows" in a.meta:
        return 0, a.n
    if a.meta.get("route") == "paley-conference":
        return 1, a.n - 1
    return None


def translation_gap(a: matrices.MeasurementMatrix, o: int, q: int) -> float:
    """eta: the largest gap between a computed Gram entry of a and a reference shared by its translates.

    The reference r(x, y) of an ordered pair is entry d = (y - x) mod q of
    the row a_o^H A_{>=o}, computed up front by one product, when both
    columns move; the computed G[0, 1] (its conjugate when x > y) when one
    is fixed; and the exact G[x, y] when both are. No translation changes r,
    and that is all the bound needs: r need not be a Gram entry. Each upper
    entry is held to its reference and its conjugate to the transpose's, so
    |G[x, y] - r(x, y)| <= eta on every ordered pair of the computed Gram,
    its lower triangle the upper's conjugate (numerics.gram).

    The entries come from numerics.gram_strips, so none is built n x n,
    and each lies within gamma ||a_x|| ||a_y|| of the exact one (gamma).
    """
    ref = a.data[:, o].conj() @ a.data[:, o:]

    def gap(strip):
        i = a.n - strip.shape[1]  # rows i.. of the Gram, from column i on
        eta = float(np.abs(strip[0, 1:] - strip[0, 1]).max()) if o and not i else 0.0
        x = np.arange(i, i + len(strip))[:, None]
        d = np.arange(i, a.n) - x
        upper = (d >= 0) & (x >= o)
        g, d = strip[upper], d[upper]
        return max(eta, float(np.abs(g - ref[d]).max(initial=0.0)), float(np.abs(g - ref[-d % q].conj()).max(initial=0.0)))

    return max(numerics.gram_strips(a.data, gap))


def _translate(subsets: np.ndarray, shift, o: int, q: int) -> np.ndarray:
    """Each subset moved by its shift (translation_group), sorted."""
    return np.sort(np.where(subsets >= o, o + (subsets - o + shift) % q, subsets), axis=-1)


def _orbit_chunks(a: matrices.MeasurementMatrix, s: int, o: int, q: int, eta: float):
    """The s-subsets the uniqueness scan must factor, in chunks: every member of each orbit of the
    translations (o, q) whose representative's Gram block cannot clear it.

    The representative is an orbit's lex-least member. It holds column o, as
    a translate of any member does, so the candidates are the subsets that
    hold o, in _Lex chunks, and a candidate is kept when no translate taking
    one of its columns to o is lex-less. The lex-least deficient subset of a
    is then the lex-least deficient member of a factored orbit.

    Every member's exact Gram block lies within extra = 2 s (eta + 2 gamma
    rho^2)(1 + u) of its representative's in 2-norm, rho^2 = frobenius_sq(1):
    - a computed Gram entry lies within gamma rho^2 of the exact one
      (gamma), so by translation_gap every exact entry lies within eta +
      gamma rho^2 of a reference that no translation changes (any such
      reference will do; it need not be a Gram entry), and a member's
      block, in the order its translation gives it, lies entrywise within
      2 (eta + gamma rho^2) of the representative's;
    - an s x s matrix of such entries has 2-norm at most s times that;
    - eta < 1/2, so the roundings in computing eta and extra, under 8 u
      eta < 4 u in all, stay below the second gamma rho^2 (gamma > 5 u).
    So _needs_svd with extra clears an orbit only where it would clear every
    member, and the report is the lexicographic scan's, bit for bit.
    """
    g_num, g_den = gamma(a.m)
    extra = 2.0 * s * (eta + 2.0 * g_num / g_den * frobenius_sq(1)) * (1.0 + numerics.UNIT_ROUNDOFF)
    per_chunk = _chunk_length(s, a.m * a.data.itemsize)
    # a subset that translation b fixes is a union of cosets of the q / b translations b generates: q / b <= s
    periods = [b for b in range(q - 1, 0, -1) if q % b == 0 and q // b <= s]
    bounds = (0.0, math.inf)
    candidates = _Lex(a.n - 1, s - 1)
    while len(rest := candidates.take(per_chunk)):
        held = np.sort(np.concatenate((np.full((len(rest), 1), o), rest + (rest >= o)), axis=1), axis=1)
        moved = _translate(held[:, None, :], o - held[:, :, None], o, q) - held[:, None, :]
        first = np.take_along_axis(moved, (moved != 0).argmax(axis=-1)[..., None], axis=-1)
        reps = held[(first >= 0).all(axis=(1, 2))]
        del held, moved, first
        need, bounds = _needs_svd(a.data.T[reps], a.m, bounds, extra)
        reps = reps[need]
        if not len(reps):
            continue
        sizes = np.full(len(reps), q)  # orbit sizes: the least translation that fixes the representative
        for b in periods:
            sizes[(_translate(reps, b, o, q) == reps).all(axis=1)] = b
        ends = np.cumsum(sizes)
        for start in range(0, int(ends[-1]), per_chunk):
            at = np.arange(start, min(start + per_chunk, int(ends[-1])))
            owner = np.searchsorted(ends, at, side="right")
            yield _translate(reps[owner], (at - ends[owner] + sizes[owner])[:, None], o, q)


def rip_constant(
    a: matrices.MeasurementMatrix,
    k: int,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> RipReport:
    """Brute-force isometry constant over k-column subsets.

    delta = max over scanned subsets S of max(lambda_max(G_S) - 1,
    1 - lambda_min(G_S)). The enumeration cost is the point: this
    certificate is combinatorial, hence the budget guard.
    """
    k = matrices.check_int(k, "sparsity k", 1, a.m)
    scan = SubsetScan(a.n, (k,), max_subsets)
    delta, g = 0.0, numerics.gram(a.data) if scan.scanned else None  # a zero budget builds no Gram
    for idx in scan.chunks(0):  # it gathers no columns: its Gram blocks set the chunk
        w = np.linalg.eigvalsh(g[idx[:, :, None], idx[:, None, :]])
        delta = max(delta, float(w[:, -1].max()) - 1.0, 1.0 - float(w[:, 0].min()))
    return RipReport(k, delta, scan.scanned, scan.total, scan.complete)
