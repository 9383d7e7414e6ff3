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
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matrices, numerics
from .matrices import welch_bound
from .serialization import BOOLS

DEFAULT_MAX_SUBSETS = 100_000
# Bytes of sub-matrices one scan chunk gathers, which fixes a scan's working memory.
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


def coherence_upper_bound(m: int, off_max: float, norm_sq_min: float) -> float:
    """An upper bound in [0, 1] on the exact coherence of the stored columns, each scaled to unit norm.

    off_max is the largest computed off-diagonal Gram magnitude, norm_sq_min the
    smallest computed diagonal entry (a squared column norm). For any summation
    order, a computed entry lies within gamma ||a_k|| ||a_l|| of the exact one,
    gamma = (m + 4) u / (1 - (m + 4) u) and u = 2^-53: gamma_{m+2} for a complex
    inner product of m-vectors (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 3), one rounding for the symmetrization and
    one for the magnitude. The bound off_max (1 + gamma) / norm_sq_min + gamma
    is evaluated on the rational values of the doubles, num / den in integers,
    and rounded up.
    """
    g, h = m + 4, 2**53 - (m + 4)  # gamma = g / h
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
    rounding dust.
    """
    off_max, off_min = matrices.gram_offdiagonal_extremes(a)
    if off_max <= a.n * np.finfo(np.float64).eps:
        mu = mu_hi = 0.0
    else:
        mu = min(off_max, 1.0)  # rounding can push |g_kl| a hair past 1
        mu_hi = coherence_upper_bound(a.m, off_max, float(np.min(a.gram.diagonal().real)))
    return CoherenceReport(
        mu=mu,
        welch=welch_bound(a.m, a.n),
        k_max=max_sparsity(mu_hi),
        bound_value=sparsity_bound(mu),
        is_etf=matrices.welch_distance(a.m, a.n, off_max, off_min) <= matrices.ETF_GRAM_TOL,
        gram_offdiag_max=off_max,
        gram_offdiag_min=off_min,
    )


class SubsetScan:
    """Subsets of range(n) by size, then lexicographically, cut off after max_subsets."""

    def __init__(self, n: int, sizes, max_subsets: int):
        max_subsets = matrices.check_int(max_subsets, "the subset budget", 0)
        self.n, self.sizes, self.max_subsets = n, tuple(sizes), max_subsets
        self.total = sum(math.comb(n, size) for size in self.sizes)
        self.scanned = 0

    @property
    def complete(self) -> bool:
        return self.scanned == self.total

    def chunks(self, column_bytes: int):
        """Yield (c, size) index arrays, c capped so c*size columns of column_bytes fit SCAN_CHUNK_BYTES."""
        for size in self.sizes:
            per_chunk = max(1, SCAN_CHUNK_BYTES // (size * column_bytes))
            combos = itertools.combinations(range(self.n), size)
            while self.scanned < self.max_subsets:
                rows = itertools.islice(combos, min(per_chunk, self.max_subsets - self.scanned))
                idx = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp).reshape(-1, size)
                if not len(idx):
                    break
                self.scanned += len(idx)
                yield idx


def uniqueness_rank_scan(
    a: matrices.MeasurementMatrix,
    k: int,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> UniquenessReport:
    """Check that every 2k-column sub-matrix has full rank 2k.

    Full rank for all subsets rules out two distinct k-sparse vectors
    explaining the same measurements. Subsets are visited in lexicographic
    order and the witness is the first failure. Only the first max_subsets
    subsets are scanned, and complete says whether that was all of them.
    """
    k = matrices.check_int(k, "sparsity k", 1, a.m // 2)  # 2k columns must fit in m rows
    scan = SubsetScan(a.n, (2 * k,), max_subsets)
    witness = None
    min_cond = math.inf
    max_cond = 0.0
    for idx in scan.chunks(a.m * a.data.itemsize):
        s = np.linalg.svd(a.data[:, idx].transpose(1, 0, 2), compute_uv=False)
        deficient = s[:, -1] <= numerics.rank_tolerance((a.m, 2 * k), s[:, 0])
        if witness is None and deficient.any():
            witness = tuple(idx[np.argmax(deficient)].tolist())
        cond = s[~deficient, 0] / s[~deficient, -1]
        min_cond = float(np.min(cond, initial=min_cond))
        max_cond = float(np.max(cond, initial=max_cond))
    if max_cond == 0.0:  # no full-rank subset seen
        min_cond = max_cond = math.inf
    all_full_rank = False if witness is not None else (True if scan.complete else None)
    return UniquenessReport(k, scan.total, scan.scanned, all_full_rank, witness, min_cond, max_cond, scan.complete)


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
    g = a.gram
    delta = 0.0
    for idx in scan.chunks(k * g.itemsize):
        w = np.linalg.eigvalsh(g[idx[:, :, None], idx[:, None, :]])
        delta = max(delta, float(w[:, -1].max()) - 1.0, 1.0 - float(w[:, 0].min()))
    return RipReport(k, delta, scan.scanned, scan.total, scan.complete)
