"""The chunked subset-scan engine against the per-subset loops it replaced.

The reference loops below visit one subset at a time and factor it with the
public numerics helpers. The engine must reproduce them: uniqueness reports
exactly, RIP constants within 1e-12 and l0 supports exactly with values
within 1e-10. Small SCAN_CHUNK_BYTES values force many chunk boundaries on
small matrices.
"""
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csense import coherence, matrices, numerics, recovery
from csense.serialization import to_dict

from conftest import traced_peak
from test_coherence import rip_by_charpoly


def uniqueness_by_loop(a, k, max_subsets):
    """(witness, scanned, min_cond, max_cond) from one SVD per 2k-column subset."""
    witness = None
    min_cond = math.inf
    max_cond = 0.0
    scanned = 0
    for subset in itertools.combinations(range(a.n), 2 * k):
        if scanned >= max_subsets:
            break
        scanned += 1
        s = np.linalg.svd(a.data[:, subset], compute_uv=False)
        if s[0] == 0.0 or s[-1] <= numerics.rank_tolerance((a.m, 2 * k), float(s[0])):
            if witness is None:
                witness = subset
        else:
            cond = float(s[0] / s[-1])
            min_cond = min(min_cond, cond)
            max_cond = max(max_cond, cond)
    if max_cond == 0.0:
        min_cond = max_cond = math.inf
    return witness, scanned, min_cond, max_cond


def rip_by_loop(a, k, max_subsets):
    """(delta, scanned) from one Hermitian eigensolve per k-column Gram."""
    delta = 0.0
    scanned = 0
    for subset in itertools.islice(itertools.combinations(range(a.n), k), max_subsets):
        scanned += 1
        lo, hi = numerics.hermitian_eigen_extremes(numerics.gram(a.data[:, subset]))
        delta = max(delta, hi - 1.0, 1.0 - lo)
    return delta, scanned


def l0_by_loop(a, y, k_max, epsilon, max_subsets):
    """(solutions, scanned) from a rank test plus an lstsq fit per support."""
    vec = numerics.as_vector(y)
    threshold = epsilon * float(np.linalg.norm(vec))
    supports = itertools.chain.from_iterable(itertools.combinations(range(a.n), k) for k in range(1, k_max + 1))
    solutions = []
    scanned = 0
    for subset in itertools.islice(supports, max_subsets):
        scanned += 1
        sub = a.data[:, subset]
        if numerics.numerical_rank(sub) < len(subset):
            continue
        vals = numerics.solve_least_squares(sub, vec)
        residual = float(np.linalg.norm(vec - sub @ vals))
        if residual <= threshold and float(np.min(np.abs(vals))) > numerics.ZERO_TOL:
            solutions.append(recovery.L0Solution(subset, vals, residual))
    return solutions, scanned


def random_matrix(seed, m, n, duplicate=None):
    """Unit-norm complex Gaussian columns; duplicate=(i, j) copies column i into column j."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    if duplicate is not None:
        data[:, duplicate[1]] = data[:, duplicate[0]]
    return matrices.MeasurementMatrix(data / np.linalg.norm(data, axis=0), "custom")


@st.composite
def scan_cases(draw, scan, max_n=11):
    """(matrix, k, max_subsets) for scan "uniqueness", "rip" or "l0", plus a SCAN_CHUNK_BYTES value.

    The budget may end anywhere, in the middle of a chunk included, and the
    chunk holds one to a few dozen subsets so every boundary case is in reach.
    """
    m = draw(st.integers(2, 6))
    n = draw(st.integers(m, max_n))
    k = draw(st.integers(1, m if scan == "rip" else m // 2))
    duplicate = None
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        duplicate = (i, j)
    mat = random_matrix(draw(st.integers(0, 2**32 - 1)), m, n, duplicate)
    sizes = {"uniqueness": (2 * k,), "rip": (k,), "l0": range(1, k + 1)}[scan]
    total = sum(math.comb(n, size) for size in sizes)
    max_subsets = draw(st.one_of(st.just(coherence.DEFAULT_MAX_SUBSETS), st.integers(0, total + 1)))
    column_bytes = (k if scan == "rip" else m) * mat.data.itemsize
    chunk_bytes = draw(st.integers(1, 40)) * max(sizes) * column_bytes
    return mat, k, max_subsets, chunk_bytes


@settings(max_examples=60, deadline=None)
@given(scan_cases("uniqueness"))
def test_uniqueness_matches_loop_exactly(case):
    mat, k, max_subsets, chunk_bytes = case
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", chunk_bytes):
        rep = coherence.uniqueness_rank_scan(mat, k, max_subsets=max_subsets)
    witness, scanned, min_cond, max_cond = uniqueness_by_loop(mat, k, max_subsets)
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == (witness, scanned, min_cond, max_cond)
    assert rep.complete == (scanned == rep.total_subsets == math.comb(mat.n, 2 * k))
    if witness is not None:
        assert rep.all_full_rank is False
    else:
        assert rep.all_full_rank is (True if rep.complete else None)


@settings(max_examples=60, deadline=None)
@given(scan_cases("rip"))
def test_rip_matches_loop_and_charpoly(case):
    mat, k, max_subsets, chunk_bytes = case
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", chunk_bytes):
        rep = coherence.rip_constant(mat, k, max_subsets=max_subsets)
    delta, scanned = rip_by_loop(mat, k, max_subsets)
    assert rep.subsets_scanned == scanned
    assert rep.total_subsets == math.comb(mat.n, k)
    assert rep.complete == (scanned == rep.total_subsets)
    assert abs(rep.delta - delta) <= 1e-12
    if rep.complete:
        assert abs(rep.delta - rip_by_charpoly(mat, k)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(scan_cases("l0", max_n=10), st.data())
def test_l0_matches_loop(case, data):
    mat, k_max, max_subsets, chunk_bytes = case
    sparsity = data.draw(st.integers(1, k_max))
    support = tuple(sorted(data.draw(st.lists(st.integers(0, mat.n - 1), min_size=sparsity,
                                              max_size=sparsity, unique=True))))
    phases = np.asarray(data.draw(st.lists(st.floats(0.0, 6.28), min_size=sparsity, max_size=sparsity)))
    y = recovery.measure(mat, recovery.SparseSignal(mat.n, support, np.exp(1j * phases)))
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", chunk_bytes):
        rep = recovery.exhaustive_l0_search(mat, y, k_max, 1e-8, max_subsets=max_subsets)
    solutions, scanned = l0_by_loop(mat, y, k_max, 1e-8, max_subsets)
    total = sum(math.comb(mat.n, k) for k in range(1, k_max + 1))
    assert (rep.scanned, rep.total, rep.complete) == (scanned, total, scanned == total)
    assert [s.support for s in rep.solutions] == [s.support for s in solutions]
    for got, want in zip(rep.solutions, solutions):
        assert np.max(np.abs(got.values - want.values)) <= 1e-10


def test_duplicate_column_witness_past_the_first_chunk():
    # 4x70 with columns 60 and 65 equal: the first deficient pair sits beyond
    # the first chunk of 2048 pairs at the shipped chunk size
    mat = random_matrix(7, 4, 70, duplicate=(60, 65))
    per_chunk = coherence.SCAN_CHUNK_BYTES // (2 * mat.m * mat.data.itemsize)
    position = list(itertools.combinations(range(70), 2)).index((60, 65))
    assert position >= per_chunk
    rep = coherence.uniqueness_rank_scan(mat, 1)
    assert rep.witness == (60, 65)
    expected = uniqueness_by_loop(mat, 1, coherence.DEFAULT_MAX_SUBSETS)
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == expected
    assert rep.all_full_rank is False and rep.complete


def test_rip_low_side_deviation():
    # three unit vectors 120 degrees apart in a plane: their Gram has eigenvalues
    # 1.5, 1.5 and 0, so delta = 1 comes from lambda_min while lambda_max gives 0.5
    angles = 2.0 * math.pi * np.arange(3) / 3.0
    data = np.zeros((3, 4))
    data[0, :3], data[1, :3], data[2, 3] = np.cos(angles), np.sin(angles), 1.0
    mat = matrices.MeasurementMatrix(data, "custom")
    rep = coherence.rip_constant(mat, 3)
    assert abs(rep.delta - 1.0) <= 1e-12
    assert abs(rep.delta - rip_by_loop(mat, 3, coherence.DEFAULT_MAX_SUBSETS)[0]) <= 1e-12


def test_l0_skips_supports_with_duplicate_columns(even_rows_dft8):
    # columns 0 and 4 agree to rounding, so the pair (0, 4) is rank deficient even
    # though its smallest singular value is not exactly zero
    y = even_rows_dft8.data[:, 0]
    rep = recovery.exhaustive_l0_search(even_rows_dft8, y, 2, 1e-8)
    solutions, _ = l0_by_loop(even_rows_dft8, y, 2, 1e-8, coherence.DEFAULT_MAX_SUBSETS)
    assert [s.support for s in rep.solutions] == [s.support for s in solutions] == [(0,), (4,)]


def test_zero_budget_scans_nothing_and_says_so():
    mat = matrices.build_gaussian(24, 64, seed=0)
    uniq = coherence.uniqueness_rank_scan(mat, 2, max_subsets=0)
    assert (uniq.scanned, uniq.all_full_rank, uniq.complete, uniq.witness) == (0, None, False, None)
    assert to_dict(uniq)["all_full_rank"] is None
    rip = coherence.rip_constant(mat, 2, max_subsets=0)
    assert (rip.subsets_scanned, rip.total_subsets, rip.complete, rip.delta) == (0, 2016, False, 0.0)
    l0 = recovery.exhaustive_l0_search(mat, mat.data[:, 5], 2, 1e-8, max_subsets=0)
    assert l0 == recovery.L0Report([], 0, 64 + 2016, False)


def test_negative_budget_is_an_input_error(even_rows_dft8):
    with pytest.raises(ValueError, match="budget"):
        coherence.uniqueness_rank_scan(even_rows_dft8, 1, max_subsets=-1)
    with pytest.raises(ValueError, match="budget"):
        coherence.rip_constant(even_rows_dft8, 2, max_subsets=-1)
    with pytest.raises(ValueError, match="budget"):
        recovery.exhaustive_l0_search(even_rows_dft8, np.ones(4), 1, 1e-8, max_subsets=-1)


def test_truncated_scan_with_witness_is_still_decided(even_rows_dft8):
    # (0, 4) is the fourth of 28 pairs, so a four-subset budget already finds the witness
    rep = coherence.uniqueness_rank_scan(even_rows_dft8, 1, max_subsets=4)
    assert (rep.scanned, rep.complete, rep.all_full_rank, rep.witness) == (4, False, False, (0, 4))


def test_scan_memory_is_bounded_by_the_chunk(etf30):
    # all 27,405 stacks of the 15x30 k=2 scan would take 26 MB at once
    coherence.uniqueness_rank_scan(etf30, 2)
    rep, peak = traced_peak(coherence.uniqueness_rank_scan, etf30, 2)
    assert rep.complete and rep.all_full_rank
    assert peak <= 2 * coherence.SCAN_CHUNK_BYTES


def test_subset_scan_enumerates_in_order_and_stops_at_budget():
    scan = coherence.SubsetScan(6, (1, 2), 12)
    rows = [tuple(r) for c in scan.chunks(16) for r in c.tolist()]
    expected = [(i,) for i in range(6)] + list(itertools.combinations(range(6), 2))
    assert rows == expected[:12]
    assert (scan.scanned, scan.total, scan.complete) == (12, 21, False)
    scan = coherence.SubsetScan(6, (2,), 100)
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", 3 * 2 * 16):
        chunks = list(scan.chunks(16))
    assert [len(c) for c in chunks] == [3, 3, 3, 3, 3]
    assert [tuple(r) for c in chunks for r in c.tolist()] == list(itertools.combinations(range(6), 2))
    assert scan.complete
