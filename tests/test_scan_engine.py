"""The chunked subset-scan engine against the per-subset loops it replaced.

The reference loops below visit one subset at a time and factor it with the
public numerics helpers. The engine must reproduce them: uniqueness reports
exactly, RIP constants within 1e-12 and l0 supports exactly with values
within 1e-10. Small SCAN_CHUNK_BYTES values force many chunk boundaries on
small matrices.

The Gram-block screening of the uniqueness scan and the l0 search may skip
only factorizations whose results could not be reported. The uniqueness
loop checks that exactly; for the l0 search, l0_by_fit fits every support on
its own with the search's own fit, and the search must match it bit for bit.
The uniqueness scan's orbit route, which screens one block per translation
orbit, must match the loop and the lexicographic route field for field.
"""
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csense import cli, coherence, matrices, numerics, recovery
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
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        rip = coherence.rip_constant(mat, 2, max_subsets=0)
    assert (rip.subsets_scanned, rip.total_subsets, rip.complete, rip.delta) == (0, 2016, False, 0.0)
    assert gram.call_count == 0  # a scan of nothing builds no n x n Gram
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
    assert (scan.scanned, scan.total, scan.complete) == (12, 21, False)  # the budget sets them before any chunk
    rows = [tuple(r) for c in scan.chunks(16) for r in c.tolist()]
    expected = [(i,) for i in range(6)] + list(itertools.combinations(range(6), 2))
    assert rows == expected[:12]
    assert (scan.scanned, scan.total, scan.complete) == (12, 21, False)
    scan = coherence.SubsetScan(6, (2,), 100)
    assert (scan.scanned, scan.complete) == (15, True)
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", 3 * 128):  # a pair's 2x2 complex Gram block, 64 bytes, in half a chunk
        chunks = list(scan.chunks(16))
    assert [len(c) for c in chunks] == [3, 3, 3, 3, 3]
    assert [tuple(r) for c in chunks for r in c.tolist()] == list(itertools.combinations(range(6), 2))
    assert scan.complete


def test_gram_blocks_cap_a_chunk_only_where_they_outweigh_half_its_columns():
    # one rule for every scan: a subset's columns fill a chunk and its complex Gram block half of one
    for m, size in itertools.product(range(1, 13), range(1, 7)):
        scan, total = coherence.SubsetScan(9, (size,), 5000), math.comb(9, size)
        assert (scan.scanned, scan.complete) == (total, True)
        with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", 4096):
            chunks = list(scan.chunks(m * 16))
        per = max(1, 4096 // max(size * m * 16, 2 * size * size * 16))
        assert [len(c) for c in chunks] == [per] * (total // per) + [total % per] * (total % per > 0)
        assert [tuple(r) for c in chunks for r in c.tolist()] == list(itertools.combinations(range(9), size))


# ------------------------------------------- Gram-block screening of the scans


def near_duplicate_matrix(seed, m, n, pairs, distance):
    """Unit-norm complex Gaussian columns, column j moved to within about distance of column i for each (i, j) in pairs."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    data /= np.linalg.norm(data, axis=0)
    for i, j in pairs:
        nudge = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        data[:, j] = data[:, i] + distance * nudge / np.linalg.norm(nudge)
    return matrices.MeasurementMatrix(data / np.linalg.norm(data, axis=0), "custom")


def count_svd_inputs(monkeypatch):
    """Count the matrices np.linalg.svd factors from here on."""
    seen = []
    svd = np.linalg.svd

    def counting(x, *args, **kwargs):
        seen.append(len(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return seen


def l0_by_fit(mat, y, k_max, epsilon, max_subsets):
    """(support, value bytes, residual) of each support whose _fit, on that support alone, passes the search's tests.

    What the search reports when it fits every support: the oracle for its screening, bit for bit.
    Near a tie, where lstsq and the SVD fit round differently, it can differ from l0_by_loop.
    """
    vec = numerics.as_vector(y)
    y_norm = float(np.linalg.norm(vec))
    supports = itertools.chain.from_iterable(itertools.combinations(range(mat.n), k) for k in range(1, k_max + 1))
    solutions = []
    for subset in itertools.islice(supports, max_subsets):
        full, vals, residual = recovery._fit(mat.data[:, list(subset)][None], vec)
        if full[0] and residual[0] <= epsilon * y_norm and np.min(np.abs(vals[0])) > numerics.ZERO_TOL * y_norm:
            solutions.append((subset, vals[0].tobytes(), float(residual[0])))
    return solutions


def assert_l0_matches_fit_alone(mat, y, k_max, epsilon, max_subsets=coherence.DEFAULT_MAX_SUBSETS):
    """The search's solutions, values and residuals are those of _fit on each support alone."""
    rep = recovery.exhaustive_l0_search(mat, y, k_max, epsilon, max_subsets=max_subsets)
    got = [(s.support, s.values.tobytes(), s.residual) for s in rep.solutions if s.support]
    assert got == l0_by_fit(mat, y, k_max, epsilon, max_subsets)
    return rep


@pytest.mark.parametrize("distance", [1e-2, 1e-5, 1e-8, 1e-11])
@pytest.mark.parametrize("k", [1, 2])
def test_near_duplicate_columns_are_factored_as_the_loop_does(distance, k):
    # the nearer the pair, the larger its condition number, until the rank test flags it
    mat = near_duplicate_matrix(3, 10, 16, [(2, 9), (5, 13)], distance)
    rep = coherence.uniqueness_rank_scan(mat, k)
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, k, coherence.DEFAULT_MAX_SUBSETS)


@pytest.mark.parametrize("distance", [1e-2, 1e-5, 1e-8, 1e-11])
def test_near_duplicate_columns_in_the_l0_search(distance):
    mat = near_duplicate_matrix(4, 12, 16, [(2, 9), (5, 13)], distance)
    for support in [(2, 5), (2, 9, 13), (1, 9, 14)]:
        y = recovery.measure(mat, recovery.SparseSignal(mat.n, support, np.exp(1j * np.arange(1.0, len(support) + 1))))
        for epsilon in (1e-10, 1e-6, 0.3):
            assert_l0_matches_fit_alone(mat, y, 3, epsilon)


@pytest.mark.parametrize("name, k, all_tie", [("etf14", 1, True), ("etf30", 1, True), ("etf30", 2, False)])
def test_etf_tie_classes_keep_their_extremes(request, monkeypatch, name, k, all_tie):
    # an ETF's subsets fall into classes of equal condition number in exact arithmetic (every
    # pair is one class); rounding decides which member holds an extreme, so all of both
    # extreme classes are factored
    mat = request.getfixturevalue(name)
    factored = count_svd_inputs(monkeypatch)
    rep = coherence.uniqueness_rank_scan(mat, k)
    monkeypatch.undo()
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, k, coherence.DEFAULT_MAX_SUBSETS)
    assert rep.all_full_rank and rep.complete
    assert (sum(factored) == rep.scanned) is all_tie


def test_a_generic_frame_factors_few_subsets(monkeypatch):
    # at k = 4 the 12x8 sub-matrices are near square: their Gram blocks outweigh half their columns
    mat = matrices.build_gaussian(12, 24, seed=2)
    for k, budget in [(2, coherence.DEFAULT_MAX_SUBSETS), (4, 20_000)]:
        factored = count_svd_inputs(monkeypatch)
        rep = coherence.uniqueness_rank_scan(mat, k, max_subsets=budget)
        monkeypatch.undo()
        assert rep.scanned == min(math.comb(24, 2 * k), budget) and sum(factored) <= rep.scanned // 100
        assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, k, budget)


@pytest.mark.parametrize("n, p", [(16, 2), (24, 3), (32, 4)])
def test_subsampling_frames_with_many_deficient_subsets(n, p):
    mat = matrices.from_spec("subsampling", n=n, p=p)
    for k in range(1, mat.m // 2 + 1):
        rep = coherence.uniqueness_rank_scan(mat, k, max_subsets=3000)
        assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, k, 3000)
        assert rep.all_full_rank is False
    y = mat.data[:, 1] + 2.0 * mat.data[:, 3]
    assert_l0_matches_fit_alone(mat, y, 2, 1e-8)


def test_an_all_deficient_frame_factors_every_subset(monkeypatch):
    # 10 rows but every column in a 3-dimensional subspace: no 4 columns have full rank
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3)))[0]
    data = basis @ (rng.standard_normal((3, 14)) + 1j * rng.standard_normal((3, 14)))
    mat = matrices.MeasurementMatrix(data / np.linalg.norm(data, axis=0), "custom")
    factored = count_svd_inputs(monkeypatch)
    rep = coherence.uniqueness_rank_scan(mat, 2)
    monkeypatch.undo()
    assert sum(factored) == rep.scanned == math.comb(14, 4)
    assert (rep.witness, rep.min_cond, rep.max_cond) == ((0, 1, 2, 3), math.inf, math.inf)
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, 2, coherence.DEFAULT_MAX_SUBSETS)


def test_a_near_duplicate_witness_past_the_first_chunk():
    mat = near_duplicate_matrix(8, 10, 40, [(30, 36)], 1e-15)
    per_chunk = coherence.SCAN_CHUNK_BYTES // (4 * mat.m * mat.data.itemsize)
    first = next(s for s in itertools.combinations(range(40), 4) if {30, 36} <= set(s))
    assert list(itertools.combinations(range(40), 4)).index(first) >= per_chunk
    rep = coherence.uniqueness_rank_scan(mat, 2)
    assert rep.witness == first and rep.all_full_rank is False
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, 2, coherence.DEFAULT_MAX_SUBSETS)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 12), st.data())
def test_screened_scans_match_the_loops(seed, m, data):
    # near-duplicates at any distance, budgets and chunks of any size, supports up to square and past it
    n = data.draw(st.integers(m, 15))
    distance = data.draw(st.sampled_from([0.0, 1e-13, 1e-9, 1e-6, 1e-3, 0.1]))
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    mat = near_duplicate_matrix(seed, m, n, [(i, j)], distance)
    k = data.draw(st.integers(1, m // 2))
    budget = data.draw(st.integers(0, math.comb(n, 2 * k) + 1))
    chunk = data.draw(st.integers(1, 30)) * 2 * k * m * 16
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", chunk):
        rep = coherence.uniqueness_rank_scan(mat, k, max_subsets=budget)
    assert (rep.witness, rep.scanned, rep.min_cond, rep.max_cond) == uniqueness_by_loop(mat, k, budget)
    k_max = data.draw(st.integers(1, min(4, m)))  # supports up to square
    support = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=k_max, unique=True))))
    y = recovery.measure(mat, recovery.SparseSignal(n, support, np.exp(1j * np.arange(1.0, len(support) + 1))))
    epsilon = data.draw(st.sampled_from([1e-12, 1e-8, 1e-3, 0.5]))
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", data.draw(st.integers(1, 30)) * k_max * m * 16):
        assert_l0_matches_fit_alone(mat, y, k_max, epsilon, max_subsets=budget)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
def test_singular_values_lie_within_the_block_allowances(seed, m, data):
    # the claims _needs_svd rests on: the SVD's extreme singular values lie within d of
    # the square roots of the Gram block's eigenvalue intervals
    n = data.draw(st.integers(m, 14))
    s = data.draw(st.integers(1, m))
    distance = data.draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 0.5]))
    mat = near_duplicate_matrix(seed, m, n, [(0, n - 1)], distance)
    idx = np.array(list(itertools.islice(itertools.combinations(range(n), s), 200)))
    rows = mat.data.T[idx]
    w, e = coherence.block_spectra(numerics.gram_blocks(rows), m)
    d = coherence.singular_value_allowance(m, s)
    sv = np.linalg.svd(rows.transpose(0, 2, 1), compute_uv=False)
    for lam, sigma in ((w[:, 0], sv[:, -1]), (w[:, -1], sv[:, 0])):
        assert np.all(sigma >= np.sqrt(np.maximum(lam - e, 0.0)) - d)
        assert np.all(sigma <= np.sqrt(np.maximum(lam + e, 0.0)) + d)


@st.composite
def screen_frames(draw):
    """A Gaussian, partial DFT, near-duplicate or rank-deficient frame of at most 12 rows."""
    kind = draw(st.sampled_from(["gaussian", "partial-dft", "near-duplicate", "rank-deficient"]))
    seed, m = draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 12))
    n = draw(st.integers(m, 16))
    if kind == "gaussian":
        return random_matrix(seed, m, n)
    if kind == "partial-dft":
        return matrices.build_partial_dft(n, sorted(draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))))
    if kind == "near-duplicate":
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        return near_duplicate_matrix(seed, m, n, [(i, j)], draw(st.sampled_from([0.0, 1e-12, 1e-7, 1e-3, 0.1])))
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0][:, : draw(st.integers(1, m - 1))]
    data = basis @ (rng.standard_normal((basis.shape[1], n)) + 1j * rng.standard_normal((basis.shape[1], n)))
    return matrices.MeasurementMatrix(data / np.linalg.norm(data, axis=0), "custom")


@settings(max_examples=100, deadline=None)
@given(screen_frames(), st.data())
def test_the_oracle_screen_clears_only_supports_the_fit_rejects(mat, data):
    # y lies near the span of a drawn support, at a drawn distance, and the supports that hold it are screened too,
    # so some supports fit within epsilon and some only just miss; every support _fits_out clears must fail
    # _fit's residual test on its own
    n, m = mat.n, mat.m
    size = data.draw(st.integers(1, min(m, 5)))
    near = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=size))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    y = mat.data[:, sorted(near)] @ (rng.standard_normal(len(near)) + 1j * rng.standard_normal(len(near)))
    noise = data.draw(st.one_of(st.just(0.0), st.sampled_from([1e-9, 1e-3, 0.1, 0.3, 1.0])))
    y += noise * np.linalg.norm(y) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    epsilon = data.draw(st.one_of(st.sampled_from([1e-12, 1e-8, 1e-3, 0.3]), st.floats(1e-12, 0.3)))
    supports = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=size, max_size=size), min_size=1, max_size=40))
    holding = [near | set(rng.permutation(sorted(set(range(n)) - near))[: size - len(near)].tolist()) for _ in range(5)]
    idx = np.array(sorted(set(tuple(sorted(support)) for support in supports + holding)))
    y_norm = float(np.linalg.norm(y))
    v = y / y_norm
    b = recovery._correlate(mat, v[None])[0]
    rows = mat.data.T[idx]
    cleared = recovery._fits_out(rows, (b.real**2 + b.imag**2)[idx].sum(axis=1), float(np.vdot(v, v).real), m, epsilon)
    for support in idx[cleared].tolist():
        full, _, residual = recovery._fit(mat.data[:, support][None], y)
        assert not full[0] or residual[0] > epsilon * y_norm, support
    g = numerics.gram_blocks(rows)
    w, e = coherence.block_spectra(g, m)
    assert np.all(coherence.gershgorin_floor(g, m) <= w[:, 0] + e)


def test_the_oracle_on_the_scan_workloads_frame_needs_no_eigensolver(etf30):
    # the 15x30 ETF with a 3-sparse y drawn as the benchmark's scan workload draws it (seed 0): the Gershgorin and
    # Schur bounds clear all but a few hundred of the 4525 supports, and no block goes to an eigensolver
    rng = np.random.default_rng(0)
    support = matrices.draw_without_replacement(rng, etf30.n, 3)
    mags = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=3))
    y = recovery.measure(etf30, recovery.SparseSignal(etf30.n, support, mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=3))))
    with mock.patch.object(recovery, "_fit", wraps=recovery._fit) as fit, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        rep = recovery.exhaustive_l0_search(etf30, y, 3)
    assert eigvalsh.call_count == 0
    assert sum(len(call.args[0]) for call in fit.call_args_list) <= 600 and rep.scanned == rep.total == 4525
    assert [s.support for s in rep.solutions] == [support]
    assert_l0_matches_fit_alone(etf30, y, 3, recovery.DEFAULT_RELATIVE_EPSILON)


def test_gram_blocks_are_the_gram_of_each_subset(etf30):
    idx = np.array(list(itertools.combinations(range(8), 3)))
    blocks = numerics.gram_blocks(etf30.data.T[idx])
    for block, subset in zip(blocks, idx.tolist()):
        assert np.max(np.abs(block - numerics.gram(etf30.data[:, subset]))) <= 1e-14


def test_l0_memory_is_bounded_by_the_chunk(etf30):
    # the Gaussians' supports are near square: their Gram blocks and the fit's factors outweigh their columns
    cases = [
        (etf30, (2, 5, 19)),
        (matrices.build_gaussian(4, 300, seed=2), (7, 150)),
        (matrices.build_gaussian(2, 4096, seed=1), (1000,)),
    ]
    for mat, support in cases:
        y = recovery.measure(mat, recovery.SparseSignal(mat.n, support, np.exp(1j * np.arange(1.0, len(support) + 1))))
        recovery.exhaustive_l0_search(mat, y, len(support))
        rep, peak = traced_peak(recovery.exhaustive_l0_search, mat, y, len(support), 1e-10)
        assert [s.support for s in rep.solutions] == [support] and rep.complete
        assert peak <= 2 * coherence.SCAN_CHUNK_BYTES


def test_rip_memory_is_bounded_by_the_chunk():
    # beyond its n x n Gram, the isometry scan holds a chunk's Gram blocks, in half a chunk, and eigvalsh's work on them
    for mat, k in [(matrices.build_gaussian(12, 60, seed=0), 4), (matrices.build_gaussian(8, 200, seed=0), 2)]:
        coherence.rip_constant(mat, k)
        rep, peak = traced_peak(coherence.rip_constant, mat, k)
        assert rep.subsets_scanned == min(math.comb(mat.n, k), coherence.DEFAULT_MAX_SUBSETS)
        assert peak - 16 * mat.n**2 <= 2 * coherence.SCAN_CHUNK_BYTES


@pytest.mark.parametrize("budget", [0, 50, 105, 10**5])
def test_a_zero_norm_y_gets_only_the_empty_support_and_no_fit(etf14, budget, tmp_path, capsys):
    # y = 0, and a y whose squared norm underflows: the pursuit stops at the empty support, and the oracle, fitting
    # nothing, finds only that one; a fit on the underflowing y would call almost every support an exact solution
    mat_path = tmp_path / "etf14.json"
    matrices.save_matrix(etf14, mat_path)
    for y in (np.zeros(7), 1e-170 * etf14.data[:, 1]):
        assert np.linalg.norm(y) == 0.0
        with mock.patch.object(recovery, "_fit", wraps=recovery._fit) as fit:
            rep = recovery.exhaustive_l0_search(etf14, y, 2, max_subsets=budget)
        assert fit.call_count == 0
        assert [s.support for s in rep.solutions] == [()]
        assert (rep.scanned, rep.total, rep.complete) == (min(105, budget), 105, budget >= 105)
        recovery.save_measurement(y, tmp_path / "y.json")
        argv = ["recover", "--matrix", str(mat_path), "--measurements", str(tmp_path / "y.json"), "--oracle"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recovery"]["support"] == [] and [s["support"] for s in payload["oracle"]["solutions"]] == [[]]


def test_scan_memory_on_a_two_row_frame_is_bounded_by_the_chunk():
    # 4096 pairs of 2x2 sub-matrices fill a chunk; the enumeration holds no Python int per column
    mat = matrices.build_gaussian(2, 4096, seed=1)
    rep, peak = traced_peak(coherence.uniqueness_rank_scan, mat, 1)
    assert rep.scanned == coherence.DEFAULT_MAX_SUBSETS and not rep.complete
    assert peak <= 2 * coherence.SCAN_CHUNK_BYTES


@pytest.mark.parametrize("n", range(0, 9))
def test_the_enumeration_is_itertools_order_at_any_block_size(n):
    for size in range(1, n + 2):
        want = list(itertools.combinations(range(n), size))
        for count in (1, 2, 3, 5, 64):
            subsets, got = coherence._Lex(n, size), []
            while len(block := subsets.take(count)):
                assert len(block) == count or len(got) + len(block) == len(want)
                got += map(tuple, block.tolist())
            assert got == want


# ------------------------------------------- translation orbits of the uniqueness scan


def lexicographic_scan(mat, k, max_subsets):
    """The uniqueness scan on its lexicographic route, whatever the matrix's family."""
    with mock.patch.object(coherence, "translation_group", return_value=None):
        return coherence.uniqueness_rank_scan(mat, k, max_subsets)


def assert_orbit_route_matches(mat, k):
    """At a complete budget the scan takes the orbit route, and its report is the loop's and the lexicographic route's, field for field."""
    total = math.comb(mat.n, 2 * k)
    with mock.patch.object(coherence, "_orbit_chunks", wraps=coherence._orbit_chunks) as orbits:
        rep = coherence.uniqueness_rank_scan(mat, k, total)
    assert orbits.call_count == 1
    witness, scanned, min_cond, max_cond = uniqueness_by_loop(mat, k, total)
    full_rank = witness is None
    assert rep == coherence.UniquenessReport(k, total, scanned, full_rank, witness, min_cond, max_cond, True)
    assert to_dict(rep) == to_dict(lexicographic_scan(mat, k, total))
    return rep


def edited(mat, row, col, by):
    """mat with entry (row, col) moved by `by` and its columns normalized again; family and meta kept."""
    data = np.array(mat.data)
    data[row, col] += by
    return matrices.MeasurementMatrix(data / np.linalg.norm(data, axis=0), mat.family, mat.meta)


def translations(mat):
    """Every translation of mat's group as a column permutation (translation_group)."""
    o, q = coherence.translation_group(mat)
    return [np.r_[np.arange(o), o + (np.arange(q) + b) % q] for b in range(q)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 24), st.data())
def test_orbit_route_matches_the_loop_on_partial_dfts(n, data):
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True).map(sorted))
    mat = matrices.build_partial_dft(n, rows)
    k = data.draw(st.sampled_from([k for k in range(1, mat.m // 2 + 1) if math.comb(n, 2 * k) <= 5000]))
    chunk = data.draw(st.one_of(st.just(coherence.SCAN_CHUNK_BYTES), st.integers(1, 30).map(lambda c: c * 2 * k * mat.m * 16)))
    with mock.patch.object(coherence, "SCAN_CHUNK_BYTES", chunk):
        assert_orbit_route_matches(mat, k)


@pytest.mark.parametrize("m, n, ks", [(3, 7, (1,)), (4, 7, (1, 2)), (5, 11, (1, 2)), (7, 14, (1, 2, 3)), (15, 30, (1, 2))])
def test_orbit_route_matches_the_loop_on_etfs(m, n, ks):
    mat = matrices.build_etf(m, n)  # harmonic below n = 14, Paley from it on
    for k in ks:
        assert assert_orbit_route_matches(mat, k).all_full_rank


@pytest.mark.parametrize("n, p, ks", [(16, 2, (1, 2, 3, 4)), (24, 3, (1, 2)), (32, 4, (1, 2))])
def test_orbit_route_finds_the_lex_least_deficient_member(n, p, ks):
    # subsampling frames repeat with period n/p, so deficient subsets lie in many orbits, and an orbit may be
    # smaller than n; the witness is the least deficient member of any of them, not a representative's
    mat = matrices.from_spec("subsampling", n=n, p=p)
    for k in ks:
        rep = assert_orbit_route_matches(mat, k)
        assert rep.all_full_rank is False and rep.witness[0] == 0


def test_the_paley_scan_factors_only_its_two_tie_classes(etf30, monkeypatch):
    # 945 orbits of 29 subsets stand for all 27,405; the 210 orbits of the two extreme tie classes are factored
    factored = count_svd_inputs(monkeypatch)
    rep = coherence.uniqueness_rank_scan(etf30, 2)
    monkeypatch.undo()
    assert sum(factored) == 6090 == 210 * 29
    assert (rep.scanned, rep.complete, rep.all_full_rank) == (27405, True, True)


def test_orbit_memory_is_bounded_by_the_chunk():
    mat = matrices.from_spec("partial-dft", n=40, m=12, seed=0)
    coherence.uniqueness_rank_scan(mat, 2)
    with mock.patch.object(coherence, "_orbit_chunks", wraps=coherence._orbit_chunks) as orbits:
        rep, peak = traced_peak(coherence.uniqueness_rank_scan, mat, 2)
    assert orbits.call_count == 1 and rep.complete and rep.all_full_rank
    assert peak <= 2 * coherence.SCAN_CHUNK_BYTES


@pytest.mark.parametrize("make, nudged", [
    (lambda: matrices.build_etf(3, 7), False),
    (lambda: matrices.build_etf(5, 11), False),
    (lambda: matrices.build_etf(7, 14), False),
    (lambda: matrices.build_etf(15, 30), False),
    (lambda: matrices.from_spec("subsampling", n=16, p=2), False),
    (lambda: matrices.from_spec("partial-dft", n=24, m=9, seed=3), False),
    (lambda: edited(matrices.from_spec("partial-dft", n=24, m=9, seed=3), 4, 17, 1e-9), True),
    (lambda: edited(matrices.build_etf(7, 14), 2, 5, 1e-9j), True),
])
def test_the_translation_gap_bounds_every_translation(make, nudged):
    # brute force over the whole Gram that translation_gap reads in strips: their upper triangle, mirrored
    mat = make()
    o, q = coherence.translation_group(mat)
    eta = coherence.translation_gap(mat, o, q)
    g = np.zeros((mat.n, mat.n), dtype=complex)
    numerics.gram_strips(mat.data, lambda strip: None, out=g)
    g = np.triu(g) + np.triu(g, 1).conj().T
    worst = max(float(np.abs(g[np.ix_(t, t)] - g).max()) for t in translations(mat))
    # each entry against its translate that takes its row to column o (or, from the fixed column, its column to o)
    to_ref = np.zeros(g.shape)
    for x in range(mat.n):
        for y in range(mat.n):
            if x >= o:
                to_ref[x, y] = abs(g[x, y] - g[o, o + (y - x) % q if y >= o else y])
            elif y >= o:
                to_ref[x, y] = abs(g[x, y] - g[x, o])
    assert eta >= to_ref.max() and 2.0 * eta >= worst
    assert eta > 1e-10 if nudged else eta < 1e-13


@pytest.mark.parametrize("by", [1e-9, 1e-5, 1e-1])
def test_an_edited_partial_dft_still_matches_the_loop(by):
    # the file keeps its partial-dft meta, but one entry moved: the group is only nearly there. A scan that
    # cleared each orbit on its representative's block alone, with no allowance, misses the loop's report here
    mat = edited(matrices.from_spec("partial-dft", n=24, m=8, seed=4), 3, 11, by)
    assert mat.family == "partial-dft" and coherence.translation_gap(mat, 0, 24) > by / 10
    for k in (1, 2):
        assert_orbit_route_matches(mat, k)


def test_the_budget_picks_the_route_at_the_cli(tmp_path, capsys):
    # a budget of every subset takes the orbit route; one less keeps the lexicographic route, its exit 4 and its report
    path = tmp_path / "dft.json"
    matrices.save_matrix(matrices.from_spec("partial-dft", n=24, m=8, seed=1), path)
    total = math.comb(24, 4)

    def scan(budget, group=coherence.translation_group):
        """(exit code, stdout, stderr, orbit routes taken) of coherence --uniqueness-k 2 at budget."""
        argv = ["coherence", "--matrix", str(path), "--uniqueness-k", "2", "--max-subsets", str(budget)]
        with mock.patch.object(coherence, "_orbit_chunks", wraps=coherence._orbit_chunks) as orbits, \
                mock.patch.object(coherence, "translation_group", group):
            code = cli.main(argv)
        return (code, *capsys.readouterr(), orbits.call_count)

    def lexicographic(a):
        return None

    assert scan(total) == scan(total, lexicographic)[:3] + (1,)
    assert scan(total - 1) == scan(total - 1, lexicographic)
    code, out, err, _ = scan(total - 1)
    assert code == 4 and f"covered only {total - 1} of {total} subsets" in err
    report = json.loads(out)["uniqueness"]
    witness, scanned, min_cond, max_cond = uniqueness_by_loop(matrices.load_matrix(path), 2, total - 1)
    assert (report["scanned"], report["complete"], report["min_cond"], report["max_cond"]) == (scanned, False, min_cond, max_cond)
