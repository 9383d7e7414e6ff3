import itertools
import math

import numpy as np
import pytest

from csense import coherence, matrices, numerics
from csense.errors import InfeasibleScanError
from csense.serialization import to_dict

MU14 = 1.0 / math.sqrt(13.0)
MU30 = 1.0 / math.sqrt(29.0)


def rip_by_charpoly(mat, k):
    """Independent RIP oracle: eigenvalues from characteristic polynomials."""
    delta = 0.0
    for subset in itertools.combinations(range(mat.n), k):
        g = numerics.gram(mat.data[:, subset])
        roots = np.roots(np.poly(g))
        delta = max(delta, float(np.max(roots.real)) - 1.0, 1.0 - float(np.min(roots.real)))
    return delta


# ------------------------------------------------------------- welch bound


def test_welch_values():
    assert coherence.welch_bound(7, 14) == pytest.approx(MU14, abs=1e-15)
    assert coherence.welch_bound(15, 30) == pytest.approx(MU30, abs=1e-15)
    assert coherence.welch_bound(5, 5) == 0.0
    with pytest.raises(ValueError):
        coherence.welch_bound(0, 4)
    with pytest.raises(ValueError):
        coherence.welch_bound(5, 4)


def test_welch_is_a_floor_for_random_matrices():
    for seed in range(8):
        mat = matrices.build_gaussian(5, 11, seed=seed)
        rep = coherence.coherence_index(mat)
        assert rep.mu >= rep.welch - 1e-12


# ------------------------------------------------------------ max sparsity


def test_max_sparsity_shipped_frame_regimes():
    assert coherence.max_sparsity(0.2774) == 2
    assert coherence.max_sparsity(0.1857) == 3


def test_max_sparsity_boundaries():
    # mu = 1 puts the bound exactly at 1; the strict inequality leaves no K >= 1
    assert coherence.max_sparsity(1.0) == 0
    assert coherence.max_sparsity(0.0) is None
    assert coherence.max_sparsity(0.5) == 1
    assert coherence.max_sparsity(0.25) == 2
    with pytest.raises(ValueError):
        coherence.max_sparsity(-0.1)
    with pytest.raises(ValueError):
        coherence.max_sparsity(1.5)


def test_max_sparsity_monotone():
    grid = np.linspace(0.01, 1.0, 200)
    ks = [coherence.max_sparsity(float(mu)) for mu in grid]
    assert all(a >= b for a, b in zip(ks, ks[1:]))


# --------------------------------------------------------- coherence index


def test_coherence_report_etf14(etf14):
    rep = coherence.coherence_index(etf14)
    assert rep.mu == pytest.approx(0.2774, abs=1e-4)
    assert rep.bound_value == pytest.approx(2.3028, abs=1e-3)
    assert rep.k_max == 2
    assert rep.is_etf
    assert rep.gram_offdiag_max - rep.gram_offdiag_min <= 1e-9


def test_coherence_report_etf30(etf30):
    rep = coherence.coherence_index(etf30)
    assert rep.mu == pytest.approx(0.1857, abs=1e-4)
    assert rep.bound_value == pytest.approx(3.19, abs=1e-2)
    assert rep.k_max == 3


def test_coherence_report_orthonormal(full_dft8):
    rep = coherence.coherence_index(full_dft8)
    assert rep.mu == pytest.approx(0.0, abs=1e-12)
    assert rep.k_max is None
    assert rep.bound_value is None


def test_coherence_duplicate_columns(even_rows_dft8):
    rep = coherence.coherence_index(even_rows_dft8)
    assert rep.mu == pytest.approx(1.0, abs=1e-12)
    assert rep.k_max == 0


def test_coherence_report_round_trips_to_dict(etf14):
    d = to_dict(coherence.coherence_index(etf14))
    assert d["k_max"] == 2
    assert d["is_etf"] is True


# ------------------------------------------------- gram submatrix condition


def test_gram_submatrix_condition(etf14):
    expected = math.sqrt((1.0 + MU14) / (1.0 - MU14))
    assert coherence.gram_submatrix_condition(etf14, (2, 7)) == pytest.approx(expected, abs=1e-10)
    with pytest.raises(ValueError):
        coherence.gram_submatrix_condition(etf14, tuple(range(8)))


# ------------------------------------------------------ uniqueness rank scan


def test_uniqueness_scan_etf_pairs(etf14):
    rep = coherence.uniqueness_rank_scan(etf14, 1)
    assert rep.all_full_rank
    assert rep.witness is None
    assert rep.scanned == rep.total_subsets == 91
    assert rep.min_cond >= 1.0
    assert rep.max_cond < math.inf


def test_uniqueness_scan_finds_duplicate_witness(even_rows_dft8):
    rep = coherence.uniqueness_rank_scan(even_rows_dft8, 1)
    assert not rep.all_full_rank
    assert rep.witness == (0, 4)
    assert rep.scanned == 28


def test_uniqueness_scan_etf_k3_exhaustive(etf14):
    rep = coherence.uniqueness_rank_scan(etf14, 3)
    assert rep.total_subsets == 3003
    assert rep.scanned == 3003
    # computed once by this exhaustive scan: every 6-column submatrix has rank 6
    assert rep.all_full_rank


def test_uniqueness_scan_truncation_and_strict(etf14):
    rep = coherence.uniqueness_rank_scan(etf14, 2, max_subsets=10)
    assert rep.scanned == 10
    assert rep.total_subsets == 1001
    with pytest.raises(InfeasibleScanError):
        coherence.uniqueness_rank_scan(etf14, 2, max_subsets=10, strict=True)


def test_uniqueness_scan_requires_2k_measurements(etf14):
    with pytest.raises(ValueError):
        coherence.uniqueness_rank_scan(etf14, 4)  # 2k = 8 > m = 7


def test_certified_sparsity_implies_full_rank_scans(etf14, etf30, fig3_dft):
    # whenever k <= k_max the 2k-column scan must pass; exhaustive at desk scale
    cases = [(etf14, (1, 2)), (etf30, (1, 2)), (fig3_dft, (1, 2, 3))]
    for mat, ks in cases:
        k_max = coherence.coherence_index(mat).k_max
        for k in ks:
            assert k <= k_max
            assert coherence.uniqueness_rank_scan(mat, k).all_full_rank


# ------------------------------------------------------------ RIP constant


def test_rip_orthonormal_columns(full_dft8):
    for k in (1, 2, 3, 4):
        assert coherence.rip_constant(full_dft8, k).delta <= 1e-10


def test_rip_pairs_equal_coherence(etf14, etf30, fig3_dft):
    for mat in (etf14, etf30, fig3_dft):
        rep = coherence.coherence_index(mat)
        assert coherence.rip_constant(mat, 2).delta == pytest.approx(rep.mu, abs=1e-10)


def test_rip_etf_triples_match_charpoly_oracle(etf14):
    got = coherence.rip_constant(etf14, 3)
    assert got.subsets_scanned == 364
    assert got.delta == pytest.approx(rip_by_charpoly(etf14, 3), abs=1e-9)
    # sign structure of the equiangular Gram forces exactly 2*mu at k=3
    assert got.delta == pytest.approx(2.0 * MU14, abs=1e-12)


def test_rip_budget_guard(etf30):
    with pytest.raises(InfeasibleScanError):
        coherence.rip_constant(etf30, 3, max_subsets=100, strict=True)
    rep = coherence.rip_constant(etf30, 3, max_subsets=100)
    assert rep.subsets_scanned == 100


def test_rip_validates_k(etf14):
    with pytest.raises(ValueError):
        coherence.rip_constant(etf14, 0)
    with pytest.raises(ValueError):
        coherence.rip_constant(etf14, 8)
