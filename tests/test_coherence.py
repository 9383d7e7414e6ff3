import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csense import coherence, matrices, numerics
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


def exact_coherence_sq(data) -> Fraction:
    """mu^2 of the stored columns once each is scaled to unit norm, in exact rationals."""
    cols = [[(Fraction(z.real), Fraction(z.imag)) for z in col] for col in np.asarray(data).T]
    norm_sq = [sum(a * a + b * b for a, b in col) for col in cols]
    worst = Fraction(0)
    for k, l in itertools.combinations(range(len(cols)), 2):
        # conj(a + ib) (c + id) = (ac + bd) + i(ad - bc)
        re = sum(a * c + b * d for (a, b), (c, d) in zip(cols[k], cols[l]))
        im = sum(a * d - b * c for (a, b), (c, d) in zip(cols[k], cols[l]))
        worst = max(worst, (re * re + im * im) / (norm_sq[k] * norm_sq[l]))
    return worst


def phased_simplex(u):
    """The unit-norm 3x4 real simplex, column j turned by the phase exp(2 pi i u_j): mu = 1/3 exactly."""
    cols = np.array([
        [1.0, 0.0, 0.0],
        [-1.0 / 3.0, math.sqrt(8.0) / 3.0, 0.0],
        [-1.0 / 3.0, -math.sqrt(2.0) / 3.0, math.sqrt(6.0) / 3.0],
        [-1.0 / 3.0, -math.sqrt(2.0) / 3.0, -math.sqrt(6.0) / 3.0],
    ]).T
    return matrices.MeasurementMatrix(cols * np.exp(2j * np.pi * np.asarray(u)), "custom")


# The 1050th draw (index 1049) of default_rng(2).random(4).
DRAW_1049 = (0.17784782117551978, 0.011429120809671622, 0.6727382419696049, 0.08155329738954253)


# ------------------------------------------------------------- welch bound


def test_welch_values():
    assert matrices.welch_bound(7, 14) == pytest.approx(MU14, abs=1e-15)
    assert matrices.welch_bound(15, 30) == pytest.approx(MU30, abs=1e-15)
    assert matrices.welch_bound(5, 5) == 0.0
    with pytest.raises(ValueError):
        matrices.welch_bound(0, 4)
    with pytest.raises(ValueError):
        matrices.welch_bound(5, 4)


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
    with pytest.raises(ValueError, match=r"coherence must be a number in \[0, 1\], got '0.3'"):
        coherence.sparsity_bound("0.3")
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match=r"coherence must be a number in \[0, 1\], got (np\.)?(True|False)"):
            coherence.sparsity_bound(flag)


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


def test_is_etf_measures_the_distance_from_welch(etf14, etf30, full_dft8):
    for mat in (etf14, etf30, full_dft8):
        assert coherence.coherence_index(mat).is_etf
    # equal off-diagonal magnitudes are not enough: these square frames have Welch bound 0
    pair = matrices.MeasurementMatrix([[1.0, 0.6], [0.0, 0.8]], "custom")
    g = np.full((3, 3), 0.5) + 0.5 * np.eye(3)
    equal_angles = matrices.MeasurementMatrix(np.linalg.cholesky(g).T, "custom")
    for mat in (pair, equal_angles):
        rep = coherence.coherence_index(mat)
        assert rep.gram_offdiag_max - rep.gram_offdiag_min <= 1e-12
        assert rep.welch == 0.0
        assert not rep.is_etf
    # column 3 of the 7x14 ETF moved by 2e-7 and renormalized: 1.7e-7 from the Welch bound,
    # further than build_etf's tolerance, so no ETF either
    data = etf14.data.copy()
    data[0, 3] += 2e-7
    rep = coherence.coherence_index(matrices.MeasurementMatrix(matrices.normalize_columns(data), "custom"))
    assert 1e-7 < matrices.welch_distance(7, 14, rep.gram_offdiag_max, rep.gram_offdiag_min) < 1e-6
    assert not rep.is_etf


def test_etf_check_and_is_etf_share_one_welch_distance(monkeypatch):
    welch_distance = matrices.welch_distance
    seen = []

    def recording(*args):
        seen.append(welch_distance(*args))
        return seen[-1]

    monkeypatch.setattr(matrices, "welch_distance", recording)
    mat = matrices.build_etf(5, 11)
    rep = coherence.coherence_index(mat)
    assert len(seen) == 2
    assert seen[0] == seen[1]
    # the same float as the largest |off - welch| over every off-diagonal magnitude
    off = np.abs(numerics.gram(mat.data)[~np.eye(mat.n, dtype=bool)])
    assert seen[0] == float(np.max(np.abs(off - rep.welch)))
    assert rep.is_etf == (seen[0] <= matrices.ETF_GRAM_TOL)


def test_coherence_report_round_trips_to_dict(etf14):
    d = to_dict(coherence.coherence_index(etf14))
    assert d["k_max"] == 2
    assert d["is_etf"] is True


def test_rounding_in_the_gram_cannot_certify_a_false_k():
    rng = np.random.default_rng(2)
    for _ in range(1049):
        rng.random(4)
    assert tuple(rng.random(4).tolist()) == DRAW_1049
    mat = phased_simplex(DRAW_1049)
    rep = coherence.coherence_index(mat)
    # the computed mu is the double below 1/3, which alone would certify K = 2
    assert rep.mu == 0.3333333333333333 and coherence.max_sparsity(rep.mu) == 2
    assert exact_coherence_sq(mat.data) > Fraction(1, 9)
    assert rep.k_max == 1  # any 4 columns in C^3 are dependent, so K = 2 cannot hold


def test_upper_bound_covers_the_rounding_allowance(etf14):
    rep = coherence.coherence_index(etf14)
    mu_hi = coherence.coherence_upper_bound(etf14.m, rep.gram_offdiag_max, 1.0)
    assert mu_hi >= rep.gram_offdiag_max + (etf14.m + 4) * 2.0**-53
    assert coherence.coherence_upper_bound(3, 0.99, 0.99) == 1.0


def _unit_columns(raw):
    """raw with every column scaled to unit norm, or None if a column is too small to scale."""
    if np.min(np.linalg.norm(raw, axis=0)) < 1e-3:
        return None
    return matrices.normalize_columns(raw)


# Wide frames (n > m): random complex ones, and 3x4 simplices at the boundary mu = 1/3, turned and scaled
# within the column-norm tolerance.
wide_frames = st.one_of(
    st.integers(1, 4).flatmap(
        lambda m: st.integers(m + 1, m + 3).flatmap(
            lambda n: st.tuples(*[hnp.arrays(np.float64, (m, n), elements=st.floats(-1.0, 1.0))] * 2)
        )
    ).map(lambda parts: _unit_columns(parts[0] + 1j * parts[1])),
    st.tuples(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4), st.floats(-9e-11, 9e-11)).map(
        lambda args: phased_simplex(args[0]).data * (1.0 + args[1])
    ),
)


def on_wide_frames(test):
    """Run test on wide_frames and on both boundary cases that once certified K = 2 on a 3x4 frame."""
    test = example(matrices.build_partial_dft(4, (1, 2, 3)).data * (1.0 - 5e-11))(test)
    test = example(phased_simplex(DRAW_1049).data)(test)
    return settings(max_examples=150, deadline=None)(given(wide_frames)(test))


@on_wide_frames
def test_a_wide_frame_never_certifies_more_than_half_its_rows(data):
    # the spark of m x n with n > m is at most m + 1, and a certified K needs a spark above 2K
    if data is None:
        return
    rep = coherence.coherence_index(matrices.MeasurementMatrix(data, "custom"))
    assert rep.k_max is not None and 2 * rep.k_max <= data.shape[0]


@on_wide_frames
def test_certified_k_holds_for_the_exact_frame(data):
    # exact oracle on the stored doubles: (2K - 1) mu_exact < 1 for the K that coherence certifies
    if data is None:
        return
    rep = coherence.coherence_index(matrices.MeasurementMatrix(data, "custom"))
    if rep.k_max:
        assert (2 * rep.k_max - 1) ** 2 * exact_coherence_sq(data) < 1


# ------------------------------------------------- gram submatrix condition


def test_gram_submatrix_condition(etf14):
    # every pair of an ETF meets at inner product mu, so all 91 pairs share
    # the condition number sqrt((1+mu)/(1-mu))
    rep = coherence.uniqueness_rank_scan(etf14, 1)
    expected = math.sqrt((1.0 + MU14) / (1.0 - MU14))
    assert rep.min_cond == pytest.approx(expected, abs=1e-10)
    assert rep.max_cond == pytest.approx(expected, abs=1e-10)


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


def test_uniqueness_scan_requires_2k_measurements(etf14):
    with pytest.raises(ValueError):
        coherence.uniqueness_rank_scan(etf14, 4)  # 2k = 8 > m = 7


def test_a_one_row_matrix_has_no_sparsity_to_scan():
    # 2k columns must fit in m = 1 row, so no k in [1, 0] exists; the error says so, not "must be in [1, 0]"
    mat = matrices.MeasurementMatrix(np.ones((1, 3)), "custom")
    with pytest.raises(ValueError, match=r"^no sparsity k fits: its range \[1, 0\] is empty, got 1$"):
        coherence.uniqueness_rank_scan(mat, 1)
    assert coherence.rip_constant(mat, 1).delta == 0.0  # one column fits in one row


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
    rep = coherence.rip_constant(etf30, 3, max_subsets=100)
    assert rep.subsets_scanned == 100


def test_rip_validates_k(etf14):
    with pytest.raises(ValueError):
        coherence.rip_constant(etf14, 0)
    with pytest.raises(ValueError):
        coherence.rip_constant(etf14, 8)
