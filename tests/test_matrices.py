import base64
import io
import json
import math
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csense import coherence, matrices, numerics, recovery
from csense.experiments import ExperimentConfig
from csense.serialization import base64_to_complex, complex_to_base64, complex_to_pairs, pairs_to_complex, to_dict
from csense.errors import UnsupportedSizeError, ZeroColumnError

MU14 = 1.0 / math.sqrt(13.0)
MU30 = 1.0 / math.sqrt(29.0)
EPS = np.finfo(np.float64).eps


def coherence_by_loops(data):
    data = np.asarray(data)
    n = data.shape[1]
    worst = 0.0
    for k in range(n):
        for l in range(n):
            if k != l:
                worst = max(worst, abs(np.vdot(data[:, k], data[:, l])))
    return worst


# ------------------------------------------------------------ row index sets


def test_row_index_set_validation():
    matrices.build_partial_dft(8, (0, 2, 4, 6))
    with pytest.raises(ValueError):
        matrices.build_partial_dft(8, (0, 2, 2, 6))
    with pytest.raises(ValueError):
        matrices.build_partial_dft(8, (0, 8))
    with pytest.raises(ValueError):
        matrices.build_partial_dft(8, (2, 0))


def test_sample_rows_exhaustive_draw():
    assert matrices.sample_rows(4, 4, seed=99) == (0, 1, 2, 3)


def test_sample_rows_deterministic():
    a = matrices.sample_rows(16, 12, seed=1)
    b = matrices.sample_rows(16, 12, seed=1)
    assert a == b
    assert len(a) == 12


def test_sample_rows_rejects_oversized_draw():
    with pytest.raises(ValueError):
        matrices.sample_rows(16, 17, seed=0)


def test_subsampling_rows():
    assert matrices.build_subsampling_rows(8, 1) == tuple(range(8))
    assert matrices.build_subsampling_rows(8, 2) == (0, 2, 4, 6)
    with pytest.raises(ValueError):
        matrices.build_subsampling_rows(8, 3)


# ------------------------------------------------------------- input checks

FRACTIONAL_OR_NON_FINITE_CALLS = {
    "from_spec": lambda a: matrices.from_spec("etf", m=7.9, n=14.2),
    "build_partial_dft": lambda a: matrices.build_partial_dft(8, (0.5, 2.7)),
    "SparseSignal": lambda a: recovery.SparseSignal(14, (2.2, 7), np.ones(2)),
    "uniqueness_rank_scan": lambda a: coherence.uniqueness_rank_scan(a, 1.9),
    "worst_case_margin": lambda a: recovery.worst_case_margin(0.3, 2.5),
    "matching_pursuit": lambda a: recovery.matching_pursuit(a, a.data[:, 2], epsilon=math.nan),
    "exhaustive_l0_search": lambda a: recovery.exhaustive_l0_search(a, a.data[:, 2], 2, math.nan),
    "matching_pursuit_inf": lambda a: recovery.matching_pursuit(a, a.data[:, 2], epsilon=math.inf),
    "exhaustive_l0_search_inf": lambda a: recovery.exhaustive_l0_search(a, a.data[:, 2], 2, math.inf),
    "a_max_inf": lambda a: ExperimentConfig({"family": "etf", "m": 7, "n": 14}, (1, 2), 3, a_max=math.inf),
    "epsilon_string": lambda a: ExperimentConfig({"family": "etf", "m": 7, "n": 14}, (1, 2), 3, epsilon="1e-3"),
    "trials_true": lambda a: ExperimentConfig({"family": "etf", "m": 7, "n": 14}, (1, True), True),
    "epsilon_true": lambda a: ExperimentConfig({"family": "etf", "m": 7, "n": 14}, (1, 2), 3, epsilon=True),
    "rows_bool": lambda a: matrices.check_indices((False, True, 3), 5, "row"),
    "rows_numpy_bool": lambda a: matrices.build_partial_dft(8, np.array([False, True])),
    "measurement_m_true": lambda a: recovery.measurement_from_dict({"m": True, "data": [[1.0, 0.0]]}),
    "uniqueness_k_numpy_true": lambda a: coherence.uniqueness_rank_scan(a, np.True_),
}


@pytest.mark.parametrize("call", FRACTIONAL_OR_NON_FINITE_CALLS.values(), ids=FRACTIONAL_OR_NON_FINITE_CALLS.keys())
def test_fractional_or_non_finite_argument_is_a_value_error(etf14, call):
    with pytest.raises(ValueError, match="whole number|positive, finite"):
        call(etf14)


def test_whole_floats_are_accepted(etf14):
    assert np.array_equal(matrices.from_spec("etf", m=7.0, n=14.0).data, etf14.data)
    assert matrices.build_partial_dft(8.0, (0.0, 2.0)).meta["rows"] == [0, 2]
    support = recovery.SparseSignal(14.0, (2.0, 7.0), np.ones(2)).support
    assert support == (2, 7) and all(type(i) is int for i in support)
    assert coherence.uniqueness_rank_scan(etf14, 1.0).k == 1
    assert recovery.worst_case_margin(0.3, np.int64(2)).k == 2
    sub = matrices.from_spec("subsampling", n=16, p=4.0)
    assert sub.meta == {"p": 4, "rows": [0, 4, 8, 12]} and type(sub.meta["p"]) is int


@given(st.one_of(st.integers(), st.floats()))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(7.0)
@example(2.5)
def test_check_int_takes_ints_and_whole_floats_only(x):
    low = -(10**400)  # below every float, so only wholeness decides
    if isinstance(x, int) or (math.isfinite(x) and x.is_integer()):
        got = matrices.check_int(x, "x", low)
        assert got == int(x) and type(got) is int
    else:
        with pytest.raises(ValueError, match="x must be a whole number"):
            matrices.check_int(x, "x", low)


# -------------------------------------------------------------- partial DFT


def test_full_dft_gram_is_identity():
    for n in (1, 4, 8, 60, 64, 256, 512):
        mat = matrices.build_partial_dft(n, range(n))
        g = numerics.gram(mat.data)
        assert np.max(np.abs(g - np.eye(n))) <= n * EPS
    mat = matrices.build_partial_dft(4, (0, 1, 2, 3))
    assert np.max(np.abs(np.abs(mat.data) - 0.5)) < 1e-15


@st.composite
def fourier_specs(draw):
    """Spec of a partial DFT (any rows) or of a subsampling matrix, n <= 512."""
    n = draw(st.integers(1, 512))
    if draw(st.booleans()):
        return {"family": "subsampling", "n": n, "p": draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))}
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    return {"family": "partial-dft", "n": n, "rows": sorted(rows)}


@given(fourier_specs())
def test_fourier_mu_matches_the_fft_oracle(spec):
    # Gram entry (k, l) of rows R is the sum over r in R of w^(r (l - k)) / m: the
    # DFT of R's indicator at l - k, over m. An extended-precision FFT is exact
    # enough to judge the matrix; every Gram entry sums m products of magnitude
    # 1/m, so a few eps of absolute error is rounding (float phases reach 380 eps)
    mat = matrices.from_spec(**spec)
    indicator = np.zeros(mat.n, dtype=np.longdouble)
    indicator[mat.meta["rows"]] = 1.0
    oracle = float(np.max(np.abs(np.fft.fft(indicator)[1:]), initial=0.0) / mat.m)
    mu = coherence.coherence_index(mat).mu
    assert abs(mu - (oracle if oracle > mat.n * EPS else 0.0)) <= 8 * EPS


@pytest.mark.parametrize("n, p", [(8, 2), (64, 4), (1024, 8), (4096, 8), (12, 3)])
def test_aliased_subsampling_columns_are_bit_identical(n, p):
    # rows r = p i give phase indices r (l + n/p) = r l + i n, equal to r l mod n
    mat = matrices.from_spec("subsampling", n=n, p=p)
    assert np.array_equal(mat.data[:, : n - mat.m], mat.data[:, mat.m :])


def test_even_rows_duplicate_columns(even_rows_dft8):
    # exp(2j*pi*r*4/8) = 1 for every even row index r, so columns 0 and 4 agree
    assert np.max(np.abs(even_rows_dft8.data[:, 0] - even_rows_dft8.data[:, 4])) < 1e-15


def test_partial_dft_row_set_mismatch():
    with pytest.raises(ValueError):
        matrices.build_partial_dft(8, (0, 1, 9))  # rows of a 16-point set


def test_partial_dft_gram_circulant(fig3_dft):
    g = numerics.gram(fig3_dft.data)
    n = fig3_dft.n
    for k in range(n):
        for l in range(n):
            assert abs(g[k, l] - g[0, (l - k) % n]) < 1e-12


def test_shipped_fig3_subset_beats_one_third(fig3_dft):
    mu = coherence_by_loops(fig3_dft.data)
    assert mu < 1.0 / 3.0
    from csense.coherence import coherence_index

    assert coherence_index(fig3_dft).mu == pytest.approx(mu, abs=1e-12)


# ---------------------------------------------------------------------- ETF


def test_paley_conference_self_check():
    for order in (6, 14, 30):
        c = matrices.paley_conference(order)
        assert np.max(np.abs(np.diag(c))) == 0.0
        assert np.max(np.abs(c.T @ c - (order - 1) * np.eye(order))) < 1e-10


def test_paley_conference_unsupported_orders():
    with pytest.raises(UnsupportedSizeError):
        matrices.paley_conference(16)  # 16 = 0 (mod 4)
    with pytest.raises(UnsupportedSizeError):
        matrices.paley_conference(22)  # 21 is composite
    with pytest.raises(UnsupportedSizeError):
        matrices.paley_conference(2)  # 1 is no prime


def test_etf_7x14(etf14):
    assert etf14.meta["route"] == "paley-conference"
    g = numerics.gram(etf14.data)
    off = np.abs(g[~np.eye(14, dtype=bool)])
    assert np.max(off) == pytest.approx(MU14, abs=1e-9)
    assert np.max(off) - np.min(off) <= 1e-9


def test_etf_15x30(etf30):
    assert etf30.meta["route"] == "paley-conference"
    g = numerics.gram(etf30.data)
    off = np.abs(g[~np.eye(30, dtype=bool)])
    assert np.max(off) == pytest.approx(MU30, abs=1e-9)
    assert np.max(off) - np.min(off) <= 1e-9


def test_etf_degenerate_1x1():
    mat = matrices.build_etf(1, 1)
    assert mat.data.shape == (1, 1)
    assert mat.data[0, 0] == 1.0 + 0.0j


def test_etf_fallback_small_frame():
    # three unit vectors in the plane at mutual 60 degrees: the simplex, rows 1 and 2 of the 3-point DFT
    mat = matrices.build_etf(2, 3)
    assert mat.meta["route"] == "harmonic"
    g = numerics.gram(mat.data)
    off = np.abs(g[~np.eye(3, dtype=bool)])
    assert np.max(np.abs(off - 0.5)) <= matrices.ETF_GRAM_TOL


def test_etf_fallback_infeasible_size():
    # more than m^2 columns cannot be equiangular in dimension m
    with pytest.raises(UnsupportedSizeError):
        matrices.build_etf(2, 5)


# the sizes each route covers, written out: primes p = 3 (mod 4) and Paley conference orders up to 40
PRIMES_3_MOD_4 = (3, 7, 11, 19, 23, 31)
PALEY_ORDERS = (6, 14, 18, 30, 38)


def etf_sizes(limit):
    """Every (m, n) with n <= limit that an orthonormal, harmonic or Paley-conference route builds."""
    sizes = {(n, n) for n in range(1, limit + 1)}
    sizes |= {(1, n) for n in range(1, limit + 1)} | {(n - 1, n) for n in range(2, limit + 1)}
    sizes |= {((p - 1) // 2, p) for p in PRIMES_3_MOD_4} | {((p + 1) // 2, p) for p in PRIMES_3_MOD_4}
    return sizes | {(n // 2, n) for n in PALEY_ORDERS}


def test_etf_builds_exactly_the_covered_sizes():
    covered = etf_sizes(40)
    for n in range(1, 41):
        for m in range(1, n + 1):
            if (m, n) not in covered:
                with pytest.raises(UnsupportedSizeError, match="orthonormal.*harmonic.*paley-conference"):
                    matrices.build_etf(m, n)
                continue
            mat = matrices.build_etf(m, n)
            assert matrices.welch_distance(m, n, *matrices.gram_offdiagonal_extremes(mat)) <= matrices.ETF_GRAM_TOL
            assert coherence.coherence_index(mat).is_etf, (m, n)


def test_harmonic_rows_are_difference_sets():
    # D is a cyclic difference set exactly when |FFT(indicator of D)| is constant off frequency 0
    for m, n in sorted(etf_sizes(40)):
        mat = matrices.build_etf(m, n)
        if mat.meta["route"] != "harmonic":
            continue
        assert mat.data.tobytes() == matrices.build_partial_dft(n, mat.meta["rows"]).data.tobytes()
        indicator = np.zeros(n)
        indicator[mat.meta["rows"]] = 1.0
        spectrum = np.abs(np.fft.fft(indicator))[1:]
        assert np.ptp(spectrum) <= 1e-12, (m, n, mat.meta["rows"])


def test_etf_rejects_bad_shape():
    with pytest.raises(ValueError):
        matrices.build_etf(5, 3)


@st.composite
def small_frames(draw):
    """Unit-column matrices up to 6x12, n = 1 included: complex Gaussian or partial DFT."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, min(n, 6)))
    if draw(st.booleans()):
        return matrices.build_partial_dft(n, sorted(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = matrices.normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    return matrices.MeasurementMatrix(m, n, data, "custom")


@given(small_frames())
def test_gram_extremes_match_a_loop_over_the_off_diagonal(mat):
    # magnitudes from numpy's array loop, which may differ from a scalar abs in the last bit
    mags = np.abs(mat.gram)
    off = [mags[i, j] for i in range(mat.n) for j in range(mat.n) if i != j]
    expected = (max(off, default=0.0), min(off, default=0.0))
    got = matrices.gram_offdiagonal_extremes(mat)
    assert [x.hex() for x in got] == [float(x).hex() for x in expected]


def test_etf_welch_equality(etf14, etf30):
    from csense.coherence import coherence_index, welch_bound

    for mat in (etf14, etf30):
        rep = coherence_index(mat)
        assert abs(rep.mu - welch_bound(mat.m, mat.n)) <= 1e-9


# --------------------------------------------------------- subsampling case


def test_subsampling_restriction_gram_identity():
    rows = matrices.build_subsampling_rows(16, 4)
    assert rows == (0, 4, 8, 12)
    mat = matrices.build_partial_dft(16, rows)
    sub = mat.data[:, :4]
    g = numerics.gram(sub)
    assert np.max(np.abs(g - np.eye(4))) < 1e-12


# ------------------------------------------------------------------ Gaussian


def test_gaussian_single_entry():
    mat = matrices.build_gaussian(1, 1, seed=3)
    assert abs(abs(mat.data[0, 0]) - 1.0) < 1e-15


def test_gaussian_deterministic():
    a = matrices.build_gaussian(4, 8, seed=7)
    b = matrices.build_gaussian(4, 8, seed=7)
    assert np.array_equal(a.data, b.data)
    c = matrices.build_gaussian(4, 8, seed=8)
    assert not np.array_equal(a.data, c.data)


def test_all_families_unit_columns(etf14, etf30, fig3_dft, even_rows_dft8):
    mats = [etf14, etf30, fig3_dft, even_rows_dft8, matrices.build_gaussian(5, 9, seed=2)]
    for mat in mats:
        norms = np.linalg.norm(mat.data, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10


# ------------------------------------------------------------- column tools


def test_normalize_columns_idempotent(etf14):
    again = matrices.normalize_columns(etf14.data)
    assert np.max(np.abs(again - etf14.data)) <= 1e-15


def test_normalize_columns_345():
    out = matrices.normalize_columns([[3.0], [4.0]])
    assert np.allclose(out[:, 0], [0.6, 0.8], atol=1e-15)


def test_normalize_columns_zero_column():
    with pytest.raises(ZeroColumnError):
        matrices.normalize_columns([[1.0, 0.0], [0.0, 0.0]])


# --------------------------------------------------------------------- JSON


def test_matrix_json_round_trip_bit_exact(tmp_path, fig3_dft):
    path = tmp_path / "mat.json"
    matrices.save_matrix(fig3_dft, path)
    loaded = matrices.load_matrix(path)
    assert loaded.m == fig3_dft.m and loaded.n == fig3_dft.n
    assert loaded.family == fig3_dft.family
    assert np.array_equal(loaded.data, fig3_dft.data)


def test_matrix_json_round_trip_keeps_signed_zeros(tmp_path):
    data = np.array([[1.0 - 0.0j, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0 + 0.0j]])
    mat = matrices.MeasurementMatrix(2, 2, data, "custom")
    path = tmp_path / "mat.json"
    matrices.save_matrix(mat, path)
    loaded = matrices.load_matrix(path).data
    assert np.array_equal(loaded.view(np.uint64), mat.data.view(np.uint64))


def test_json_files_keep_the_text_json_dump_wrote(tmp_path, fig3_dft):
    # one writer serves every file format; its text must not drift from json.dump's
    x = recovery.SparseSignal(16, (2, 9), np.array([1.0 - 0.5j, complex(-0.0, 2.0)]))
    y = recovery.measure(fig3_dft, x)
    cases = [
        (matrices.save_matrix, fig3_dft, matrices.matrix_to_dict(fig3_dft)),
        (recovery.save_signal, x, to_dict(x)),
        (recovery.save_measurement, y, recovery.measurement_to_dict(y)),
    ]
    for save, obj, as_dict in cases:
        expected = io.StringIO()
        json.dump(as_dict, expected)
        save(obj, tmp_path / "out.json")
        assert (tmp_path / "out.json").read_text(encoding="utf-8") == expected.getvalue() + "\n"


@pytest.mark.parametrize(
    "decode, d",
    [
        (matrices.matrix_from_dict, [1, 2]),
        (recovery.signal_from_dict, {"n": 4, "support": 5, "values": [[1.0, 0.0]]}),
        (recovery.measurement_from_dict, {"m": None, "data": [[1.0, 0.0]]}),
        (recovery.measurement_from_dict, "text"),
        (recovery.signal_from_dict, {"n": 1e999, "support": [0], "values": [[1.0, 0.0]]}),
        (recovery.signal_from_dict, {"n": 4, "support": [0], "values": [[True, 0.0]]}),
    ],
)
def test_json_of_the_wrong_shape_is_a_value_error(decode, d):
    with pytest.raises(ValueError, match="malformed"):
        decode(d)


def test_complex_pairs_round_trip_bit_exact(rng):
    values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    values[:4] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0), complex(2.5, -0.0)]
    pairs = complex_to_pairs(values)
    assert pairs == [[float(z.real), float(z.imag)] for z in values]  # the per-element encoder
    assert all(type(v) is float for pair in pairs for v in pair)
    back = pairs_to_complex(pairs)
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))
    assert np.array_equal(pairs_to_complex(np.asfortranarray(pairs)).view(np.uint64), values.view(np.uint64))
    assert complex_to_pairs(values.reshape(5, 8).T) == complex_to_pairs(values.reshape(5, 8).T.copy())


def test_pairs_to_complex_rejects_bad_layout():
    assert pairs_to_complex([]).shape == (0,)
    with pytest.raises(ValueError):
        pairs_to_complex([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        pairs_to_complex([1.0, 2.0])
    # JSON true and false are not numbers; a bad layout keeps its own message
    with pytest.raises(ValueError, match=r"^\[re, im\] pairs must hold numbers, not booleans$"):
        pairs_to_complex([[1.0, 0.0], [0.5, False]])
    with pytest.raises(ValueError, match=r"^expected a list of \[re, im\] pairs$"):
        pairs_to_complex([[True, False, True]])


def test_matrix_dict_shape_check(etf14):
    d = matrices.matrix_to_dict(etf14)
    d["data"] = d["data"][:-1]
    with pytest.raises(ValueError, match=r"^malformed matrix: "):
        matrices.matrix_from_dict(d)


def test_matrix_json_layout(etf14):
    d = matrices.matrix_to_dict(etf14)
    assert set(d) == {"m", "n", "family", "meta", "data"}
    assert type(d["data"]) is str
    assert base64.b64decode(d["data"], validate=True) == etf14.data.astype("<c16").tobytes()
    json.dumps(d)  # serializable as-is


def test_pair_form_of_a_matrix_loads_bit_identical(tmp_path, fig3_dft):
    d = matrices.matrix_to_dict(fig3_dft)
    from_base64 = matrices.matrix_from_dict(json.loads(json.dumps(d))).data
    d["data"] = complex_to_pairs(fig3_dft.data)
    (tmp_path / "pairs.json").write_text(json.dumps(d))
    from_pairs = matrices.load_matrix(tmp_path / "pairs.json").data
    assert np.array_equal(from_pairs.view(np.uint64), from_base64.view(np.uint64))
    assert np.array_equal(from_pairs.view(np.uint64), fig3_dft.data.view(np.uint64))


SPECIAL_DOUBLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max)


@given(
    hnp.arrays(
        np.complex128,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.complex_numbers(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL_DOUBLES),
    ),
    st.booleans(),
)
@example(np.array([[complex(-0.0, 5e-324), complex(sys.float_info.max, -0.0)]]), True)
def test_base64_codec_round_trip_bit_exact(values, transpose):
    values = values.T if transpose else values
    text = complex_to_base64(values)
    back = base64_to_complex(text)
    assert not back.flags.writeable  # a view of the decoded bytes
    expected = np.ascontiguousarray(values).reshape(-1)
    assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))
    assert text == base64.b64encode(expected.astype("<c16").tobytes()).decode("ascii")


# Imaginary parts that are exactly 0: every ETF and Gaussian entry, and every partial-DFT entry of column 0.
FILES_OF_EACH_FAMILY = (
    {"family": "etf", "m": 3, "n": 6},
    {"family": "partial-dft", "n": 8, "m": 5, "seed": 3},
    {"family": "gaussian", "m": 3, "n": 5, "seed": 7},
    {"family": "subsampling", "n": 12, "p": 3},
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FILES_OF_EACH_FAMILY),
    st.lists(st.sampled_from((-0.0, 5e-324, -5e-324, 2.2250738585072014e-308)), min_size=1, max_size=8),
    st.booleans(),
)
def test_matrix_file_round_trip_bit_exact(tmp_path_factory, spec, specials, fortran):
    mat = matrices.from_spec(**spec)
    data = mat.data.copy()
    if fortran and not data.imag.any():
        # real data keeps the memory order it is given in, so the matrix holds a transposed, column-major array
        mat = replace(mat, data=np.asfortranarray(data.real))
        assert not mat.data.flags.c_contiguous
    else:
        # signed zeros and subnormals go into zero imaginary parts, which leaves the column norms alone
        flat = data.reshape(-1)
        for i, value in zip(np.flatnonzero(flat.imag == 0.0), specials):
            flat[i] = complex(flat[i].real, value)
        mat = replace(mat, data=data)
    path = tmp_path_factory.mktemp("round_trip") / "mat.json"
    matrices.save_matrix(mat, path)
    loaded = matrices.load_matrix(path)
    assert (loaded.family, loaded.meta) == (mat.family, mat.meta)
    assert np.array_equal(loaded.data.view(np.uint64), np.ascontiguousarray(mat.data).view(np.uint64))


# ------------------------------------------------------------------ family


def test_from_spec_dispatch():
    etf = matrices.from_spec("etf", m=7, n=14)
    assert etf.family == "etf"
    sub = matrices.from_spec("subsampling", n=16, p=4)
    assert sub.family == "subsampling"
    assert sub.meta["rows"] == [0, 4, 8, 12]
    dft = matrices.from_spec("partial_dft", n=8, rows=(0, 2, 4, 6))
    assert dft.meta["rows"] == [0, 2, 4, 6]
    with pytest.raises(ValueError):
        matrices.from_spec("mystery", m=2, n=4)
    with pytest.raises(ValueError):
        matrices.from_spec("subsampling", n=16)
    seedless = matrices.from_spec("gaussian", m=7, n=14)
    assert np.array_equal(seedless.data, matrices.build_gaussian(7, 14, 0).data) and seedless.meta == {"seed": 0}


# id: (a spec with a key its family does not read, or without one it needs; the words naming that key)
UNREAD_OR_MISSING_SPEC_KEYS = {
    "dft_rows_and_m": ({"family": "partial-dft", "n": 8, "rows": [0, 2], "m": 5}, "got rows and m"),
    "dft_rows_and_seed": ({"family": "partial-dft", "n": 8, "rows": [0, 2], "seed": 1}, "got rows and seed"),
    "dft_neither": ({"family": "partial-dft", "n": 8, "seed": 1}, "needs rows or m"),
    "etf_rows_p_seed": ({"family": "etf", "m": 7, "n": 14, "rows": [1], "p": 3, "seed": 9}, "argument 'rows'"),
    "etf_seed": ({"family": "etf", "m": 7, "n": 14, "seed": 3}, "argument 'seed'"),
    "subsampling_m": ({"family": "subsampling", "n": 16, "p": 4, "m": 5}, "argument 'm'"),
    "gaussian_no_m": ({"family": "gaussian", "n": 14, "seed": 1}, "argument: 'm'"),
    "no_family": ({"m": 7, "n": 14}, "argument: 'family'"),
}


@pytest.mark.parametrize("spec, key", UNREAD_OR_MISSING_SPEC_KEYS.values(), ids=UNREAD_OR_MISSING_SPEC_KEYS.keys())
def test_from_spec_rejects_an_unread_or_missing_key(spec, key):
    with pytest.raises(ValueError, match=f"^malformed matrix spec: .*{key}"):
        matrices.from_spec(**spec)


def test_measurement_matrix_families_are_the_spec_table():
    assert set(matrices.SPEC_BUILDERS) == {"etf", "gaussian", "partial-dft", "subsampling"}
    for family in ("custom", *matrices.SPEC_BUILDERS):
        assert matrices.MeasurementMatrix(1, 1, np.ones((1, 1)), family).family == family
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        matrices.MeasurementMatrix(1, 1, np.ones((1, 1)), "bogus")
    with pytest.raises(ValueError, match=r"data has shape \(3, 2\), expected \(2, 3\)"):
        matrices.MeasurementMatrix(2, 3, np.ones((3, 2)), "custom")


def test_measurement_matrix_rejects_bad_norms():
    with pytest.raises(ValueError):
        matrices.MeasurementMatrix(2, 2, np.eye(2) * 2.0, "custom")
    with pytest.raises(ValueError):
        matrices.MeasurementMatrix(3, 2, np.eye(3)[:, :2], "custom")


# ------------------------------------------------------------- cached Gram


def test_data_is_a_frozen_private_copy():
    data = np.eye(3, dtype=complex)
    mat = matrices.MeasurementMatrix(3, 3, data, "custom")
    assert not mat.data.flags.writeable
    with pytest.raises(ValueError):
        mat.data[0, 0] = 2.0
    data[0, 0] = 5.0  # the caller's array stays writable and detached
    assert mat.data[0, 0] == 1.0


def test_gram_is_cached_read_only_and_exact(etf14):
    mat = matrices.build_etf(7, 14)
    g = mat.gram
    assert mat.gram is g
    assert not g.flags.writeable
    assert np.array_equal(g, numerics.gram(mat.data))


def test_one_gram_per_matrix_across_commands(etf14):
    mat = matrices.MeasurementMatrix(7, 14, etf14.data, "custom")
    y = recovery.measure(mat, recovery.SparseSignal(14, (2, 7), np.ones(2)))
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        coherence.coherence_index(mat)
        coherence.rip_constant(mat, 2)
        recovery.decompose_initial_estimate(mat, recovery.SparseSignal(14, (2, 7), np.ones(2)))
        recovery.matching_pursuit(mat, y)
    assert gram.call_count == 1


def test_etf_build_leaves_its_checked_gram_cached():
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        mat = matrices.build_etf(7, 14)
        coherence.coherence_index(mat)
    assert gram.call_count == 1
