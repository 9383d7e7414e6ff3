import functools
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csense import coherence, matrices, numerics
from csense.errors import NotHermitianError, RankDeficientError
from csense.matrices import MeasurementMatrix, normalize_columns

from conftest import traced_peak

MU14 = 1.0 / math.sqrt(13.0)


def gram_by_loops(a):
    """Independent O(N^2 M) inner-product oracle for the Gram matrix."""
    a = np.asarray(a, dtype=complex)
    m, n = a.shape
    g = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            acc = 0.0 + 0.0j
            for r in range(m):
                acc += np.conj(a[r, k]) * a[r, l]
            g[k, l] = acc
    return g


def eig_extremes_by_charpoly(g):
    """3x3 eigenvalue oracle: roots of the characteristic polynomial."""
    g = np.asarray(g, dtype=complex)
    tr = np.trace(g).real
    minors = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            minors += (g[i, i] * g[j, j] - g[i, j] * g[j, i]).real
    det = np.linalg.det(g).real
    roots = np.roots([1.0, -tr, minors, -det])
    vals = sorted(r.real for r in roots)
    return vals[0], vals[-1]


# ---------------------------------------------------------------- gram


def test_gram_identity():
    g = numerics.gram(np.eye(2))
    assert np.allclose(g, np.eye(2), atol=0)


def test_gram_unit_column():
    col = np.array([[1.0 / math.sqrt(2)], [1.0 / math.sqrt(2)]])
    g = numerics.gram(col)
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - 1.0) < 1e-12


def test_gram_matches_loop_oracle(etf14):
    g = numerics.gram(etf14.data)
    oracle = gram_by_loops(etf14.data)
    assert np.max(np.abs(g - oracle)) < 1e-12
    off = np.abs(g[~np.eye(14, dtype=bool)])
    assert np.max(np.abs(off - MU14)) < 1e-9


def test_gram_is_exactly_hermitian_and_psd(rng):
    for _ in range(10):
        a = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        g = numerics.gram(a)
        assert np.array_equal(g, g.conj().T)
        lo, _ = numerics.hermitian_eigen_extremes(g)
        assert lo >= -1e-10


def test_gram_unit_diagonal_for_normalized_columns(etf14, etf30, fig3_dft):
    for mat in (etf14, etf30, fig3_dft):
        g = numerics.gram(mat.data)
        assert np.max(np.abs(np.diag(g) - 1.0)) < 1e-12


def test_gram_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerics.gram([[np.nan, 0.0], [0.0, 1.0]])


def test_gram_in_place_symmetrization_is_bit_identical(rng):
    a = rng.standard_normal((32, 128)) + 1j * rng.standard_normal((32, 128))
    assert np.array_equal(one_product_gram(a).view(np.uint64), numerics.gram(a).view(np.uint64))


def test_gram_peak_memory_is_one_and_a_half_gram_sized_buffers(rng):
    a = rng.standard_normal((16, 256)) + 1j * rng.standard_normal((16, 256))
    gram_bytes = 256 * 256 * 16
    _, peak = traced_peak(numerics.gram, a)
    # the Gram, mirrored in place a row at a time, plus copies of A
    assert peak <= 1.5 * gram_bytes + 4 * a.nbytes


# ---------------------------------------------------------- Gram strips

B = numerics.GRAM_BLOCK  # strip rows held at once across a walk's workers
H = numerics.STRIP_ROWS  # rows of one strip
CAP = B // H  # the most workers a walk has


def one_product_gram(a):
    """The upper triangle of the one product A^H A, the lower its conjugate, the diagonal its real part.

    gram_strips' single strip, as gram mirrors it, for n <= STRIP_ROWS + 1. A strip's entries do
    not depend on its height, so gram gives these bits up to n = GRAM_BLOCK + 1 too.
    """
    p = a.conj().T @ a
    k, l = np.indices(p.shape)
    return np.where(k < l, p, np.where(k > l, p.conj().T, p.real))


def averaged_gram(a):
    """The one product A^H A averaged with its own conjugate transpose: every entry (p_kl + conj(p_lk)) / 2."""
    g = a.conj().T @ a
    g += g.conj().T
    g *= 0.5
    return g


@st.composite
def straddling_frames(draw):
    """Gaussian or partial-DFT frames whose n lies on both sides of the strip height, and of GRAM_BLOCK."""
    n = draw(st.sampled_from((1, 2, H - 1, H, H + 1, H + 2, 4 * H + 1, B - 1, B, B + 1, 2 * B + 3)))
    m = draw(st.integers(1, min(n, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return MeasurementMatrix(normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))), "custom")
    return matrices.build_partial_dft(n, np.sort(rng.choice(n, m, replace=False)).tolist())


def report_bits(rep):
    return [repr(value) for value in astuple(rep)]


@settings(max_examples=40, deadline=None)
@given(straddling_frames())
def test_gram_strips_give_an_exactly_hermitian_gram(mat):
    g = numerics.gram(mat.data)
    assert np.array_equal(g, g.conj().T)
    reference = one_product_gram(mat.data)
    if mat.n <= B + 1:
        assert np.array_equal(g.view(np.uint64), reference.view(np.uint64))
    else:  # the same entries from smaller products; BLAS may sum them in another order on more than one thread
        assert np.max(np.abs(g - reference)) <= 4 * mat.m * np.finfo(np.float64).eps


@settings(max_examples=40, deadline=None)
@given(straddling_frames())
def test_strip_extremes_are_those_of_the_whole_gram(mat):
    g = numerics.gram(mat.data)
    mags = np.abs(g)[~np.eye(mat.n, dtype=bool)]
    expected = (np.max(mags, initial=0.0), np.min(mags, initial=np.inf) if mat.n > 1 else 0.0, np.min(g.diagonal().real))
    assert [x.hex() for x in numerics.gram_extremes(mat.data)] == [float(x).hex() for x in expected]


@settings(max_examples=40, deadline=None)
@given(straddling_frames())
def test_coherence_lies_within_two_gamma_of_the_averaged_gram(mat):
    mags = np.abs(averaged_gram(mat.data))[~np.eye(mat.n, dtype=bool)]
    avg_max, avg_min = np.max(mags, initial=0.0), np.min(mags, initial=np.inf) if mat.n > 1 else 0.0
    avg_mu = 0.0 if avg_max <= mat.n * np.finfo(np.float64).eps else min(avg_max, 1.0)
    off_max, off_min, _ = numerics.gram_extremes(mat.data)
    u = 2.0**-53
    gamma = (mat.m + 4) * u / (1 - (mat.m + 4) * u)  # coherence_upper_bound's allowance per entry
    assert abs(off_max - avg_max) <= 2 * gamma
    assert abs(off_min - avg_min) <= 2 * gamma
    assert abs(coherence.coherence_index(mat).mu - avg_mu) <= 2 * gamma


def test_coherence_of_a_fresh_matrix_holds_no_gram(rng):
    m, n = 16, 2048
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))), "custom")
    gram_bytes, strip_bytes = n * n * 16, B * n * 16
    _, peak = traced_peak(coherence.coherence_index, mat)
    # a strip and its magnitudes, plus copies of A: about a quarter of the 64 MiB Gram at B = 256
    assert peak <= 3 * strip_bytes + 4 * mat.data.nbytes < gram_bytes / 2


def test_coherence_of_a_fresh_real_matrix_holds_no_gram(rng):
    # the screened route: a real copy of A, the real walk's strips and then the complex strips it keeps
    m, n = 16, 2048
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((m, n))), "custom")
    assert mat.is_real
    gram_bytes, strip_bytes = n * n * 16, B * n * 16
    _, peak = traced_peak(coherence.coherence_index, mat)
    assert peak <= 3 * strip_bytes + 4 * mat.data.nbytes < gram_bytes / 2


def test_strip_extremes_hold_no_strip_sized_mask_or_copy(rng):
    # beside a complex strip, only the magnitudes right of its diagonal block (half a strip):
    # the whole strip's magnitudes, a strip-sized mask and the masked copy read 2.09 strips
    m, n = 16, 2048
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))), "custom")
    coherence.coherence_index(mat)
    _, peak = traced_peak(coherence.coherence_index, mat)
    assert peak <= 1.75 * (16 * B * n)


@pytest.mark.parametrize("n", [512, 1024])
def test_coherence_on_a_tall_frame_holds_no_conjugate_of_the_whole_matrix(rng, n):
    # at m = B, A is one strip: a whole conjugate copy of it held for the walk would read about 3 strips
    m = B
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))), "custom")
    _, peak = traced_peak(coherence.coherence_index, mat)
    assert peak <= 2.25 * (16 * B * n)


def workers(count):
    """Force every walk to min(count, CAP, strips) workers, as on a machine with count usable CPUs."""
    return mock.patch.object(numerics, "_usable_cpus", return_value=count)


def test_strip_extremes_at_the_worker_cap_hold_no_strip_sized_mask_or_copy(rng):
    # the same bound with the most workers a walk has: CAP buffers of H rows are B rows, and their magnitudes half that
    m, n = 16, 2048
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))), "custom")
    with workers(CAP):
        coherence.coherence_index(mat)
        _, peak = traced_peak(coherence.coherence_index, mat)
    assert peak <= 1.75 * (16 * B * n)


@pytest.mark.parametrize("n", [512, 1024])
def test_coherence_at_the_worker_cap_holds_no_conjugate_of_the_whole_matrix(rng, n):
    # each of CAP workers conjugates only its own strip's H columns
    m = B
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))), "custom")
    with workers(CAP):
        _, peak = traced_peak(coherence.coherence_index, mat)
    assert peak <= 2.25 * (16 * B * n)


def test_usable_cpus_come_from_the_affinity_mask():
    # taskset -c 0 makes this 1, and every walk then runs on the calling thread alone
    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert numerics._usable_cpus() == expected


def reference_strips(a, reduce, out=None):
    """The walk with GRAM_BLOCK-row strips, one at a time on the calling thread, a one-row last strip joined to the one before."""
    arr = numerics.as_matrix(a)
    n = arr.shape[1]
    starts = list(range(0, n - 1, B)) or [0]
    return [
        reduce(np.matmul(arr[:, i:j].conj().T, arr[:, i:], out=None if out is None else out[i:j, i:]))
        for i, j in zip(starts, starts[1:] + [n])
    ]


@st.composite
def walked_frames(draw):
    """Real and complex Gaussian, partial-DFT and Paley ETF frames whose n lies about the strip height (h + 2 leaves a
    one-row remainder), at the worker cap (4h + 1: four strips, a one-row remainder joined to the last) and past two
    GRAM_BLOCKs."""
    family = draw(st.sampled_from(("real", "complex", "partial-dft", "paley")))
    if family == "paley":  # n = 2 (mod 4) with n - 1 prime, on both sides of H and of 4H
        n = draw(st.sampled_from((14, 30, 62, 74, 258)))
        return matrices.build_etf(n // 2, n)
    n = draw(st.sampled_from((H - 1, H, H + 1, H + 2, 4 * H + 1, 2 * B + 3)))
    m = draw(st.integers(1, min(n, 160)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "partial-dft":
        return matrices.build_partial_dft(n, np.sort(rng.choice(n, m, replace=False)).tolist())
    data = rng.standard_normal((m, n)) + (1j * rng.standard_normal((m, n)) if family == "complex" else 0)
    return MeasurementMatrix(normalize_columns(data), "custom")


def walk_outputs(mat):
    """What a walk gives: the Gram's bytes, the extremes, the coherence report and the translation gap of the
    frame's group, or of every shift of its columns."""
    return (
        numerics.gram(mat.data).tobytes(),
        [x.hex() for x in numerics.gram_extremes(mat.data)],
        report_bits(coherence.coherence_index(mat)),
        coherence.translation_gap(mat, *(coherence.translation_group(mat) or (0, mat.n))).hex(),
    )


@settings(max_examples=30, deadline=None)
@given(walked_frames())
def test_the_walk_gives_the_same_bits_on_any_number_of_workers(mat):
    with workers(1):
        alone = walk_outputs(mat)
    with workers(CAP):
        assert walk_outputs(mat) == alone
    with mock.patch.object(numerics, "gram_strips", reference_strips):
        assert walk_outputs(mat) == alone


class RecordedThread(threading.Thread):
    started = 0

    def start(self):
        RecordedThread.started += 1
        super().start()


@pytest.fixture()
def recorded_threads():
    RecordedThread.started = 0
    with mock.patch.object(threading, "Thread", RecordedThread):
        yield RecordedThread


def test_a_walk_of_one_strip_starts_no_thread(recorded_threads, etf30, fig3_dft):
    # n <= H + 1 is one strip: every frame of the montecarlo and scan workloads, n <= 65 there
    one_strip = matrices.build_partial_dft(H + 1, list(range(0, H + 1, 2)))
    with workers(CAP):
        for mat in (etf30, fig3_dft, one_strip):
            coherence.coherence_index(mat)
            numerics.gram(mat.data)
            coherence.translation_gap(mat, *coherence.translation_group(mat))
        coherence.uniqueness_rank_scan(etf30, 2)
    assert recorded_threads.started == 0


def test_a_walk_starts_one_thread_per_worker_past_the_first(recorded_threads):
    two_strips = matrices.build_partial_dft(H + 2, [0, 1, 5])
    with workers(CAP):
        coherence.coherence_index(two_strips)
    assert recorded_threads.started == 1
    with workers(CAP):
        coherence.coherence_index(matrices.build_partial_dft(4 * H + 1, [0, 1, 5]))
    assert recorded_threads.started == 1 + CAP - 1
    with workers(1):
        coherence.coherence_index(matrices.build_partial_dft(4 * H + 1, [0, 1, 5]))
    assert recorded_threads.started == CAP


def test_every_strip_is_walked_once_under_fast_thread_switching(rng):
    # more workers than this machine may have cores, switching threads every microsecond: a strip dealt
    # twice or lost would show as a wrong or missing entry
    n = 40 * H + 1
    a = rng.standard_normal((2, n)) + 0j
    expected = [(i, j - i) for i, j in numerics._strip_rows(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(CAP):
            for _ in range(20):
                assert numerics.gram_strips(a, lambda strip: (n - strip.shape[1], len(strip))) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("raiser", ["worker", "caller"])
def test_a_failed_strip_reaches_the_caller_after_every_worker_is_joined(rng, raiser):
    mat = MeasurementMatrix(normalize_columns(rng.standard_normal((8, 9 * H)) + 0j), "custom")
    boom = RuntimeError("one strip failed")
    matmul, raised = np.matmul, []

    def failing(*args, **kwargs):
        on_worker = threading.current_thread() is not threading.main_thread()
        if on_worker == (raiser == "worker") and not raised:
            raised.append(boom)
            raise boom
        time.sleep(0.01)  # the other workers keep taking strips meanwhile
        return matmul(*args, **kwargs)

    before = threading.active_count()
    with workers(CAP), mock.patch.object(np, "matmul", side_effect=failing):
        try:
            coherence.coherence_index(mat)
        except RuntimeError as exc:
            assert exc is boom
            assert threading.active_count() == before
        else:
            pytest.fail("the failed strip did not reach the caller")
    assert threading.active_count() == before


# ------------------------------------------- real frames: the screened walk


def unscreened(mat):
    """A copy of mat that coherence_index walks as it walks a complex frame: every strip, in complex arithmetic."""
    copy = MeasurementMatrix(mat.data, mat.family, mat.meta)
    copy.__dict__["is_real"] = False
    return copy


def report_hex(rep):
    return [value.hex() if isinstance(value, float) else value for value in astuple(rep)]


@functools.lru_cache(maxsize=None)
def paley(n):
    return matrices.build_etf(n // 2, n)


def plant_tie(data, rng, p, q, pair):
    """Set column p + 1 of the unit columns data to pair, normalized, and columns q and q + 1 to columns p and p + 1,
    rows permuted alike: Gram entries (p, p + 1) and (q, q + 1) have one exact value, summed in different orders."""
    data[:, p + 1] = pair / np.linalg.norm(pair)
    perm = rng.permutation(len(data))
    data[:, q], data[:, q + 1] = data[perm, p], data[perm, p + 1]


@st.composite
def real_frames(draw):
    """Real frames of two strips or more: Gaussians with near-tied extremes in different strips, frames of signed unit
    vectors (duplicate and orthogonal columns, many exact zeros) and the real Paley ETFs."""
    kind = draw(st.sampled_from(("near-ties", "unit-vectors", "paley")))
    if kind == "paley":
        return paley(draw(st.sampled_from((74, 258))))
    n = draw(st.sampled_from((H + 2, 2 * H + 1, 2 * B + 3)))
    m = draw(st.sampled_from(range(1, min(n, 160) + 1)))  # uniform: integers() would draw m = 1 a third of the time
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "unit-vectors":  # columns +-e_r, some (e_r +- e_s) / sqrt 2: Gram entries 0, 1/2, 1/sqrt 2 and 1
        data = np.zeros((m, n))
        rows = rng.permutation(m) if m == n and draw(st.booleans()) else rng.integers(0, m, n)
        data[rows, np.arange(n)] = rng.choice([-1.0, 1.0], n)
        pairs = rng.random(n) < draw(st.sampled_from((0.0, 0.3))) if m > 1 else np.zeros(n, dtype=bool)
        data[(rows[pairs] + 1) % m, np.flatnonzero(pairs)] = rng.choice([-1.0, 1.0], np.count_nonzero(pairs))
        return MeasurementMatrix(normalize_columns(data), "custom")
    # a tie planted in two strips, between the largest entries (a near-parallel pair) or the smallest (a pair
    # orthogonalized in floating point), and perhaps moved apart by a few ulps
    data = normalize_columns(rng.standard_normal((m, n)))
    rows = numerics._strip_rows(n)
    first, second = sorted(rng.choice(len(rows), 2, replace=False))
    (p, p_end), (q, q_end) = rows[first], rows[second]
    p, q = rng.integers(p, p_end - 1), rng.integers(q, q_end - 1)
    if m > 1 and draw(st.booleans()):
        plant_tie(data, rng, p, q, data[:, p + 1] - (data[:, p] @ data[:, p + 1]) * data[:, p])
    else:
        plant_tie(data, rng, p, q, data[:, p] + draw(st.sampled_from((1e-3, 0.1, 0.5))) * data[:, p + 1])
    data[:, q + 1] += draw(st.sampled_from((0.0, 1e-16, 1e-15, 1e-13))) * rng.standard_normal(m)
    return MeasurementMatrix(data, "custom")


@settings(max_examples=60, deadline=None)
@given(real_frames())
@example(paley(74))
@example(paley(258))
def test_a_screened_real_frame_reports_as_the_unscreened_walk(mat):
    # the real walk only picks the strips the complex walk computes: the extremes keep their bits, and k_max, read
    # off the real walk's smallest diagonal entry, stays the same
    assert mat.is_real and mat.n > H + 1
    assert report_hex(coherence.coherence_index(mat)) == report_hex(coherence.coherence_index(unscreened(mat)))


def strip_products(mat):
    """coherence_index(mat), and how many real and how many complex strip products it reduced."""
    with mock.patch.object(numerics, "_real_strip_extremes", wraps=numerics._real_strip_extremes) as real, \
            mock.patch.object(numerics, "_strip_extremes", wraps=numerics._strip_extremes) as walked:
        rep = coherence.coherence_index(mat)
    assert {call.args[0].dtype.kind for call in real.call_args_list} <= {"f"}
    assert {call.args[0].dtype.kind for call in walked.call_args_list} == {"c"}
    return rep, real.call_count, walked.call_count


def test_complex_and_single_strip_frames_run_no_real_product(etf14, etf30, fig3_dft, rng):
    frames = [
        etf14,
        etf30,  # real, one strip
        matrices.build_gaussian(20, H + 1, seed=3),
        fig3_dft,
        matrices.build_etf(5, 11),
        matrices.build_partial_dft(300, list(range(0, 300, 25))),
        MeasurementMatrix(normalize_columns(rng.standard_normal((9, 200)) + 1j * rng.standard_normal((9, 200))), "custom"),
    ]
    for mat in frames:
        rep, real, walked = strip_products(mat)
        assert (real, walked) == (0, len(numerics._strip_rows(mat.n)))
        assert (rep.gram_offdiag_max, rep.gram_offdiag_min) == numerics.gram_extremes(mat.data)[:2]
        assert report_hex(rep) == report_hex(coherence.coherence_index(unscreened(mat)))


def test_the_128x1024_gaussian_walks_2_of_its_16_strips_in_complex():
    mat = matrices.build_gaussian(128, 1024, seed=0)
    rep, real, walked = strip_products(mat)
    assert (real, walked) == (16, 2)
    assert report_hex(rep) == report_hex(coherence.coherence_index(unscreened(mat)))


def test_the_strip_screen_keeps_extremes_within_its_allowance():
    # strips 0 and 1, and 3 and 4, hold real extremes closer than the two walks can disagree by, 4 gamma rho^2: the
    # complex walk may put its extreme in either, so both are kept; strips 2 and 5 lie three times farther off
    m = 128
    g_num, g_den = coherence.gamma(m)
    apart = 4.0 * g_num / g_den * coherence.frobenius_sq(1)
    top, middle, bottom = 0.75, 0.5, 1e-3
    real = [
        (top, middle, 1.0),
        (top - apart, middle, 1.0),
        (top - 3.0 * apart, middle, 1.0),
        (middle, bottom, 1.0),
        (middle, bottom + apart, 1.0),
        (middle, bottom + 3.0 * apart, 1.0),
    ]
    assert coherence._strips_to_walk(real, m) == [0, 1, 3, 4]


def test_a_real_walk_summed_in_another_order_still_keeps_the_complex_extreme():
    # a near-parallel pair tied in strips 1 and 2 (seed 0), as the property plants it. The real walk here sums each
    # product in reversed row order, as another BLAS may. Its largest then lies in the other strip than the complex
    # walk's, so only the allowance keeps the strip that holds mu
    m, n = 16, 3 * H + 1
    rng = np.random.default_rng(0)
    data = normalize_columns(rng.standard_normal((m, n)))
    plant_tie(data, rng, H, 2 * H, data[:, H] + 0.1 * data[:, H + 1])
    mat = MeasurementMatrix(data, "custom")
    matmul = np.matmul

    def reversed_sums(x, y, out=None):
        return matmul(x[:, ::-1], y[::-1], out=out) if x.dtype.kind == "f" else matmul(x, y, out=out)

    with mock.patch.object(np, "matmul", side_effect=reversed_sums):
        rep = coherence.coherence_index(mat)
    assert report_hex(rep) == report_hex(coherence.coherence_index(unscreened(mat)))


# ---------------------------------------------------- solve_least_squares


def test_least_squares_single_column():
    a = np.array([[1.0], [0.0], [0.0]])
    x = numerics.solve_least_squares(a, [5.0, 0.0, 0.0])
    assert np.allclose(x, [5.0], atol=1e-14)


def test_least_squares_recovers_pair_exactly(etf14):
    sub = etf14.data[:, [2, 7]]
    y = sub @ np.ones(2, dtype=complex)
    x = numerics.solve_least_squares(sub, y)
    assert np.max(np.abs(x - 1.0)) < 1e-10


def test_least_squares_rank_deficient():
    col = np.array([1.0, 0.0, 0.0])
    a = np.column_stack([col, col])
    with pytest.raises(RankDeficientError):
        numerics.solve_least_squares(a, [1.0, 2.0, 3.0])


def test_least_squares_underdetermined_rejected():
    with pytest.raises(ValueError):
        numerics.solve_least_squares(np.ones((1, 2)), [1.0])


def test_least_squares_right_hand_side_length_checked():
    with pytest.raises(ValueError, match="right-hand side has length 2, expected 3"):
        numerics.solve_least_squares(np.ones((3, 1)), [1.0, 2.0])


def test_least_squares_residual_orthogonality(rng):
    for _ in range(20):
        a = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        x = numerics.solve_least_squares(a, y)
        resid = y - a @ x
        worst = np.max(np.abs(a.conj().T @ resid))
        assert worst <= 1e-8 * np.linalg.norm(y)


# --------------------------------------------------------- numerical_rank


def test_rank_identity():
    assert numerics.numerical_rank(np.eye(4)) == 4


def test_rank_duplicated_dft_columns(even_rows_dft8):
    cols = even_rows_dft8.data[:, [0, 4]]
    assert np.max(np.abs(cols[:, 0] - cols[:, 1])) < 1e-15
    assert numerics.numerical_rank(cols) == 1


def test_rank_all_etf_pairs(etf14):
    import itertools

    for pair in itertools.combinations(range(14), 2):
        assert numerics.numerical_rank(etf14.data[:, pair]) == 2


def test_rank_matches_gram_rank(etf14, even_rows_dft8):
    cases = [
        etf14.data,
        even_rows_dft8.data,
        even_rows_dft8.data[:, [0, 4]],
        np.eye(5),
    ]
    for a in cases:
        assert numerics.numerical_rank(a) == numerics.numerical_rank(numerics.gram(a))


def test_rank_zero_matrix():
    assert numerics.numerical_rank(np.zeros((3, 3))) == 0


# ------------------------------------------------------- condition numbers
# coherence.uniqueness_rank_scan reports them (min_cond, max_cond) for the
# sub-matrices it factors, under numerics' shared rank tolerance.


def test_condition_identity(full_dft8):
    rep = coherence.uniqueness_rank_scan(full_dft8, 2)
    assert rep.min_cond == pytest.approx(1.0)
    assert rep.max_cond == pytest.approx(1.0)


def test_condition_diagonal():
    # unit columns at inner product 3/5: the Gram eigenvalues are 8/5 and 2/5
    pair = MeasurementMatrix([[1.0, 0.6], [0.0, 0.8]], "custom")
    rep = coherence.uniqueness_rank_scan(pair, 1)
    assert rep.min_cond == pytest.approx(2.0, abs=1e-12)
    assert rep.max_cond == pytest.approx(2.0, abs=1e-12)


def test_condition_etf_pair_closed_form(etf14):
    # a 2x2 frame with the Gram of ETF columns 2 and 7 has their condition number
    g = numerics.gram(etf14.data[:, [2, 7]])
    pair = MeasurementMatrix(np.linalg.cholesky(g).conj().T, "custom")
    rep = coherence.uniqueness_rank_scan(pair, 1)
    expected = math.sqrt((1.0 + MU14) / (1.0 - MU14))
    assert rep.scanned == 1
    assert rep.min_cond == pytest.approx(expected, abs=1e-10)


def test_condition_rank_deficient(even_rows_dft8):
    # a rank-deficient sub-matrix has no condition number, so the scan leaves it out
    rep = coherence.uniqueness_rank_scan(even_rows_dft8, 1)
    assert rep.witness == (0, 4)
    assert rep.min_cond == pytest.approx(1.0)
    assert rep.max_cond == pytest.approx(1.0)
    twins = MeasurementMatrix([[1.0, 1.0], [0.0, 0.0]], "custom")
    rep = coherence.uniqueness_rank_scan(twins, 1)
    assert rep.min_cond == rep.max_cond == math.inf


def test_condition_squared_equals_gram_eigen_ratio(rng):
    for _ in range(10):
        a = normalize_columns(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
        rep = coherence.uniqueness_rank_scan(MeasurementMatrix(a, "custom"), 2)
        ratios = []
        for subset in itertools.combinations(range(6), 4):
            lo, hi = numerics.hermitian_eigen_extremes(numerics.gram(a[:, subset]))
            ratios.append(hi / lo)
        assert rep.min_cond**2 == pytest.approx(min(ratios), rel=1e-8)
        assert rep.max_cond**2 == pytest.approx(max(ratios), rel=1e-8)


# ------------------------------------------------ hermitian_eigen_extremes


def test_eigen_extremes_identity():
    assert numerics.hermitian_eigen_extremes(np.eye(5)) == (1.0, 1.0)


def test_eigen_extremes_two_by_two_closed_form():
    mu = 0.3
    lo, hi = numerics.hermitian_eigen_extremes([[1.0, mu], [mu, 1.0]])
    assert lo == pytest.approx(1.0 - mu, abs=1e-12)
    assert hi == pytest.approx(1.0 + mu, abs=1e-12)


def test_eigen_extremes_match_charpoly_oracle(etf14):
    g = numerics.gram(etf14.data[:, [1, 5, 9]])
    lo, hi = numerics.hermitian_eigen_extremes(g)
    olo, ohi = eig_extremes_by_charpoly(g)
    assert lo == pytest.approx(olo, abs=1e-9)
    assert hi == pytest.approx(ohi, abs=1e-9)


def test_eigen_extremes_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        numerics.hermitian_eigen_extremes([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHermitianError):
        numerics.hermitian_eigen_extremes(np.ones((2, 3)))


# --------------------------------------------------------- read_only_copy


def test_read_only_copy_keeps_a_view_of_immutable_bytes():
    view = np.frombuffer(bytes(range(64)), dtype="<c16").reshape(2, 2)
    kept = numerics.read_only_copy(numerics.as_matrix(view), view)
    assert kept is view and not kept.flags.writeable


@pytest.mark.parametrize("make_owner", [lambda: np.eye(2, dtype=complex), lambda: bytearray(64)], ids=["ndarray", "bytearray"])
def test_read_only_copy_copies_a_read_only_view_of_writable_memory(make_owner):
    owner = make_owner()
    view = np.frombuffer(owner, dtype="<c16").reshape(2, 2)
    view.flags.writeable = False  # the owner can still write it
    before = view.copy()
    frozen = numerics.read_only_copy(numerics.as_matrix(view), view)
    assert not np.shares_memory(frozen, view) and not frozen.flags.writeable
    owner[0] = 7
    assert not np.array_equal(view, before)
    assert np.array_equal(frozen, before)
