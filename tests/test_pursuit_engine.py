"""The incremental pursuit against the refit-everything loop it replaced.

The reference loop below recomputes A^H r from A and refits all selected
columns with an SVD least-squares solve at every iteration, under the same
tie rule. The incremental engine must reproduce it: the same selection order
when no correlation sits near the edge of the tie set, values within 1e-8,
and the same RankDeficientError and stall outcomes. The batched engine must
give every trial of a batch exactly what it gets alone. On a partial DFT,
whose correlations come from one FFT per step, every run must equal bit for
bit the run of a custom copy, whose correlations come from A.
"""
import dataclasses
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csense import cli, coherence, experiments, matrices, numerics, recovery
from csense.errors import DimensionMismatchError, RankDeficientError
from conftest import traced_peak
from test_experiments import early_stop_config, outcomes
from test_golden import golden_configs, lone_signal

VALUE_TOL = 1e-8
# A correlation this close (relative to ||y||) to the edge of the tie set may
# land on either side of it, depending on evaluation order; a tenth of TIE_TOL,
# so correlations that all tie at rounding level still count as clean.
EDGE_TOL = 1e-13
# Likewise a residual norm this close to the stopping threshold: an
# epsilon below rounding meets residuals that are rounding noise, and one
# engine's noise may be exactly zero where the other's is not.
STOP_TOL = 1e-12


def pursuit_by_refit(a, y, epsilon=recovery.DEFAULT_RELATIVE_EPSILON, max_iter=None):
    """(outcome, margin) of the refit loop.

    outcome is a RecoveryResult, or the type of the error the loop raised.
    margin is True when every decision of the run was clear: no correlation
    within EDGE_TOL * ||y|| of a tie-set edge and no residual norm within
    STOP_TOL * ||y|| of the threshold.
    """
    vec = numerics.as_vector(y)
    y_norm = float(np.linalg.norm(vec))
    threshold = epsilon * y_norm
    max_iter = a.m if max_iter is None else max_iter
    selected = []
    values = np.zeros(0, dtype=np.complex128)
    residual = vec.copy()
    residual_norm = y_norm
    trace = []
    clear = True
    while True:
        # the converged flag compares the last residual with the threshold too
        clear &= abs(residual_norm - threshold) > STOP_TOL * y_norm
        if residual_norm <= threshold or len(selected) >= max_iter:
            break
        correlations = a.data.conj().T @ residual
        mags = np.abs(correlations)
        edge = mags.max() - recovery.TIE_TOL * y_norm
        clear &= float(np.min(np.abs(mags - edge))) > EDGE_TOL * y_norm
        pick = recovery.select_column(correlations, y_norm)
        if pick in selected:
            break
        selected.append(pick)
        sub = a.data[:, selected]
        try:
            values = numerics.solve_least_squares(sub, vec)
        except RankDeficientError:
            return RankDeficientError, clear
        residual = vec - sub @ values
        residual_norm = float(np.linalg.norm(residual))
        trace.append(residual_norm)
    result = recovery.RecoveryResult(
        tuple(selected), values, residual_norm, len(selected), residual_norm <= threshold, tuple(trace)
    )
    return result, clear


def outcome(fn, *args, **kwargs):
    """fn's result, or RankDeficientError if it raised one."""
    try:
        return fn(*args, **kwargs)
    except RankDeficientError:
        return RankDeficientError


def unit_columns(data):
    return matrices.MeasurementMatrix(data / np.linalg.norm(data, axis=0), "custom")


def custom_copy(mat):
    """A custom matrix of mat's data: no dft_rows, so its pursuit takes A^H r from A."""
    return matrices.MeasurementMatrix(mat.data, "custom")


@st.composite
def pursuit_cases(draw):
    """(matrix, y, max_iter): random complex columns, some duplicated or confined to a subspace.

    A column rank below m leaves part of y outside every column's span, which
    is what makes a pursuit stall or pick a dependent column.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 8))
    n = draw(st.integers(m, 16))
    rank = draw(st.integers(1, m))
    data = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    data = data @ (rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n)))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        data[:, j] = data[:, i]
    mat = unit_columns(data)
    k = draw(st.integers(1, m))
    x = np.zeros(n, dtype=np.complex128)
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    y = mat.data @ x
    if draw(st.booleans()):
        y = y + draw(st.sampled_from([1e-6, 1e-2, 1.0])) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    max_iter = draw(st.one_of(st.none(), st.integers(1, m)))
    return mat, y, max_iter


@settings(max_examples=300, deadline=None)
@given(pursuit_cases(), st.sampled_from([recovery.DEFAULT_RELATIVE_EPSILON, 1e-6, 1e-300]))
def test_pursuit_matches_refit_oracle(case, epsilon):
    mat, y, max_iter = case
    expected, clear = pursuit_by_refit(mat, y, epsilon, max_iter)
    assume(clear)
    got = outcome(recovery.matching_pursuit, mat, y, epsilon, max_iter)
    if isinstance(expected, type):
        assert got is expected
        return
    assert not isinstance(got, type), got
    assert got.support == expected.support
    assert got.iterations == expected.iterations
    scale = max(1.0, float(np.linalg.norm(expected.values)))
    assert float(np.max(np.abs(got.values - expected.values), initial=0.0)) <= VALUE_TOL * scale
    y_norm = float(np.linalg.norm(y))
    assert abs(got.residual_norm - expected.residual_norm) <= VALUE_TOL * y_norm
    assert np.allclose(got.residual_trace, expected.residual_trace, rtol=0.0, atol=VALUE_TOL * y_norm)
    assert got.converged == expected.converged


def test_pursuit_matches_oracle_on_shipped_matrices(etf14, etf30, fig3_dft, rng):
    for mat in (etf14, etf30, fig3_dft):
        for _ in range(30):
            k = int(rng.integers(1, mat.m // 2 + 1))
            support = tuple(sorted(rng.choice(mat.n, size=k, replace=False)))
            x = recovery.SparseSignal(mat.n, support, rng.standard_normal(k) + 1j * rng.standard_normal(k))
            y = recovery.measure(mat, x)
            result, clear = pursuit_by_refit(mat, y)
            assert clear
            for a in (mat, custom_copy(mat)):  # fig3's own route is the FFT's
                got = recovery.matching_pursuit(a, y)
                assert got.support == result.support
                assert np.max(np.abs(got.values - result.values)) <= VALUE_TOL


def dependent_third_pick():
    """Columns (a+b)/sqrt(2), a, b in C^3 and a y that makes the pursuit pick all three.

    The pursuit fits a (index 1), then b (index 2). What is left of y is
    orthogonal to every column, so all correlations tie at zero and index 0
    wins, which lies in span(a, b).
    """
    mat = unit_columns(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]], dtype=complex))
    return mat, np.array([1.0, -0.1, 1.0], dtype=complex)


def test_pursuit_rank_deficient_pick_raises_like_the_oracle(tmp_path, capsys):
    mat, y = dependent_third_pick()
    assert pursuit_by_refit(mat, y)[0] is RankDeficientError
    with pytest.raises(RankDeficientError):
        recovery.matching_pursuit(mat, y)
    matrices.save_matrix(mat, tmp_path / "a.json")
    recovery.save_measurement(y, tmp_path / "y.json")
    code = cli.main(["recover", "--matrix", str(tmp_path / "a.json"), "--measurements", str(tmp_path / "y.json")])
    assert code == 3
    assert "linearly dependent" in capsys.readouterr().err


def near_dependent_third_pick(pivot):
    """(c, e1, e2, e3, e5, ..., e64) in C^64, c = (e1 + e2)/sqrt(2) + pivot * e3, and y = e1 - 0.1 e2 + e4.

    The pursuit fits e1 and e2; e4 is then orthogonal to every column, so
    index 0 wins the all-zero tie and c comes third, pivot away from span(e1, e2).
    """
    eye = np.eye(64, dtype=complex)
    c = (eye[:, 0] + eye[:, 1]) / math.sqrt(2.0) + pivot * eye[:, 2]
    mat = unit_columns(np.column_stack([c, eye[:, 0], eye[:, 1], eye[:, 2], *eye[:, 4:].T]))
    return mat, eye[:, 0] - 0.1 * eye[:, 1] + eye[:, 3]


@pytest.mark.parametrize(
    "factor, message",
    [(0.5, "linearly dependent"), (1.5, "numerical rank below 3"), (3.0, None)],
)
def test_pursuit_rank_test_window(factor, message):
    # r_33 = pivot and sigma_min = pivot / 2 about: below m*eps the step test
    # fires; between m*eps and 2*m*eps only the end-of-run SVD of R sees that
    # sigma_min is under the shared tolerance, as the refit's lstsq does
    mat, y = near_dependent_third_pick(factor * 64 * np.finfo(np.float64).eps)
    expected, clear = pursuit_by_refit(mat, y)
    assert clear
    if message is None:
        assert recovery.matching_pursuit(mat, y).support == expected.support == (1, 2, 0)
        return
    assert expected is RankDeficientError
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            pytest.raises(RankDeficientError, match=message):
        recovery.matching_pursuit(mat, y)
    # the floor under sigma_min cannot clear a factor that fails the rank test: the SVD decides it
    assert svd.call_count == (message == "numerical rank below 3")


def near_parallel_frame(rng):
    """An 8x12 frame of columns within 1e-4 of one common direction (condition numbers near 1e5)."""
    u = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    return unit_columns(u + 1e-4 * (rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))))


def test_pursuit_keeps_accuracy_on_near_parallel_columns():
    # Gram-Schmidt without its second pass loses orthogonality like cond^2 * eps
    # and drifts from the refit by 1e-9 and more; with it, both agree to cond * eps
    for seed in range(6):
        rng = np.random.default_rng(seed)
        mat = near_parallel_frame(rng)
        x = np.zeros(12, dtype=np.complex128)
        x[:5] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = mat.data @ x
        expected, clear = pursuit_by_refit(mat, y)
        assert clear
        got = recovery.matching_pursuit(mat, y)
        assert got.support == expected.support
        assert np.max(np.abs(got.values - expected.values)) <= 1e-10 * np.linalg.norm(expected.values)


# ------------------------------------------------------ closing rank screen


def near_dependent_case(factor):
    """near_dependent_third_pick with its pivot factor * m * eps, y as a stack of one."""
    mat, y = near_dependent_third_pick(factor * 64 * np.finfo(np.float64).eps)
    return mat, y[None]


@st.composite
def rank_screen_cases(draw):
    """(matrix, measurement stack) whose pursuits end with factors R of every kind the screen meets.

    Gaussian and partial DFT frames, near-parallel frames (R far from
    orthogonal, cond near 1e5) and near_dependent_third_pick with its pivot
    in the window where only the rank test catches it, or just above it.
    """
    kind = draw(st.sampled_from(["gaussian", "partial-dft", "near-parallel", "near-dependent"]))
    if kind == "near-dependent":
        return near_dependent_case(draw(st.floats(1.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        m = draw(st.integers(1, 24))
        mat = matrices.build_gaussian(m, draw(st.integers(m, 64)), seed=draw(st.integers(0, 2**32 - 1)))
    elif kind == "partial-dft":
        mat = draw(partial_dfts())
    else:
        mat = near_parallel_frame(rng)
    return mat, dft_measurements(mat, rng, 8)


@settings(max_examples=200, deadline=None)
@given(rank_screen_cases(), st.integers(-30, 30))
@example(near_dependent_case(1.5), 0)
def test_the_rank_screen_clears_only_factors_the_svd_passes(case, exponent):
    # every factor R the pursuit ends with, as _finish hands it to the screen: each R the screen
    # clears must pass the SVD's rank test, and the floor and the ceiling must bracket the SVD's
    # smallest and largest singular values within its allowance. The test compares two singular
    # values, so its answer does not change with R's scale, and the bounds must hold at any
    # scale too: each R also goes in times 2^exponent, which rounds nothing
    mat, ys = case
    with mock.patch.object(recovery, "_surely_full_rank", wraps=recovery._surely_full_rank) as screen:
        recovery.pursue_batch(mat, ys)
    for call in screen.call_args_list:
        r = call.args[0] * 2.0**exponent
        k = r.shape[-1]
        s = np.linalg.svd(r, compute_uv=False)
        floor, ceiling, delta = recovery._rank_bounds(r)
        allowance = coherence.factor_allowance(k, k) * ceiling * (1.0 + delta)
        assert np.all(floor * (1.0 - delta) <= s[:, -1] + allowance)
        assert np.all(s[:, 0] <= ceiling * (1.0 + delta) + allowance)
        cleared = recovery._surely_full_rank(r, mat.m)
        assert np.all(s[cleared, -1] > numerics.rank_tolerance((mat.m, k), s[cleared, 0]))


def test_the_benchmark_pursuit_configs_factor_no_r():
    # the four montecarlo configs, with their trial counts, and the pursuit_large config on a 256x1024
    # partial DFT: the floor clears every factor R, so no trial's rank test needs an SVD
    large = experiments.ExperimentConfig(
        matrix={"family": "partial-dft", "m": 256, "n": 1024, "seed": 0},
        k_range=(16, 40),
        trials=4,
        amplitude_model=experiments.AMPLITUDE_RANDOM,
        seed=0,
    )
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
            mock.patch.object(recovery, "_surely_full_rank", wraps=recovery._surely_full_rank) as screen:
        for cfg in (*golden_configs().values(), large):
            experiments.run_experiment(cfg)
    assert svd.call_count == 0
    # every trial was screened once: 8 (config, k) rows of 500 trials, and 25 k of 4
    assert sum(len(call.args[0]) for call in screen.call_args_list) == 8 * 500 + 25 * 4


def test_pursuit_duplicated_column_is_never_reselected(even_rows_dft8):
    # columns 0 and 4 coincide: after 0 is fitted, 4 correlates with nothing
    y = even_rows_dft8.data[:, 0] + 0.5 * even_rows_dft8.data[:, 1]
    result = recovery.matching_pursuit(even_rows_dft8, y)
    assert sorted(result.support) == [0, 1]
    assert result.converged


def test_pursuit_stall_matches_oracle():
    # rank-2 columns in C^3: once y's in-span part is fitted, every correlation
    # is zero and the lowest index, already selected, is picked again
    data = np.array([[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, -1.0], [0.0, 0.0, 0.0, 0.0]], dtype=complex)
    mat = unit_columns(data)
    y = np.array([1.0, 0.25, 3.0], dtype=complex)
    expected, _ = pursuit_by_refit(mat, y)
    got = recovery.matching_pursuit(mat, y)
    assert not got.converged
    assert got.support == expected.support
    assert got.support[0] == 0
    assert got.residual_norm == pytest.approx(3.0, abs=1e-12)
    assert np.max(np.abs(got.values - expected.values)) <= VALUE_TOL


def test_max_iter_past_m_is_rejected(tmp_path, capsys):
    # OMP on m equations picks at most m columns, so max_iter is checked in
    # [1, m] before any pick; an epsilon below rounding runs to the cap unconverged
    rng = np.random.default_rng(1)
    mat = unit_columns(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    with pytest.raises(ValueError, match=r"^max_iter must be in \[1, 3\], got 4$"):
        recovery.matching_pursuit(mat, y, epsilon=1e-300, max_iter=4)
    with pytest.raises(ValueError, match="max_iter"):
        recovery.pursue_batch(mat, np.stack([y, 2 * y]), max_iter=4)
    matrices.save_matrix(mat, tmp_path / "a.json")
    recovery.save_measurement(y, tmp_path / "y.json")
    argv = ["recover", "--matrix", str(tmp_path / "a.json"), "--measurements", str(tmp_path / "y.json")]
    argv += ["--epsilon", "1e-300"]
    assert cli.main([*argv, "--max-iter", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "max_iter must be in [1, 3], got 4" in captured.err
    assert cli.main([*argv, "--max-iter", "3"]) == 5
    result = json.loads(capsys.readouterr().out)["recovery"]
    assert (result["iterations"], result["converged"]) == (3, False)


def test_an_etf_experiment_builds_no_gram_and_fits_nothing_alone():
    # the 15x30 Paley ETF is not a partial DFT: its pursuit takes A^H r from A and
    # its coherence walks strips, and the refit is the pursuit's own, not solve_least_squares
    spec = {"family": "etf", "m": 15, "n": 30}
    cfg = experiments.ExperimentConfig(matrix=spec, k_range=(2, 4), trials=5)
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram, \
            mock.patch.object(numerics, "solve_least_squares", wraps=numerics.solve_least_squares) as lstsq:
        experiments.run_experiment(cfg)
    assert gram.call_count == 0
    assert lstsq.call_count == 0


def test_partial_dft_experiment_builds_no_gram():
    # its pursuit takes A^H r from one FFT per step, and its coherence walks fresh strips
    spec = {"family": "partial-dft", "m": 24, "n": 64, "seed": 5}
    cfg = experiments.ExperimentConfig(matrix=spec, k_range=(2, 4), trials=5)
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram, \
            mock.patch.object(recovery, "pursue_batch", wraps=recovery.pursue_batch) as pursue:
        experiments.run_experiment(cfg)
    assert gram.call_count == 0
    mat = pursue.call_args.args[0]
    assert all(call.args[0] is mat for call in pursue.call_args_list)
    assert mat.dft_rows is not None


def test_pursuit_on_a_fresh_matrix_builds_no_gram():
    # one run takes A^H r from one FFT per step on a partial DFT, or from A in
    # O(m n); an n x n Gram built for it alone would cost O(m n^2) time and n^2 memory
    mat = matrices.from_spec("partial-dft", m=16, n=256, seed=2)
    x = recovery.SparseSignal(mat.n, (3, 70, 200), np.array([1.0, -0.5j, 0.25]))
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        result = recovery.matching_pursuit(mat, recovery.measure(mat, x))
    assert gram.call_count == 0
    assert sorted(result.support) == [3, 70, 200]


# ------------------------------------------------------------- batched engine


def alone(a, y, *args):
    """matching_pursuit on one measurement vector: its result or the RankDeficientError it raised."""
    try:
        return recovery.matching_pursuit(a, y, *args)
    except RankDeficientError as exc:
        return exc


def assert_same_outcome(got, expected):
    """Bit-identical outcomes: the same picks, status, values and residuals, or the same error."""
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert isinstance(got, recovery.RecoveryResult), got
    assert (got.support, got.iterations, got.converged) == (expected.support, expected.iterations, expected.converged)
    assert np.array_equal(got.values, expected.values)
    assert (got.residual_norm, got.residual_trace) == (expected.residual_norm, expected.residual_trace)


def assert_batch_matches_each_trial_alone(mat, ys, *args):
    batch = recovery.pursue_batch(mat, ys, *args)
    assert len(batch.first_picks) == len(batch.iterations) == len(batch.picks) == len(ys)
    for y, first, got in zip(ys, batch.first_picks, outcomes(batch)):
        expected = alone(mat, y, *args)
        assert_same_outcome(got, expected)
        assert first == recovery.pursue_batch(mat, y[None], *args).first_picks[0]
        if not isinstance(expected, Exception) and expected.support:
            assert first == expected.support[0]
    return batch


@st.composite
def batch_cases(draw):
    """(matrix, ys, max_iter): one matrix of pursuit_cases and a stack of measurements.

    Rows differ in sparsity and noise, and some are zero, so trials of one
    batch stop at different steps, stall, or pick a dependent column.
    """
    mat, _, max_iter = draw(pursuit_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ys = np.zeros((draw(st.integers(1, 10)), mat.m), dtype=np.complex128)
    for y in ys:
        kind = draw(st.sampled_from(["sparse", "noisy", "zero"]))
        if kind == "zero":
            continue
        k = int(rng.integers(1, mat.m + 1))
        x = np.zeros(mat.n, dtype=np.complex128)
        x[rng.choice(mat.n, size=k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        y[:] = mat.data @ x
        if kind == "noisy":
            y += 1e-2 * (rng.standard_normal(mat.m) + 1j * rng.standard_normal(mat.m))
    return mat, ys, max_iter


@settings(max_examples=200, deadline=None)
@given(batch_cases(), st.sampled_from([recovery.DEFAULT_RELATIVE_EPSILON, 1e-6, 1e-300]))
def test_batch_matches_each_trial_alone(case, epsilon):
    # every product is taken per trial, so a batch reproduces each trial's
    # lone run bit for bit
    mat, ys, max_iter = case
    batch = assert_batch_matches_each_trial_alone(mat, ys, epsilon, max_iter)
    assert all(isinstance(o, (recovery.RecoveryResult, RankDeficientError)) for o in outcomes(batch))


def test_trial_outcomes_match_each_trial_alone_in_any_batch_size():
    # run_experiment's batches: one trial each, three each (a last slice of
    # one per k) and the shipped size, where the 40-trial slices of all three
    # k share one batch, on a config whose trials stop at different steps
    cfg = early_stop_config()
    mat = matrices.from_spec(**cfg.matrix)
    lengths = set()
    expected = {}
    for k in range(3, 6):
        signals = [lone_signal(cfg, mat, k, t) for t in range(cfg.trials)]
        expected[k] = signals, [alone(mat, recovery.measure(mat, x), cfg.epsilon) for x in signals]
        lengths |= {(k, r.iterations) for r in expected[k][1] if not isinstance(r, Exception)}
    for batch_bytes in (1, 3 * recovery.step_bytes(mat), experiments.BATCH_BYTES):
        with mock.patch.object(experiments, "BATCH_BYTES", batch_bytes):
            outcomes_by_k = itertools.groupby(experiments.trial_outcomes(cfg, mat), key=lambda outcome: outcome[0])
            slices_by_k = {k: [outcome[1:] for outcome in slices] for k, slices in outcomes_by_k}
        assert list(slices_by_k) == list(expected)
        for k, batches in slices_by_k.items():
            signals, lone_results = expected[k]
            supports = np.concatenate([supports for supports, _, _ in batches])
            values = np.concatenate([values for _, values, _ in batches])
            first_picks = np.concatenate([pursuit.first_picks for _, _, pursuit in batches]).tolist()
            results = [result for _, _, pursuit in batches for result in outcomes(pursuit)]
            assert [tuple(s) for s in supports.tolist()] == [x.support for x in signals]
            assert values.tobytes() == np.array([x.values for x in signals]).tobytes()
            assert len(first_picks) == len(results) == cfg.trials
            for first, result, lone in zip(first_picks, results, lone_results):
                assert_same_outcome(result, lone)
                if not isinstance(lone, Exception):
                    assert first == lone.support[0]
    assert len(lengths) > 3  # some k has trials that stop at different steps


@pytest.mark.filterwarnings("error")  # a dependent pick must not divide by a zero pivot
def test_batch_retires_trials_at_every_step():
    # on the matrix of dependent_third_pick: a dependent third pick, a
    # two-step fit, a one-step fit, a stall on the third axis that no column
    # reaches, and a zero vector that needs no step
    mat, y = dependent_third_pick()
    a, b = mat.data[:, 1], mat.data[:, 2]
    ys = np.array([y, a - 0.1 * b, a, [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    batch = assert_batch_matches_each_trial_alone(mat, ys)
    dependent, *returned = outcomes(batch)
    assert isinstance(dependent, RankDeficientError)
    assert [r.iterations for r in returned] == [2, 1, 1, 0]
    assert [r.converged for r in returned] == [True, True, False, True]
    assert batch.first_picks.tolist() == [1, 1, 1, 0, 0]
    assert list(batch.errors) == [0]
    assert batch.iterations[1:].tolist() == [2, 1, 1, 0]
    assert batch.converged[1:].tolist() == [True, True, False, True]
    assert batch.picks.shape == (5, 3)  # the dependent trial ended at the third step
    assert batch.result(-1).iterations == 0  # a negative row counts from the end, as in the arrays
    with pytest.raises(RankDeficientError):
        batch.result(-5)


def test_batch_matches_each_trial_alone_across_every_resize():
    # the room for steps doubles at 1, 2, 4, 8 and 16 steps, and R's columns
    # grow with it: trials that stop on each side of every resize. Halving
    # magnitudes make the pursuit pick the support in order, one step each
    mat = matrices.from_spec(family="gaussian", m=48, n=96, seed=5)
    rng = np.random.default_rng(7)
    steps = [1, 2, 3, 4, 5, 8, 9, 16, 17]
    ys = np.zeros((len(steps), mat.m), dtype=np.complex128)
    for y, s in zip(ys, steps):
        x = np.zeros(mat.n, dtype=np.complex128)
        x[rng.choice(mat.n, size=s, replace=False)] = 2.0 ** -np.arange(s) * np.exp(2j * np.pi * rng.random(s))
        y[:] = mat.data @ x
    batch = assert_batch_matches_each_trial_alone(mat, ys)
    assert batch.iterations.tolist() == steps
    assert batch.converged.all() and not batch.errors


def test_batch_memory_grows_r_with_the_steps_taken():
    # pursuit_large's largest batch: 10 trials at k = 40 on its 256x1024
    # partial DFT. With R as wide as the room for steps it peaks at about
    # 5.3 MB; with R m wide it peaked at 8.4 MB
    cfg = experiments.ExperimentConfig(
        matrix={"family": "partial-dft", "m": 256, "n": 1024, "seed": 0},
        k_range=(40, 40),
        trials=10,
        amplitude_model=experiments.AMPLITUDE_RANDOM,
    )
    mat = matrices.from_spec(**cfg.matrix)
    supports, values = experiments.draw_trials(cfg, mat.n, 40, range(cfg.trials))
    ys = recovery.measure_batch(mat, supports, values)
    batch, peak = traced_peak(recovery.pursue_batch, mat, ys)
    assert batch.iterations.tolist() == [40] * cfg.trials
    assert peak <= 6.5e6


def test_pursue_batch_checks_its_input(etf14):
    with pytest.raises(DimensionMismatchError):
        recovery.pursue_batch(etf14, np.ones((3, 6)))
    with pytest.raises(ValueError):
        recovery.pursue_batch(etf14, np.ones(7))
    with pytest.raises(ValueError, match="at least one row"):
        recovery.pursue_batch(etf14, np.ones((0, 7)))
    with pytest.raises(ValueError):
        recovery.pursue_batch(etf14, np.ones((2, 7)), epsilon=0.0)
    with pytest.raises(ValueError):
        recovery.pursue_batch(etf14, np.ones((2, 7)), max_iter=0)


def test_batch_memory_is_bounded_by_the_batch_size():
    # the 500-trial 15x30 guarantee config: its batches of 273 trials peak at
    # 1.9 MB, about 7.3 x BATCH_BYTES; all 500 trials in one batch take 3.4 MB
    cfg = experiments.ExperimentConfig(
        matrix={"family": "etf", "m": 15, "n": 30},
        k_range=(1, 3),
        trials=500,
        amplitude_model=experiments.AMPLITUDE_RANDOM,
        seed=20260810,
    )
    experiments.run_experiment(cfg)
    report, peak = traced_peak(experiments.run_experiment, cfg)
    assert [row.exact_recovery_rate for row in report.rows] == [1.0, 1.0, 1.0]
    assert peak <= 12 * experiments.BATCH_BYTES


# ------------------------------------------------- FFT route on partial DFTs
# The "gram route" of the test names below is the route without an FFT: a
# custom copy of the data, whose pursuit takes A^H r from A.


def fft_route_matches_a_route(mat, ys, *args):
    """pursue_batch on a partial DFT (the FFT route) and on a custom copy of its data (the A route).

    The correlations only choose the picks, so equal picks make every
    result(t) bit-equal; entries past iterations[t] are unread and may differ.
    """
    assert mat.dft_rows is not None
    copy = custom_copy(mat)
    assert copy.dft_rows is None
    with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft_calls:
        fft = recovery.pursue_batch(mat, ys, *args)
        dot = recovery.pursue_batch(copy, ys, *args)
    assert fft_calls.call_count == 1 + fft.iterations.max()  # one FFT per step, none on the A route
    assert np.array_equal(fft.first_picks, dot.first_picks)
    for got, expected in zip(outcomes(fft), outcomes(dot), strict=True):
        assert_same_outcome(got, expected)


def dft_measurements(mat, rng, trials):
    """A (trials, m) stack: sparse signals of every size up to m, random or unit amplitudes, some noisy, some zero."""
    ys = np.zeros((trials, mat.m), dtype=np.complex128)
    for y in ys:
        kind = rng.integers(5)
        if kind == 0:
            continue
        k = int(rng.integers(1, mat.m + 1))
        x = np.zeros(mat.n, dtype=np.complex128)
        x[rng.choice(mat.n, size=k, replace=False)] = 1.0 if kind == 1 else rng.standard_normal(k) + 1j * rng.standard_normal(k)
        y[:] = mat.data @ x
        if kind == 4:
            y += 1e-2 * (rng.standard_normal(mat.m) + 1j * rng.standard_normal(mat.m))
    return ys


@st.composite
def partial_dfts(draw):
    """A partial DFT with n <= 400: m rows drawn by seed, or an explicit row set."""
    n = draw(st.integers(1, 400))
    m = draw(st.integers(1, min(n, 40)))
    if draw(st.booleans()):
        return matrices.from_spec("partial-dft", n=n, m=m, seed=draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True))
    return matrices.build_partial_dft(n, sorted(rows))


@settings(max_examples=150, deadline=None)
@given(partial_dfts(), st.integers(0, 2**32 - 1), st.sampled_from([recovery.DEFAULT_RELATIVE_EPSILON, 1e-6, 1e-300]))
def test_fft_route_matches_the_gram_route_on_partial_dfts(mat, seed, epsilon):
    rng = np.random.default_rng(seed)
    fft_route_matches_a_route(mat, dft_measurements(mat, rng, 8), epsilon)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "subsampling", "n": 16, "p": 2},
        {"family": "subsampling", "n": 32, "p": 4},
        {"family": "subsampling", "n": 48, "p": 3},
        {"family": "etf", "m": 3, "n": 7},
        {"family": "etf", "m": 4, "n": 7},
        {"family": "etf", "m": 5, "n": 11},
    ],
    ids=lambda spec: "-".join(map(str, spec.values())),
)
def test_fft_route_matches_the_gram_route_on_shipped_frames(spec, rng):
    # subsampling frames repeat every column n / p times, so their correlations tie exactly
    mat = matrices.from_spec(**spec)
    for max_iter in (None, 1, mat.m):
        fft_route_matches_a_route(mat, dft_measurements(mat, rng, 60), recovery.DEFAULT_RELATIVE_EPSILON, max_iter)


def test_fft_route_matches_the_gram_route_on_fig3(fig3_dft, rng):
    fft_route_matches_a_route(fig3_dft, dft_measurements(fig3_dft, rng, 200))
    spec = {"family": "partial-dft", "n": 16, "rows": list(fig3_dft.meta["rows"])}
    for model in experiments.AMPLITUDE_MODELS:  # run_experiment's draws at k 1-8
        cfg = experiments.ExperimentConfig(matrix=spec, k_range=(1, 8), trials=100, amplitude_model=model)
        for k in range(1, 9):
            supports, values = experiments.draw_trials(cfg, fig3_dft.n, k, range(cfg.trials))
            fft_route_matches_a_route(fig3_dft, recovery.measure_batch(fig3_dft, supports, values))


@settings(max_examples=150, deadline=None)
@given(partial_dfts(), st.integers(0, 2**32 - 1))
def test_fft_correlations_lie_within_the_allowance_of_the_dot_products(mat, seed):
    # _correlate's dot products lie within about m u ||r|| of the exact A^H r
    # (coherence.gamma), and an FFT's within about log2(n) u ||F x||, with
    # ||F x|| = sqrt(n / m) ||r|| here (Higham 2002, Thm 24.2). The allowance
    # is twice their sum; the largest gap measured on 400 random partial DFTs
    # was 0.54 of that sum
    rng = np.random.default_rng(seed)
    residuals = rng.standard_normal((4, mat.m)) + 1j * rng.standard_normal((4, mat.m))
    spread = np.zeros((4, mat.n), dtype=np.complex128)
    fft = recovery._dft_correlate(spread, np.array(mat.dft_rows), residuals, np.empty_like(spread))
    dot = recovery._correlate(mat, residuals)
    allowance = 2.0 * (mat.m + math.log2(2 * mat.n) * math.sqrt(mat.n / mat.m)) * numerics.UNIT_ROUNDOFF
    assert np.all(np.abs(fft - dot) <= allowance * np.linalg.norm(residuals, axis=1)[:, None])


def test_an_edited_partial_dft_file_takes_the_dot_product_route(tmp_path, rng):
    # rows in meta that no longer match the data: no FFT, and the run of a custom copy
    mat = matrices.from_spec("partial-dft", n=64, m=16, seed=3)
    meta = {"rows": [r + 1 for r in mat.meta["rows"]]}
    matrices.save_matrix(matrices.MeasurementMatrix(mat.data, "partial-dft", meta), tmp_path / "edited.json")
    edited = matrices.load_matrix(tmp_path / "edited.json")
    assert edited.dft_rows is None
    ys = dft_measurements(mat, rng, 40)
    with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
        got = recovery.pursue_batch(edited, ys)
    assert fft.call_count == 0
    expected = recovery.pursue_batch(custom_copy(mat), ys)
    assert np.array_equal(got.first_picks, expected.first_picks)
    for g, e in zip(outcomes(got), outcomes(expected), strict=True):
        assert_same_outcome(g, e)


# ----------------------------------------------------------------- tie rule


def three_orders(mat, y):
    """A^H y evaluated three ways: conjugate transpose, (y^H A)^H, and a contiguous A^H."""
    adjoint = np.ascontiguousarray(mat.data.conj().T)
    return mat.data.conj().T @ y, (y.conj() @ mat.data).conj(), adjoint @ y


@st.composite
def tie_cases(draw):
    """(matrix, y): ETFs with unit amplitudes (many exact ties) or random complex matrices."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["etf14", "etf30", "random"]))
    if kind == "random":
        m = draw(st.integers(2, 8))
        n = draw(st.integers(m, 16))
        mat = unit_columns(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    else:
        mat = ETFS[kind]
    k = draw(st.integers(1, min(4, mat.m)))
    x = np.zeros(mat.n, dtype=np.complex128)
    unit = draw(st.booleans())
    x[rng.choice(mat.n, size=k, replace=False)] = 1.0 if unit else rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return mat, mat.data @ x


ETFS = {"etf14": matrices.build_etf(7, 14), "etf30": matrices.build_etf(15, 30)}


@settings(max_examples=300, deadline=None)
@given(tie_cases())
def test_pick_does_not_depend_on_evaluation_order(case):
    mat, y = case
    scale = float(np.linalg.norm(y))
    picks = {recovery.select_column(c, scale) for c in three_orders(mat, y)}
    picks.add(recovery.select_column(recovery.back_project(mat, y), scale))
    assert len(picks) == 1


def test_tie_rule_settles_what_rounding_splits():
    # criterion 12: unit amplitudes on the 7x14 ETF tie often; a bare argmax
    # lets the evaluation order pick, the tie rule does not
    mat = ETFS["etf14"]
    raw_splits = 0
    for trial in range(500):
        rng = np.random.default_rng(np.random.SeedSequence((424242, 3, trial)))
        support = matrices.draw_without_replacement(rng, mat.n, 3)
        y = recovery.measure(mat, recovery.SparseSignal(mat.n, support, np.ones(3)))
        orders = three_orders(mat, y)
        raw_splits += len({int(np.argmax(np.abs(c))) for c in orders}) > 1
        assert len({recovery.select_column(c, float(np.linalg.norm(y))) for c in orders}) == 1
    assert raw_splits > 0


def test_select_column_lowest_index_within_tolerance():
    assert recovery.select_column(np.array([0.5, 1.0, 1.0 - 1e-13, 1.0]), 1.0) == 1
    assert recovery.select_column(np.array([1.0 - 1e-13, 1.0, 0.2]), 1.0) == 0
    assert recovery.select_column(np.array([1.0 - 1e-10, 1.0, 0.2]), 1.0) == 1
    assert recovery.select_column(np.array([1.0 - 1e-10, 1.0j]), 100.0) == 0  # scaled by ||y||
    assert recovery.select_column(np.zeros(4), 1.0) == 0


# -------------------------------------------------------------------- scale


def scaled(result, c):
    """result with its values and residual norms multiplied by c; an error as it is."""
    if isinstance(result, Exception):
        return result
    return dataclasses.replace(
        result,
        values=c * result.values,
        residual_norm=c * result.residual_norm,
        residual_trace=tuple(c * r for r in result.residual_trace),
    )


@settings(max_examples=100, deadline=None)
@given(batch_cases(), st.integers(-60, 60))
def test_pursuit_and_oracle_are_scale_equivariant(case, p):
    # x and c x have the same support and the same certificate, and every
    # tolerance on a quantity derived from y is relative to ||y||. A power of
    # two scales every product exactly, so the runs match bit for bit
    mat, ys, max_iter = case
    c = 2.0**p
    batch = recovery.pursue_batch(mat, ys, max_iter=max_iter)
    batch_c = recovery.pursue_batch(mat, c * ys, max_iter=max_iter)
    assert np.array_equal(batch_c.first_picks, batch.first_picks)
    k_max = min(3, mat.m)
    for y, got, expected in zip(ys, outcomes(batch_c), outcomes(batch)):
        assert_same_outcome(got, scaled(expected, c))
        assert_same_outcome(alone(mat, c * y, recovery.DEFAULT_RELATIVE_EPSILON, max_iter), scaled(expected, c))
        supports = [s.support for s in recovery.exhaustive_l0_search(mat, y, k_max).solutions]
        assert [s.support for s in recovery.exhaustive_l0_search(mat, c * y, k_max).solutions] == supports


def test_recover_oracle_agrees_on_a_tiny_measurement(tmp_path, capsys):
    # fig4's 3-sparse signal times 2^-50: its fitted values lie far below
    # numerics.ZERO_TOL, yet the oracle finds the support the pursuit found
    mat, support = cli.figure_scenario("fig4")
    x = recovery.SparseSignal(mat.n, support, np.array([1.0, -0.5, 0.25 + 0.75j]))
    matrices.save_matrix(mat, tmp_path / "a.json")
    recovery.save_measurement(2.0**-50 * recovery.measure(mat, x), tmp_path / "y.json")
    argv = ["recover", "--matrix", str(tmp_path / "a.json"), "--measurements", str(tmp_path / "y.json"), "--oracle"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["recovery"]["support"] == [2, 19, 5]
    assert [s["support"] for s in payload["oracle"]["solutions"]] == [[2, 5, 19]]
    assert payload["oracle"]["agrees_with_pursuit"] is True and payload["oracle"]["ambiguous"] is False
