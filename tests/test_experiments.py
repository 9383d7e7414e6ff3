import contextlib
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csense import _stream, cli, experiments, matrices, numerics, recovery
from csense.errors import RankDeficientError
from csense.serialization import to_dict
from test_golden import golden_configs


def etf14_config(**overrides):
    base = dict(
        matrix={"family": "etf", "m": 7, "n": 14},
        k_range=(1, 2),
        trials=200,
        amplitude_model=experiments.AMPLITUDE_RANDOM,
        seed=11,
    )
    base.update(overrides)
    return experiments.ExperimentConfig(**base)


def test_certified_regime_recovers_every_trial():
    report = experiments.run_experiment(etf14_config())
    assert report.k_max_theory == 2
    for row in report.rows:
        assert row.exact_recovery_rate == 1.0
        assert row.first_pick_correct_rate == 1.0
        # each certified trial finishes in exactly k refits
        assert row.mean_iterations == row.k


def test_reports_are_deterministic():
    a = experiments.run_experiment(etf14_config(k_range=(1, 3), trials=40))
    b = experiments.run_experiment(etf14_config(k_range=(1, 3), trials=40))
    assert to_dict(a) == to_dict(b)


def test_beyond_certificate_rate_is_interior():
    cfg = etf14_config(k_range=(3, 3), trials=200, amplitude_model=experiments.AMPLITUDE_UNIT_EQUAL, seed=424242)
    report = experiments.run_experiment(cfg)
    row = report.rows[0]
    assert 0.0 < row.exact_recovery_rate < 1.0
    assert row.first_pick_correct_rate >= row.exact_recovery_rate


def test_first_pick_rate_dominates_exact_rate():
    report = experiments.run_experiment(etf14_config(k_range=(1, 3), trials=60, seed=5))
    for row in report.rows:
        assert row.first_pick_correct_rate >= row.exact_recovery_rate


def test_single_trial_fixed_seed_repeats_bitwise():
    cfg = etf14_config(trials=1, k_range=(2, 2), seed=77)
    once = to_dict(experiments.run_experiment(cfg))
    again = to_dict(experiments.run_experiment(cfg))
    assert once == again


def test_config_validation():
    with pytest.raises(ValueError):
        etf14_config(trials=0)
    with pytest.raises(ValueError):
        etf14_config(k_range=(0, 2))
    with pytest.raises(ValueError):
        etf14_config(k_range=(3, 2))
    with pytest.raises(ValueError):
        etf14_config(amplitude_model="adversarial")
    with pytest.raises(ValueError):
        etf14_config(epsilon=0.0)
    with pytest.raises(ValueError):
        etf14_config(a_min=0.0)
    with pytest.raises(ValueError):
        experiments.run_experiment(etf14_config(k_range=(1, 8)))  # k beyond m


def test_config_from_dict_defaults():
    cfg = experiments.ExperimentConfig.from_dict(
        {"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3}
    )
    assert cfg.amplitude_model == experiments.AMPLITUDE_UNIT_EQUAL
    assert cfg.seed == 0
    assert cfg.epsilon == 1e-10
    assert cfg.a_min is None and cfg.a_max is None
    assert to_dict(cfg)["k_range"] == [1, 2]
    random = etf14_config()
    assert (random.a_min, random.a_max) == (0.5, 2.0)


def test_every_config_field_is_frozen():
    # after its checks a config cannot become one with no trials or an empty k range;
    # dataclasses.replace builds a new config, checked again
    cfg = etf14_config()
    for field in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, None)
    assert (cfg.k_range, cfg.trials) == ((1, 2), 200)
    for change in ({"trials": 0}, {"k_range": (5, 1)}):
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, **change)


def test_csv_lines_header():
    report = experiments.run_experiment(etf14_config(trials=2))
    lines = report.csv_lines()
    assert lines[0] == "k,trials,first_pick_rate,exact_rate,mean_iters"
    assert len(lines) == 3


def test_amplitude_models_differ():
    unit = experiments.run_experiment(etf14_config(amplitude_model=experiments.AMPLITUDE_UNIT_EQUAL, trials=5))
    rand = experiments.run_experiment(etf14_config(trials=5))
    assert unit.rows[0].exact_recovery_rate == rand.rows[0].exact_recovery_rate == 1.0


# ------------------------------------------------------------------- sweep


def test_sweep_full_sampling_is_single_orthonormal_subset():
    scores = experiments.sweep_partial_dft_subsets(8, 8, 25, seed=4)
    assert len(scores) == 1
    assert scores[0].mu == pytest.approx(0.0, abs=1e-12)
    assert scores[0].k_max is None


def test_sweep_finds_low_coherence_subsets():
    scores = experiments.sweep_partial_dft_subsets(16, 12, 500, seed=9)
    assert scores[0].mu <= 0.2455 + 0.05
    mus = [s.mu for s in scores]
    assert mus == sorted(mus)


def test_sweep_deterministic():
    a = experiments.sweep_partial_dft_subsets(12, 8, 50, seed=21)
    b = experiments.sweep_partial_dft_subsets(12, 8, 50, seed=21)
    assert [to_dict(s) for s in a] == [to_dict(s) for s in b]


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        experiments.sweep_partial_dft_subsets(8, 9, 10, seed=0)
    with pytest.raises(ValueError):
        experiments.sweep_partial_dft_subsets(8, 4, 0, seed=0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(1, 60),
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)),
)
@example((16, 12), 500, 20260810)  # the sweep that chose fig3's rows
@example((8, 8), 25, 4)
def test_sweep_draws_what_one_generator_draws_subset_after_subset(shape, subsets, seed):
    n, m = shape
    rng = np.random.default_rng(seed)
    expected = {matrices.draw_without_replacement(rng, n, m) for _ in range(subsets)}
    assert {score.rows for score in experiments.sweep_partial_dft_subsets(n, m, subsets, seed)} == expected


def test_seeded_draws_build_no_numpy_generator():
    # every seeded index draw reads csense's copy of the stream, never numpy's Generator
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    with mock.patch.object(np.random, "default_rng", refuse), mock.patch.object(np.random, "Generator", refuse):
        assert len(matrices.sample_rows(1024, 256, seed=0)) == 256
        assert experiments.sweep_partial_dft_subsets(16, 12, 50, seed=20260810)
        cfg = etf14_config(matrix={"family": "partial-dft", "n": 64, "m": 16, "seed": 3}, k_range=(1, 3), trials=30)
        assert len(experiments.run_experiment(cfg).rows) == 3


def duplicate_columns_config():
    # period-2 subsampling of n=16 keeps the even rows, so columns j and j+8
    # agree up to rounding; the tie rule picks the lower one, j mod 8, which is
    # the true index exactly when j < 8
    return experiments.ExperimentConfig(
        matrix={"family": "subsampling", "n": 16, "p": 2},
        k_range=(1, 1),
        trials=200,
        amplitude_model=experiments.AMPLITUDE_UNIT_EQUAL,
        seed=0,
    )


def test_first_pick_and_pursuit_follow_the_tie_rule_on_duplicate_columns():
    cfg = duplicate_columns_config()
    low = 0
    for trial in range(cfg.trials):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 1, trial)))
        (j,) = matrices.draw_without_replacement(rng, 16, 1)
        low += j < 8
    row = experiments.run_experiment(cfg).rows[0]
    assert 0 < low < cfg.trials
    assert row.first_pick_correct_rate == row.exact_recovery_rate == low / cfg.trials


@pytest.mark.parametrize("cfg", [etf14_config(k_range=(3, 4), trials=60), duplicate_columns_config()])
def test_first_pick_counts_when_the_pursuit_raises(cfg):
    # a rank-deficient run returns no support; its first pick is the engine's
    # first selection and must match what the returned runs report. No pivot
    # clears an infinite rank tolerance, so every trial raises at its first step
    returned = experiments.run_experiment(cfg)
    with mock.patch.object(numerics, "rank_tolerance", return_value=np.inf):
        raised = experiments.run_experiment(cfg)
    m = matrices.from_spec(**cfg.matrix).m
    for got, expected in zip(raised.rows, returned.rows):
        assert got.first_pick_correct_rate == expected.first_pick_correct_rate
        assert got.exact_recovery_rate == 0.0
        assert got.mean_iterations == m


# ------------------------------------------------ batch draw and batch tally


def reference_signal(cfg, n, k, trial):
    """One trial drawn on its own: a generator keyed by (seed, k, trial), then a
    partial Fisher-Yates support and two rng.uniform calls for the amplitudes."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k, trial)))
    support = matrices.draw_without_replacement(rng, n, k)
    if cfg.amplitude_model == experiments.AMPLITUDE_UNIT_EQUAL:
        return recovery.SparseSignal(n, support, np.ones(k, dtype=np.complex128))
    mags = np.exp(rng.uniform(math.log(cfg.a_min), math.log(cfg.a_max), size=k))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=k)
    return recovery.SparseSignal(n, support, mags * np.exp(1j * phases))


def draw_case(n, m, k, amplitude_model, seed, trials, a_min=0.5, a_max=2.0):
    amplitudes = {"a_min": a_min, "a_max": a_max} if amplitude_model == experiments.AMPLITUDE_RANDOM else {}
    cfg = experiments.ExperimentConfig(
        matrix={"family": "partial-dft", "n": n, "m": m, "seed": 0},
        k_range=(1, k),
        trials=1,
        amplitude_model=amplitude_model,
        seed=seed,
        **amplitudes,
    )
    return matrices.from_spec(**cfg.matrix), cfg, k, trials


@st.composite
def draw_cases(draw):
    """(matrix, config, k, trials): a seeded partial DFT with n <= 256, any k in [1, m],
    seeds and trial numbers on both sides of 2**32, and both amplitude models."""
    n = draw(st.integers(1, 256))
    m = draw(st.integers(1, min(n, 24)))
    k = draw(st.integers(1, m))
    a_min, a_max = sorted(draw(st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2)))
    amplitude_model = draw(st.sampled_from(experiments.AMPLITUDE_MODELS))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)))
    start = draw(st.one_of(st.integers(0, 10**6), st.integers(2**32 - 4, 2**32 + 4)))
    trials = range(start, start + draw(st.integers(1, 12)))
    return draw_case(n, m, k, amplitude_model, seed, trials, a_min, a_max)


@settings(max_examples=150, deadline=None)
@given(draw_cases())
# a batch whose trials take one entropy word and then two, seeded in two groups
@example(draw_case(30, 15, 3, experiments.AMPLITUDE_RANDOM, 11, range(2**32 - 3, 2**32 + 3)))
# seed words, k and trial make 5 entropy words: SeedSequence mixes the one beyond its 4-word pool
@example(draw_case(14, 7, 3, experiments.AMPLITUDE_RANDOM, 2**64 + 424242, range(0, 9)))
def test_batch_draw_is_the_stream_of_each_trial_alone(case):
    # the generator, the support and the value bits of every trial, and the
    # bits of its y = A x, are those of the trial drawn and measured alone;
    # a numpy whose uniform fuses low + range * u into one rounding fails here
    mat, cfg, k, trials = case
    supports, values = experiments.draw_trials(cfg, mat.n, k, trials)
    ys = recovery.measure_batch(mat, supports, values)
    assert supports.shape == values.shape == (len(trials), k)
    assert ys.shape == (len(trials), mat.m)
    for row, trial in enumerate(trials):
        x = reference_signal(cfg, mat.n, k, trial)
        assert tuple(supports[row].tolist()) == x.support
        assert values[row].tobytes() == x.values.tobytes()
        assert ys[row].tobytes() == (mat.data @ x.dense()).tobytes()


def test_unit_amplitude_draws_on_the_7x14_etf_tie_at_the_top():
    # README's "Ties" bullet: on criterion 12's draws the two largest first-pick
    # correlations of 306 trials differ by rounding alone, well inside TIE_TOL ||y||,
    # so the tie rule, not the evaluation order, picks among them
    cfg = golden_configs()["criterion12_etf14_k3"]
    mat = matrices.from_spec(**cfg.matrix)
    supports, values = experiments.draw_trials(cfg, mat.n, 3, range(cfg.trials))
    ys = recovery.measure_batch(mat, supports, values)
    top = np.sort(np.abs([recovery.back_project(mat, y) for y in ys]), axis=1)[:, -2:]
    gaps = top[:, 1] - top[:, 0]
    tied = gaps <= recovery.TIE_TOL * np.linalg.norm(ys, axis=1)
    assert int(tied.sum()) == 306
    assert gaps[tied].max() <= 1e-14 and gaps[~tied].min() > 0.5


# bounds 2**31 + 1 and 3 * 2**30 reject about half and a quarter of first draws,
# 1 draws nothing, 2**32 - 1 and 2**32 are the last of 32-bit Lemire
STREAM_BOUNDS = (1, 2, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


@st.composite
def generator_programs(draw):
    """(groups, bounds, count): one or two groups of rows of 32-bit entropy words, each
    group's own length, up to past the 4-word pool; a (T, k) list of bounds for the
    integers of each row; the count of its random doubles."""
    groups = []
    for length in draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)):
        words = st.lists(st.integers(0, 2**32 - 1), min_size=length, max_size=length)
        groups.append(np.array(draw(st.lists(words, min_size=1, max_size=4)), dtype=np.uint32))
    k = draw(st.integers(1, 5))
    row = st.lists(st.sampled_from(STREAM_BOUNDS), min_size=k, max_size=k)
    total = sum(map(len, groups))
    return groups, draw(st.lists(row, min_size=total, max_size=total)), draw(st.integers(0, 3))


ONE_WORD_ROWS = [np.array([[0], [1], [3], [4], [5], [9]], dtype=np.uint32)]
# on these rows, rows 0 and 2 reject their first draw, rows 1, 3 and 4 do not,
# row 5 draws nothing; then the rows disagree on a half left over, which random skips
MIXED_BOUNDS = [[2**31 + 1, 2**32], [2**31 + 1, 2], [3 * 2**30, 2**32 - 1], [3 * 2**30, 1], [2, 3 * 2**30], [1, 2]]


@settings(max_examples=200, deadline=None)
@given(generator_programs())
# draws after bound-1 draws, which consume nothing
@example((ONE_WORD_ROWS, [[1, 2**32, 1, 3 * 2**30, 1]] * 6, 2))
@example((ONE_WORD_ROWS, MIXED_BOUNDS, 3))
def test_generator_draws_are_numpys(program):
    groups, bounds, count = program
    ints, doubles = _stream.generator_draws(groups, bounds, count)
    generators = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(row))) for words in groups for row in words]
    assert ints.tolist() == [[int(rng.integers(b)) for b in row] for rng, row in zip(generators, bounds)]
    assert doubles.tobytes() == np.array([rng.random(count) for rng in generators]).tobytes()


@pytest.mark.parametrize("bounds", [[0], [2**32 + 1], [2, 2**33], [[2], [2**32 + 1]]])
def test_generator_draws_refuse_bounds_beyond_32_bit_lemire(bounds):
    # above 2**32 numpy's integers switches to 64-bit Lemire, which generator_draws does not copy
    with pytest.raises(ValueError):
        _stream.generator_draws([np.zeros((2, 3), dtype=np.uint32)], bounds, 0)


def outcomes(pursuit):
    """Each trial's pursuit.result(t), or the RankDeficientError it raises."""
    out = []
    for t in range(len(pursuit.first_picks)):
        try:
            out.append(pursuit.result(t))
        except RankDeficientError as exc:
            out.append(exc)
    return out


def tally_by_trial(cfg):
    """run_experiment's rows counted one trial at a time: the reference for the batch tally."""
    mat = matrices.from_spec(**cfg.matrix)
    rows = []
    for k, slices in itertools.groupby(experiments.trial_outcomes(cfg, mat), key=lambda outcome: outcome[0]):
        first_hits = 0
        exact_hits = 0
        iteration_sum = 0
        for _, supports, values, pursuit in slices:
            for support, x_values, first, result in zip(
                supports.tolist(), values, pursuit.first_picks.tolist(), outcomes(pursuit)
            ):
                x = recovery.SparseSignal(mat.n, tuple(support), x_values)
                first_hits += first in x.support
                if isinstance(result, RankDeficientError):
                    iteration_sum += mat.m
                    continue
                iteration_sum += result.iterations
                if tuple(sorted(result.support)) == x.support:
                    order = np.argsort(result.support)
                    err = float(np.linalg.norm(result.values[order] - x.values))
                    if err <= experiments.VALUE_MATCH_RTOL * float(np.linalg.norm(x.values)):
                        exact_hits += 1
        rows.append(
            experiments.ExperimentRow(
                k=k,
                trials=cfg.trials,
                first_pick_correct_rate=first_hits / cfg.trials,
                exact_recovery_rate=exact_hits / cfg.trials,
                mean_iterations=iteration_sum / cfg.trials,
            )
        )
    return rows


def early_stop_config():
    # a relative epsilon loose enough that trials beyond the certificate stop
    # at different steps
    return experiments.ExperimentConfig(
        matrix={"family": "etf", "m": 15, "n": 30},
        k_range=(3, 5),
        trials=40,
        amplitude_model=experiments.AMPLITUDE_RANDOM,
        seed=3,
        epsilon=0.2,
    )


TALLY_CASES = {
    **golden_configs(),
    "duplicate_columns": duplicate_columns_config(),
    "early_stop": early_stop_config(),
    "k_up_to_m": etf14_config(k_range=(6, 7), trials=30),
}


@pytest.mark.parametrize("rank_deficient", [False, True])
@pytest.mark.parametrize("name", sorted(TALLY_CASES))
def test_batch_tally_matches_the_per_trial_tally(name, rank_deficient):
    # rank_deficient: no pivot clears an infinite rank tolerance, so every
    # trial raises at its first step and counts m iterations
    cfg = TALLY_CASES[name]
    patch = mock.patch.object(numerics, "rank_tolerance", return_value=np.inf)
    with patch if rank_deficient else contextlib.nullcontext():
        assert experiments.run_experiment(cfg).rows == tally_by_trial(cfg)


@pytest.mark.parametrize(
    "batch_bytes", [1, 3 * recovery.step_bytes(matrices.from_spec(**early_stop_config().matrix)), experiments.BATCH_BYTES]
)
def test_report_does_not_depend_on_the_batch_size(batch_bytes):
    cfg = early_stop_config()
    expected = tally_by_trial(cfg)
    with mock.patch.object(experiments, "BATCH_BYTES", batch_bytes):
        assert experiments.run_experiment(cfg).rows == expected


FIG3_SPEC = {"family": "partial-dft", "n": 16, "rows": list(cli.figure_scenario("fig3")[0].meta["rows"])}


@pytest.mark.parametrize(
    "cfg, sizes",
    [
        # the benchmark's montecarlo configs: no two of their slices fit one batch,
        # so each batch is one slice. The 500-trial 15x30 guarantee suite: 273
        # trials fit a batch (136 in 128 KiB)
        (
            experiments.ExperimentConfig(
                matrix={"family": "etf", "m": 15, "n": 30},
                k_range=(1, 3),
                trials=500,
                amplitude_model=experiments.AMPLITUDE_RANDOM,
                seed=20260810,
            ),
            [273, 227] * 3,
        ),
        # the 7x14 guarantee suite: 585 trials fit a batch, so each k is one
        (etf14_config(trials=500, seed=20260810), [500] * 2),
        # fig3's 12x16 partial DFT: 409 trials fit a batch
        (
            experiments.ExperimentConfig(
                matrix=FIG3_SPEC,
                k_range=(1, 2),
                trials=500,
                amplitude_model=experiments.AMPLITUDE_RANDOM,
                seed=20260810,
            ),
            [409, 91] * 2,
        ),
        # the benchmark's long pursuits: 10 trials fit a batch, so the 4-trial
        # slices of two k share one
        (
            experiments.ExperimentConfig(
                matrix={"family": "partial-dft", "m": 256, "n": 1024, "seed": 0},
                k_range=(16, 40),
                trials=4,
                amplitude_model=experiments.AMPLITUDE_RANDOM,
            ),
            [8] * 12 + [4],
        ),
    ],
    ids=["etf30_guarantee", "etf14_guarantee", "fig3_guarantee", "dft1024"],
)
def test_batches_per_k_follow_the_batch_budget(cfg, sizes):
    with mock.patch.object(recovery, "pursue_batch", wraps=recovery.pursue_batch) as spy:
        report = experiments.run_experiment(cfg)
    assert [len(call.args[1]) for call in spy.call_args_list] == sizes
    assert report.rows == experiments.run_experiment(cfg).rows


SHARED_BATCH_MATRICES = {
    "etf14": etf14_config().matrix,
    "fig3": FIG3_SPEC,
    "duplicate_columns": duplicate_columns_config().matrix,
}


@st.composite
def shared_batch_cases(draw):
    """A config on a SHARED_BATCH_MATRICES entry and a per_batch that fits 1 to 3 of its slices."""
    spec = SHARED_BATCH_MATRICES[draw(st.sampled_from(sorted(SHARED_BATCH_MATRICES)))]
    m = matrices.from_spec(**spec).m
    lo = draw(st.integers(1, m))
    trials = draw(st.integers(1, 12))
    cfg = experiments.ExperimentConfig(
        matrix=spec,
        k_range=(lo, draw(st.integers(lo, m))),
        trials=trials,
        amplitude_model=draw(st.sampled_from(experiments.AMPLITUDE_MODELS)),
        seed=draw(st.integers(0, 2**32)),
    )
    # below trials, each k takes two slices or more and no batch holds two k;
    # from trials * s on, each k is one slice and s of them share a batch
    return cfg, draw(st.integers(1, 4 * trials - 1)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(shared_batch_cases())
@example((etf14_config(k_range=(1, 7), trials=6), 14, True))
@example((dataclasses.replace(duplicate_columns_config(), k_range=(1, 8), trials=12), 36, False))
def test_batches_shared_across_k_tally_as_each_trial_alone(case):
    # strict: a rank tolerance of 0.7 sigma_max makes the trials whose picks
    # are far from orthogonal raise, so a shared batch holds trials that raise
    # beside trials that return, in slices of several k
    cfg, per_batch, strict = case
    mat = matrices.from_spec(**cfg.matrix)
    tolerance = mock.patch.object(numerics, "rank_tolerance", side_effect=lambda shape, s_max: 0.7 * s_max)
    with tolerance if strict else contextlib.nullcontext():
        with mock.patch.object(experiments, "BATCH_BYTES", 1):  # every trial a batch of its own
            expected = tally_by_trial(cfg)
        batch_bytes = per_batch * recovery.step_bytes(mat)
        with mock.patch.object(experiments, "BATCH_BYTES", batch_bytes):
            with mock.patch.object(recovery, "pursue_batch", wraps=recovery.pursue_batch) as spy:
                assert experiments.run_experiment(cfg).rows == expected
    sizes = [len(call.args[1]) for call in spy.call_args_list]
    lo, hi = cfg.k_range
    assert sum(sizes) == cfg.trials * (hi - lo + 1) and max(sizes) <= per_batch
    # one k holds cfg.trials rows, so a larger batch holds two k
    assert (max(sizes) > cfg.trials) == (hi > lo and per_batch >= 2 * cfg.trials)
