from unittest import mock

import numpy as np
import pytest

from csense import experiments, matrices, recovery
from csense.errors import RankDeficientError


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
    assert a.to_dict() == b.to_dict()


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
    once = experiments.run_experiment(cfg).to_dict()
    again = experiments.run_experiment(cfg).to_dict()
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
    assert cfg.to_dict()["k_range"] == [1, 2]


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
    assert [s.to_dict() for s in a] == [s.to_dict() for s in b]


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        experiments.sweep_partial_dft_subsets(8, 9, 10, seed=0)
    with pytest.raises(ValueError):
        experiments.sweep_partial_dft_subsets(8, 4, 0, seed=0)


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
    # a rank-deficient run returns no support; its first pick is recomputed by
    # the pursuit's own rule and must match what the returned runs report
    returned = experiments.run_experiment(cfg)
    with mock.patch.object(recovery, "matching_pursuit", side_effect=RankDeficientError("dependent")):
        raised = experiments.run_experiment(cfg)
    m = matrices.from_spec(**cfg.matrix).m
    for got, expected in zip(raised.rows, returned.rows):
        assert got.first_pick_correct_rate == expected.first_pick_correct_rate
        assert got.exact_recovery_rate == 0.0
        assert got.mean_iterations == m
