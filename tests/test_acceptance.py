"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; a failed assertion is the corresponding FAIL.
"""
import itertools
import json
import math
import time

import numpy as np

from csense import coherence, experiments, matrices, numerics, recovery
from csense.cli import figure_scenario
from csense.serialization import to_dict

MU14 = 1.0 / math.sqrt(13.0)
MU30 = 1.0 / math.sqrt(29.0)


def _ok(num, message):
    print(f"criterion {num:2d} PASS: {message}")


def test_criterion_01_etf_7x14_coherence():
    start = time.perf_counter()
    mat = matrices.build_etf(7, 14)
    rep = coherence.coherence_index(mat)
    elapsed = time.perf_counter() - start
    assert abs(rep.mu - 0.277350) <= 1e-6
    assert abs(rep.mu - matrices.welch_bound(7, 14)) <= 1e-12
    g = numerics.gram(mat.data)
    off = np.abs(g[~np.eye(14, dtype=bool)])
    assert np.max(off) - np.min(off) <= 1e-9
    assert elapsed < 1.0
    _ok(1, f"7x14 ETF mu={rep.mu:.6f} equals the Welch bound, spread<=1e-9, {elapsed:.3f}s")


def test_criterion_02_etf_15x30_coherence():
    start = time.perf_counter()
    mat = matrices.build_etf(15, 30)
    rep = coherence.coherence_index(mat)
    elapsed = time.perf_counter() - start
    assert abs(rep.mu - 0.185695) <= 1e-6
    assert abs(rep.mu - 1.0 / math.sqrt(29.0)) <= 1e-12
    assert rep.k_max == 3
    assert abs(rep.bound_value - 3.1925) <= 1e-4
    assert elapsed < 1.0
    _ok(2, f"15x30 ETF mu={rep.mu:.6f}, k_max=3, bound={rep.bound_value:.4f}, {elapsed:.3f}s")


def test_criterion_03_sparsity_bound():
    assert coherence.max_sparsity(0.2774) == 2
    # the quoted bound value corresponds to the exact ETF coherence 1/sqrt(13)
    bound = coherence.sparsity_bound(MU14)
    assert abs(bound - 2.3027) <= 1e-4
    assert coherence.max_sparsity(MU14) == 2
    _ok(3, f"max_sparsity=2 with bound {bound:.4f}")


def test_criterion_04_margin_numbers():
    rep = recovery.worst_case_margin(MU14, 2)
    assert abs(rep.signal_floor - 0.72265) <= 1e-5
    assert abs(rep.disturbance_ceiling - 0.55470) <= 1e-5
    assert rep.detectable
    assert not recovery.worst_case_margin(MU14, 3).detectable
    _ok(4, f"floor={rep.signal_floor:.5f}, ceiling={rep.disturbance_ceiling:.5f}, k=3 undetectable")


def test_criterion_05_two_sparse_end_to_end():
    mat = matrices.build_etf(7, 14)
    x = recovery.SparseSignal(14, (2, 7), np.ones(2, dtype=complex))
    result = recovery.matching_pursuit(mat, recovery.measure(mat, x))
    assert tuple(sorted(result.support)) == (2, 7)
    order = np.argsort(result.support)
    assert np.max(np.abs(result.values[order] - 1.0)) <= 1e-8
    assert result.residual_norm < 1e-10
    assert result.iterations == 2
    _ok(5, f"pursuit returned {{2,7}} in 2 iterations, residual {result.residual_norm:.2e}")


def test_criterion_06_three_sparse_end_to_end():
    mat = matrices.build_etf(15, 30)
    x = recovery.SparseSignal(30, (2, 5, 19), np.ones(3, dtype=complex))
    result = recovery.matching_pursuit(mat, recovery.measure(mat, x))
    assert tuple(sorted(result.support)) == (2, 5, 19)
    order = np.argsort(result.support)
    assert np.max(np.abs(result.values[order] - 1.0)) <= 1e-8
    assert result.residual_norm < 1e-10
    assert result.iterations == 3
    _ok(6, "pursuit returned {2,5,19} in 3 iterations")


def test_criterion_07_non_unique_one_sparse():
    mat = matrices.build_partial_dft(8, (0, 2, 4, 6))
    x = recovery.SparseSignal(8, (0,), np.ones(1, dtype=complex))
    y = recovery.measure(mat, x)
    solutions = recovery.exhaustive_l0_search(mat, y, 1, 1e-8).solutions
    assert [s.support for s in solutions] == [(0,), (4,)]
    scan = coherence.uniqueness_rank_scan(mat, 1)
    assert not scan.all_full_rank
    assert scan.witness == (0, 4)
    _ok(7, "exhaustive search found exactly {0} and {4}; rank-scan witness (0, 4)")


def test_criterion_08_guarantee_suite():
    start = time.perf_counter()
    shipped = [
        {"family": "etf", "m": 7, "n": 14},
        {"family": "etf", "m": 15, "n": 30},
    ]
    fig3, _ = figure_scenario("fig3")
    specs = shipped + [{"family": "partial-dft", "n": 16, "rows": list(fig3.meta["rows"])}]
    total_trials = 0
    for spec in specs:
        mat = matrices.from_spec(**spec)
        k_max = coherence.coherence_index(mat).k_max
        cfg = experiments.ExperimentConfig(
            matrix=spec,
            k_range=(1, k_max),
            trials=500,
            amplitude_model=experiments.AMPLITUDE_RANDOM,
            seed=20260810,
        )
        report = experiments.run_experiment(cfg)
        for row in report.rows:
            assert row.exact_recovery_rate == 1.0, f"failure at {spec} k={row.k}"
            total_trials += row.trials
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(8, f"{total_trials} certified-regime trials, zero failures, {elapsed:.1f}s")


def test_criterion_09_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(905)
    checked = 0
    while checked < 100:
        n = int(rng.integers(8, 17))
        m = int(rng.integers(6, min(12, n) + 1))
        mat = matrices.build_gaussian(m, n, seed=int(rng.integers(1 << 31)))
        k_max = coherence.coherence_index(mat).k_max
        if k_max is None:
            k_max = 2
        if k_max < 1:
            continue
        k = min(2, k_max)
        support = matrices.draw_without_replacement(rng, n, k)
        mags = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=k))
        values = mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=k))
        x = recovery.SparseSignal(n, support, values)
        y = recovery.measure(mat, x)
        solutions = recovery.exhaustive_l0_search(mat, y, k, 1e-8).solutions
        minimal_size = len(solutions[0].support)
        minimal = [s for s in solutions if len(s.support) == minimal_size]
        assert len(minimal) == 1
        pursuit = recovery.matching_pursuit(mat, y)
        assert tuple(sorted(pursuit.support)) == minimal[0].support == support
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(9, f"100 instances: unique minimal support always matched the pursuit, {elapsed:.1f}s")


def test_criterion_10_rip_identities():
    fig3, _ = figure_scenario("fig3")
    for mat in (matrices.build_etf(7, 14), matrices.build_etf(15, 30), fig3):
        mu = coherence.coherence_index(mat).mu
        assert abs(coherence.rip_constant(mat, 2).delta - mu) <= 1e-10
    full = matrices.build_partial_dft(8, tuple(range(8)))
    for k in (1, 2, 3, 4):
        assert coherence.rip_constant(full, k).delta <= 1e-10
    _ok(10, "pairwise RIP equals mu on all shipped matrices; orthonormal RIP is 0 up to k=4")


def test_criterion_11_subsampling_identity_gram():
    rows = matrices.build_subsampling_rows(16, 4)
    mat = matrices.build_partial_dft(16, rows)
    g = numerics.gram(mat.data[:, :4])
    assert np.max(np.abs(g - np.eye(4))) <= 1e-12
    _ok(11, "subsampled rows restricted to the first 4 columns give an identity Gram")


def test_criterion_12_conservativeness_recorded(tmp_path):
    cfg = experiments.ExperimentConfig(
        matrix={"family": "etf", "m": 7, "n": 14},
        k_range=(3, 3),
        trials=500,
        amplitude_model=experiments.AMPLITUDE_UNIT_EQUAL,
        seed=424242,
    )
    report = experiments.run_experiment(cfg)
    rate = report.rows[0].exact_recovery_rate
    assert 0.0 < rate < 1.0
    again = experiments.run_experiment(cfg)
    assert to_dict(report) == to_dict(again)
    artifact = tmp_path / "beyond_certificate_report.json"
    artifact.write_text(json.dumps({"config": to_dict(cfg), "report": to_dict(report)}, indent=2))
    assert artifact.exists()
    _ok(12, f"k=3 recovery rate {rate:.3f} is strictly inside (0, 1) and reproducible")
