import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csense import matrices, numerics, recovery
from csense.coherence import max_sparsity
from csense.errors import DimensionMismatchError, RankDeficientError

MU14 = 1.0 / math.sqrt(13.0)
MU30 = 1.0 / math.sqrt(29.0)


def unit_signal(n, support):
    return recovery.SparseSignal(n, support, np.ones(len(support), dtype=complex))


# -------------------------------------------------------------- SparseSignal


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        recovery.SparseSignal(8, (), np.zeros(0, dtype=complex))  # k = 0 rejected
    with pytest.raises(ValueError):
        recovery.SparseSignal(8, (3, 3), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        recovery.SparseSignal(8, (5, 2), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        recovery.SparseSignal(8, (0, 8), np.ones(2, dtype=complex))
    with pytest.raises(ValueError):
        recovery.SparseSignal(8, (0, 1), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        recovery.SparseSignal(8, (0, 1), np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="support indices must be whole numbers"):
        recovery.SparseSignal(8, ["a"], np.ones(1, dtype=complex))


def test_sparse_signal_dense():
    x = recovery.SparseSignal(5, (1, 3), np.array([2.0, 1j]))
    dense = x.dense()
    assert dense.shape == (5,)
    assert dense[1] == 2.0 and dense[3] == 1j
    assert dense[0] == dense[2] == dense[4] == 0.0
    assert x.k == 2


def test_sparse_signal_is_frozen_and_holds_its_own_values():
    v = np.array([2.0, 1j])
    x = recovery.SparseSignal(5, (1, 3), v)
    assert not np.shares_memory(x.values, v) and not x.values.flags.writeable
    v[0] = 0.0
    assert x.values[0] == 2.0
    with pytest.raises(ValueError):
        x.values[0] = 0.0
    for name, value in (("support", (9,)), ("n", 9), ("values", v)):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, value)
    assert x.support == (1, 3) and x.n == 5


# ------------------------------------------------------------------- measure


def test_measure_single_column(full_dft8):
    y = recovery.measure(full_dft8, unit_signal(8, (0,)))
    assert np.max(np.abs(y - full_dft8.data[:, 0])) < 1e-15


def test_measure_pair_energy_bounds(etf14):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    energy = float(np.linalg.norm(y)) ** 2
    assert 2.0 - 2.0 * MU14 - 1e-12 <= energy <= 2.0 + 2.0 * MU14 + 1e-12


def test_measure_linearity(etf14):
    x1 = recovery.SparseSignal(14, (1, 4), np.array([1.0 + 1j, -2.0]))
    x2 = recovery.SparseSignal(14, (4, 9), np.array([0.5j, 3.0]))
    lhs = recovery.measure(etf14, x1) + recovery.measure(etf14, x2)
    combined = x1.dense() + x2.dense()
    rhs = etf14.data @ combined
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_measure_dimension_mismatch(etf14):
    with pytest.raises(DimensionMismatchError):
        recovery.measure(etf14, unit_signal(8, (0,)))


# -------------------------------------------------------------- back_project


def test_back_project_orthonormal_is_identity(full_dft8):
    x = recovery.SparseSignal(8, (1, 6), np.array([2.0, -1j]))
    x0 = recovery.back_project(full_dft8, recovery.measure(full_dft8, x))
    assert np.max(np.abs(x0 - x.dense())) < 1e-12


def test_back_project_single_source_profile(etf14):
    x0 = recovery.back_project(etf14, recovery.measure(etf14, unit_signal(14, (2,))))
    mags = np.abs(x0)
    assert mags[2] == pytest.approx(1.0, abs=1e-12)
    others = np.delete(mags, 2)
    assert np.max(np.abs(others - MU14)) < 1e-12


def test_back_project_pair_margins(etf14):
    x0 = recovery.back_project(etf14, recovery.measure(etf14, unit_signal(14, (2, 7))))
    mags = np.abs(x0)
    assert min(mags[2], mags[7]) >= 1.0 - MU14 - 1e-12
    off = np.delete(mags, [2, 7])
    assert np.max(off) <= 2.0 * MU14 + 1e-12


def test_back_project_dimension_mismatch(etf14):
    with pytest.raises(DimensionMismatchError):
        recovery.back_project(etf14, np.ones(6))
    with pytest.raises(ValueError, match="non-empty"):
        recovery.back_project(etf14, [])


# ---------------------------------------------------------------- decompose


def test_decompose_single_component_equals_estimate(etf14):
    x = unit_signal(14, (5,))
    est = recovery.decompose_initial_estimate(etf14, x)
    assert est.components.shape == (14, 1)
    assert np.max(np.abs(est.components[:, 0] - est.x0)) < 1e-14


def test_decompose_pair_structure(etf14):
    est = recovery.decompose_initial_estimate(etf14, unit_signal(14, (2, 7)))
    assert abs(abs(est.components[2, 0]) - 1.0) < 1e-12
    assert abs(abs(est.components[2, 1]) - MU14) < 1e-12
    assert abs(abs(est.components[7, 1]) - 1.0) < 1e-12
    assert abs(abs(est.components[7, 0]) - MU14) < 1e-12


def test_decompose_triple_structure(etf30):
    est = recovery.decompose_initial_estimate(etf30, unit_signal(30, (2, 5, 19)))
    assert est.components.shape == (30, 3)
    for i, idx in enumerate((2, 5, 19)):
        col = np.abs(est.components[:, i])
        assert col[idx] == pytest.approx(1.0, abs=1e-12)
        rest = np.delete(col, idx)
        assert np.max(np.abs(rest - MU30)) < 1e-12


def test_decompose_sums_to_back_projection(etf30):
    x = recovery.SparseSignal(30, (2, 5, 19), np.array([1.0, -2.0j, 0.5 + 0.5j]))
    est = recovery.decompose_initial_estimate(etf30, x)
    x0 = recovery.back_project(etf30, recovery.measure(etf30, x))
    assert np.max(np.abs(est.components.sum(axis=1) - x0)) < 1e-12
    assert np.array_equal(est.components.sum(axis=1), est.x0)


def test_decompose_computes_k_gram_columns_and_caches_no_gram(etf30):
    mat = matrices.MeasurementMatrix(etf30.data, "custom")
    x = recovery.SparseSignal(30, (2, 5, 19), np.array([1.0, -2.0j, 0.5 + 0.5j]))
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        est = recovery.decompose_initial_estimate(mat, x)
    assert gram.call_count == 0
    assert np.max(np.abs(est.components - numerics.gram(mat.data)[:, [2, 5, 19]] * x.values)) < 1e-14


# --------------------------------------------------- known-support recovery


def test_ls_recover_inverse_crime(etf14):
    x = recovery.SparseSignal(14, (2, 7), np.array([1.5, -0.5j]))
    y = recovery.measure(etf14, x)
    got = recovery.ls_recover_known_support(etf14, (2, 7), y)
    assert got.support == (2, 7)
    assert np.max(np.abs(got.values - x.values)) < 1e-10


def test_ls_recover_duplicate_columns(even_rows_dft8):
    y = recovery.measure(even_rows_dft8, unit_signal(8, (0,)))
    with pytest.raises(RankDeficientError):
        recovery.ls_recover_known_support(even_rows_dft8, (0, 4), y)


def test_ls_recover_prunes_exact_zeros(etf14):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    got = recovery.ls_recover_known_support(etf14, (2, 7, 11), y)
    assert got.support == (2, 7)
    assert np.max(np.abs(got.values - 1.0)) < 1e-9
    with pytest.raises(ValueError, match="every fitted value is numerically zero"):
        recovery.ls_recover_known_support(etf14, (0, 1), np.zeros(7))  # all pruned, nothing to return


@pytest.mark.parametrize("scale", [2.0**20, 2.0**40, 2.0**60])
def test_ls_recover_prunes_at_every_scale(etf14, scale):
    # the zero test is relative to ||y||, so c * y prunes the same indices
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    base = recovery.ls_recover_known_support(etf14, (2, 7, 11), y)
    got = recovery.ls_recover_known_support(etf14, (2, 7, 11), scale * y)
    assert got.support == base.support == (2, 7)
    assert np.array_equal(got.values, scale * base.values)


@pytest.mark.parametrize("name, support", [("etf14", (2, 7)), ("etf30", (2, 5, 19)), ("gaussian", (0, 4, 6))])
def test_ls_recover_values_are_the_oracles(request, name, support):
    # one fit: the oracle's solution for a support has the known-support fit's values, bit for bit
    mat = matrices.build_gaussian(6, 9, seed=5) if name == "gaussian" else request.getfixturevalue(name)
    x = recovery.SparseSignal(mat.n, support, np.array([1.5, -0.5j, 0.25 + 2j][: len(support)]))
    y = recovery.measure(mat, x)
    solutions = recovery.exhaustive_l0_search(mat, y, len(support)).solutions
    (oracle,) = [s for s in solutions if s.support == support]
    got = recovery.ls_recover_known_support(mat, support, y)
    assert got.support == support
    assert np.array_equal(got.values, oracle.values)


@pytest.mark.parametrize(
    "support, message",
    [
        ((7, 2), "strictly increasing"),
        ((2, 2), "strictly increasing"),
        ((0, 14), r"lie in \[0, 14\)"),
        ((-1, 2), r"lie in \[0, 14\)"),
        ((), "support size"),
        (tuple(range(8)), "support size"),
    ],
)
def test_ls_recover_rejects_bad_supports(etf14, support, message):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    with pytest.raises(ValueError, match=message):
        recovery.ls_recover_known_support(etf14, support, y)


# ---------------------------------------------------------- matching pursuit


def test_pursuit_single_column(etf14):
    result = recovery.matching_pursuit(etf14, etf14.data[:, 3])
    assert result.support == (3,)
    assert result.iterations == 1
    assert result.converged
    assert abs(result.values[0] - 1.0) < 1e-12
    assert result.residual_norm < 1e-12


def test_pursuit_two_sparse_scenario(etf14):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    result = recovery.matching_pursuit(etf14, y)
    assert tuple(sorted(result.support)) == (2, 7)
    assert result.iterations == 2
    assert result.converged
    assert np.max(np.abs(result.values - 1.0)) < 1e-8
    assert result.residual_norm < 1e-10


def test_pursuit_three_sparse_scenario(etf30):
    y = recovery.measure(etf30, unit_signal(30, (2, 5, 19)))
    result = recovery.matching_pursuit(etf30, y)
    assert tuple(sorted(result.support)) == (2, 5, 19)
    assert result.iterations == 3
    order = np.argsort(result.support)
    assert np.max(np.abs(result.values[order] - 1.0)) < 1e-8


def test_pursuit_trace_and_orthogonality(etf30, rng):
    for _ in range(10):
        support = tuple(sorted(rng.choice(30, size=3, replace=False)))
        values = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        x = recovery.SparseSignal(30, support, values)
        y = recovery.measure(etf30, x)
        result = recovery.matching_pursuit(etf30, y)
        assert len(set(result.support)) == len(result.support)
        assert all(b < a for a, b in zip(result.residual_trace, result.residual_trace[1:]))
        sub = etf30.data[:, list(result.support)]
        resid = y - sub @ result.values
        assert np.max(np.abs(sub.conj().T @ resid)) <= 1e-8 * np.linalg.norm(y)


def test_pursuit_guaranteed_recovery_all_small_supports(etf14):
    # inside the certified regime (k <= 2 here) recovery is exact for every
    # support, not just on average; enumerate all of them
    import itertools

    for k in (1, 2):
        for support in itertools.combinations(range(14), k):
            x = unit_signal(14, support)
            result = recovery.matching_pursuit(etf14, recovery.measure(etf14, x))
            assert tuple(sorted(result.support)) == support
            assert result.converged
            assert np.max(np.abs(result.values - 1.0)) < 1e-8


def test_back_projection_detects_every_pair(etf14):
    # unit-amplitude pairs: the smallest on-support bar always clears the
    # largest off-support bar when k <= k_max
    import itertools

    for support in itertools.combinations(range(14), 2):
        x0 = recovery.back_project(etf14, recovery.measure(etf14, unit_signal(14, support)))
        mags = np.abs(x0)
        on = mags[list(support)]
        off = np.delete(mags, list(support))
        assert np.min(on) > np.max(off)


def test_pursuit_hits_iteration_cap(etf14):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    result = recovery.matching_pursuit(etf14, y, max_iter=1)
    assert not result.converged
    assert result.iterations == 1
    assert result.residual_norm > 0.5


def test_pursuit_absolute_vs_relative_epsilon(etf14):
    y = 1e-3 * etf14.data[:, 0]
    loose = recovery.matching_pursuit(etf14, y, epsilon=1.0)
    assert loose.converged and loose.iterations == 0
    tight = recovery.matching_pursuit(etf14, y, epsilon=1e-2)
    assert tight.iterations == 1


def test_pursuit_stalls_outside_column_span():
    # both columns identical: the residual component off their span never shrinks
    data = np.column_stack([[1.0, 0.0], [1.0, 0.0]])
    mat = matrices.MeasurementMatrix(data, "custom")
    result = recovery.matching_pursuit(mat, np.array([0.0, 1.0]), max_iter=2)
    assert not result.converged
    assert result.iterations == 1


def test_pursuit_trace_holds_still_on_a_zero_correlation_pick():
    # after e2 the residual e3 is orthogonal to every column, so index 0 wins
    # the all-zero tie, fits to 0 and leaves the residual where it was
    data = np.column_stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1 / math.sqrt(2), 1 / math.sqrt(2), 0.0]])
    mat = matrices.MeasurementMatrix(data, "custom")
    result = recovery.matching_pursuit(mat, np.array([0.0, 1.0, 1.0]))
    assert result.support == (1, 0)
    assert result.values.tolist() == [1, 0]
    assert result.residual_trace == (1.0, 1.0)
    assert not result.converged


def test_pursuit_validates_arguments(etf14):
    with pytest.raises(ValueError):
        recovery.matching_pursuit(etf14, np.ones(7), epsilon=0.0)
    with pytest.raises(ValueError):
        recovery.matching_pursuit(etf14, np.ones(7), max_iter=0)
    with pytest.raises(ValueError, match=r"max_iter must be in \[1, 7\], got 8"):
        recovery.matching_pursuit(etf14, np.ones(7), max_iter=8)
    with pytest.raises(DimensionMismatchError):
        recovery.matching_pursuit(etf14, np.ones(6))


# ------------------------------------------------------- exhaustive search


def test_exhaustive_single_column_unique(etf14):
    sols = recovery.exhaustive_l0_search(etf14, etf14.data[:, 3], 1, 1e-6).solutions
    assert [s.support for s in sols] == [(3,)]
    assert abs(sols[0].values[0] - 1.0) < 1e-10


def test_exhaustive_prunes_padded_supports(etf14):
    # with k_max=2 the only surviving explanation of a 1-sparse y is still {3}
    sols = recovery.exhaustive_l0_search(etf14, etf14.data[:, 3], 2, 1e-6).solutions
    assert [s.support for s in sols] == [(3,)]


def test_exhaustive_reports_non_uniqueness(even_rows_dft8):
    y = recovery.measure(even_rows_dft8, unit_signal(8, (0,)))
    sols = recovery.exhaustive_l0_search(even_rows_dft8, y, 1, 1e-8).solutions
    assert [s.support for s in sols] == [(0,), (4,)]
    for s in sols:
        assert abs(s.values[0] - 1.0) < 1e-10


def test_exhaustive_zero_measurements(etf14):
    # y = 0 is explained by the empty support alone, the one the pursuit stops at
    report = recovery.exhaustive_l0_search(etf14, np.zeros(7), 2, 1e-8)
    assert [(s.support, s.values.shape, s.residual) for s in report.solutions] == [((), (0,), 0.0)]
    assert (report.scanned, report.total, report.complete) == (105, 105, True)  # 14 + 91 non-empty supports


def test_exhaustive_lists_the_empty_support_where_the_pursuit_stops(etf14):
    # ||y|| <= epsilon * ||y||: the pursuit picks nothing, and the empty support comes first
    y = etf14.data[:, 3]
    for epsilon in (1.0, 2.0):
        assert recovery.matching_pursuit(etf14, y, epsilon).support == ()
        sols = recovery.exhaustive_l0_search(etf14, y, 1, epsilon).solutions
        assert [s.support for s in sols] == [()] + [(i,) for i in range(14)]
        assert sols[0].residual == float(np.linalg.norm(y))
    sols = recovery.exhaustive_l0_search(etf14, y, 1, 0.999).solutions
    assert [s.support for s in sols] == [(i,) for i in range(14)]


def test_exhaustive_budget(etf14):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    sols = recovery.exhaustive_l0_search(etf14, y, 2, 1e-8, max_subsets=10).solutions
    assert sols == []  # truncated before reaching any consistent support


def test_exhaustive_validates_arguments(etf14):
    with pytest.raises(ValueError):
        recovery.exhaustive_l0_search(etf14, np.ones(7), 0, 1e-8)
    with pytest.raises(ValueError):
        recovery.exhaustive_l0_search(etf14, np.ones(7), 1, 0.0)


# --------------------------------------------------------- margin arithmetic


def test_margin_pair_regime():
    rep = recovery.worst_case_margin(0.2774, 2)
    assert rep.signal_floor == pytest.approx(0.7226, abs=1e-4)
    assert rep.disturbance_ceiling == pytest.approx(0.5548, abs=1e-4)
    assert rep.detectable


def test_margin_triple_regimes():
    too_coherent = recovery.worst_case_margin(0.2774, 3)
    assert not too_coherent.detectable
    assert too_coherent.disturbance_ceiling == pytest.approx(3 * 0.2774, abs=1e-12)
    relaxed = recovery.worst_case_margin(0.1857, 3)
    assert relaxed.detectable
    assert relaxed.signal_floor == pytest.approx(1 - 2 * 0.1857, abs=1e-12)


def certified_by_fractions(mu):
    """Oracle: the largest integer K strictly below (1 + 1/mu)/2, in exact rational arithmetic."""
    if mu == 0.0:
        return None
    bound = (1 + 1 / Fraction(mu)) / 2
    k = math.ceil(bound) - 1
    assert (2 * k - 1) * Fraction(mu) < 1 <= (2 * k + 1) * Fraction(mu)
    return k


def check_certificate(mu):
    k_max = certified_by_fractions(mu)
    assert max_sparsity(mu) == k_max
    ks = list(range(1, 7))
    if k_max is not None and k_max < 2**53:
        ks += [k_max, k_max + 1]
    for k in ks:
        if k >= 1:
            assert recovery.worst_case_margin(mu, k).detectable == (k_max is None or k <= k_max)


def test_margin_matches_sparsity_bound():
    edges = [1.0 / (2 * k - 1) for k in range(1, 201)]
    neighbours = [math.nextafter(mu, direction) for mu in edges for direction in (0.0, 2.0)]
    mus = [float(mu) for mu in np.linspace(0.01, 1.0, 67)] + edges + neighbours + [0.0, 5e-324, 1e-310]
    for mu in mus:
        if mu <= 1.0:
            check_certificate(mu)
    # the doubles nearest 1/3 and 1/49, where a rounded (1 + 1/mu)/2 or rounded margins misjudge K
    assert max_sparsity(0.3333333333333333) == 2
    assert max_sparsity(0.02040816326530612) == 25


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 1.0))
def test_margin_matches_sparsity_bound_on_any_float(mu):
    check_certificate(mu)


def test_margin_validates_arguments():
    with pytest.raises(ValueError):
        recovery.worst_case_margin(1.2, 1)
    with pytest.raises(ValueError):
        recovery.worst_case_margin(0.5, 0)
    with pytest.raises(ValueError, match=r"coherence must be a number in \[0, 1\], got '0.3'"):
        recovery.worst_case_margin("0.3", 2)


# ----------------------------------------------------------------- file IO


def test_signal_json_round_trip(tmp_path):
    x = recovery.SparseSignal(10, (1, 8), np.array([0.25 - 1j, 3.0]))
    path = tmp_path / "x.json"
    recovery.save_signal(x, path)
    back = recovery.load_signal(path)
    assert back.n == 10 and back.support == (1, 8)
    assert np.array_equal(back.values, x.values)


def test_signal_file_without_values_is_a_value_error(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"n": 10, "support": [1, 8]}')
    with pytest.raises(ValueError, match="^malformed signal: missing key 'values'$"):
        recovery.load_signal(path)


def test_measurement_json_round_trip(tmp_path, etf14):
    y = recovery.measure(etf14, unit_signal(14, (2, 7)))
    path = tmp_path / "y.json"
    recovery.save_measurement(y, path)
    back = recovery.load_measurement(path)
    assert np.array_equal(back, y)
