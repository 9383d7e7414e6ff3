import base64
import csv
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import csense
from csense import cli, matrices, numerics, recovery
from csense.cli import figure_scenario, main
from csense.coherence import coherence_index
from csense.experiments import sweep_partial_dft_subsets
from csense.serialization import BASE64_BLOCK

MU14 = 1.0 / math.sqrt(13.0)
MU30 = 1.0 / math.sqrt(29.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse text as RFC 8259 JSON: Infinity, -Infinity and NaN are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def write_example1_inputs(tmp_path):
    mat = matrices.build_partial_dft(8, (0, 2, 4, 6))
    mat_path = tmp_path / "ex1.json"
    matrices.save_matrix(mat, mat_path)
    x = recovery.SparseSignal(8, (0,), np.ones(1, dtype=complex))
    y_path = tmp_path / "y1.json"
    recovery.save_measurement(recovery.measure(mat, x), y_path)
    return mat_path, y_path


# --------------------------------------------------------------- gen-matrix


def test_gen_matrix_etf(tmp_path, capsys):
    out = tmp_path / "etf.json"
    code, stdout, _ = run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(out))
    assert code == 0
    lines = dict(line.split(" = ") for line in stdout.strip().splitlines())
    assert float(lines["mu"]) == pytest.approx(MU14, abs=1e-6)
    assert lines["k_max"] == "2"
    assert out.exists()


def test_gen_matrix_subsampling_rows(tmp_path, capsys):
    out = tmp_path / "sub.json"
    code, stdout, _ = run(capsys, "gen-matrix", "--family", "subsampling", "--n", "16", "--p", "4", "--out", str(out))
    assert code == 0
    assert "rows = 0,4,8,12" in stdout


def test_gen_matrix_fallback_failure_exits_3(tmp_path, capsys):
    out = tmp_path / "etf.json"
    code, _, err = run(capsys, "gen-matrix", "--family", "etf", "--m", "6", "--n", "14", "--out", str(out))
    assert code == 3
    assert "error" in err
    assert all(route in err for route in ("orthonormal", "harmonic", "paley-conference"))


def test_gen_matrix_harmonic_etf(tmp_path, capsys):
    out = tmp_path / "etf.json"
    code, stdout, _ = run(capsys, "gen-matrix", "--family", "etf", "--m", "5", "--n", "11", "--out", str(out))
    assert code == 0
    assert "rows = 1,3,4,5,9" in stdout.splitlines()
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(out))
    assert code == 0
    assert strict_json(stdout)["coherence"]["is_etf"] is True


def test_gen_matrix_bad_rows_exits_2(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code, _, _ = run(capsys, "gen-matrix", "--family", "partial-dft", "--n", "8", "--rows", "0,zz", "--out", str(out))
    assert code == 2
    # no seeded rows beyond 2**32 columns: the error names n, not the stream's bounds
    code, stdout, err = run(capsys, "gen-matrix", "--family", "partial-dft", "--n", str(2**32 + 1), "--m", "1", "--out", str(out))
    assert code == 2
    assert err == "error: malformed matrix spec: a seeded draw of indices needs n <= 2**32, got n = 4294967297\n"
    assert stdout == "" and not out.exists()


def test_gen_matrix_gaussian_matches_the_library(tmp_path, capsys):
    out = tmp_path / "gauss.json"
    code, _, _ = run(capsys, "gen-matrix", "--family", "gaussian", "--m", "8", "--n", "20", "--seed", "3", "--out", str(out))
    assert code == 0
    mat = matrices.load_matrix(out)
    assert np.array_equal(mat.data, matrices.build_gaussian(8, 20, 3).data) and mat.meta == {"seed": 3}


@pytest.mark.parametrize(
    "flags, spec",
    [
        (["--n", "8", "--rows", "0,2,4,6"], {"n": 8, "rows": (0, 2, 4, 6)}),
        (["--n", "16", "--m", "12", "--seed", "1"], {"n": 16, "m": 12, "seed": 1}),
    ],
    ids=["rows", "m_and_seed"],
)
def test_gen_matrix_partial_dft_matches_the_library(tmp_path, capsys, flags, spec):
    out = tmp_path / "dft.json"
    code, stdout, _ = run(capsys, "gen-matrix", "--family", "partial-dft", *flags, "--out", str(out))
    assert code == 0
    mat, expected = matrices.load_matrix(out), matrices.from_spec("partial-dft", **spec)
    assert np.array_equal(mat.data.view(np.uint64), expected.data.view(np.uint64)) and mat.meta == expected.meta
    assert "rows = " + ",".join(map(str, expected.meta["rows"])) in stdout.splitlines()


def test_gen_matrix_single_column_is_unbounded(tmp_path, capsys):
    code, stdout, _ = run(capsys, "gen-matrix", "--family", "etf", "--m", "1", "--n", "1", "--out", str(tmp_path / "x.json"))
    assert code == 0
    assert "k_max = unbounded" in stdout


def test_gen_matrix_unknown_family_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-matrix", "--family", "nope", "--n", "8", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_one_parser_serves_every_call_and_a_usage_error_leaves_it_as_it_was(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    out = tmp_path / "etf.json"
    assert run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(out))[0] == 0
    first = run(capsys, "coherence", "--matrix", str(out), "--uniqueness-k", "2")
    for argv in (["coherence", "--matrix"], ["coherence", "--matrix", str(out), "--uniqueness-k", "two"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    assert run(capsys, "coherence", "--matrix", str(out), "--uniqueness-k", "2") == first


def test_printed_mu_round_trips_through_coherence(tmp_path, capsys):
    out = tmp_path / "etf.json"
    code, stdout, _ = run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(out))
    assert code == 0
    printed_mu = float(dict(line.split(" = ") for line in stdout.strip().splitlines())["mu"])
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(out))
    assert code == 0
    assert strict_json(stdout)["coherence"]["mu"] == printed_mu


# ---------------------------------------------------------------- coherence


def test_coherence_uniqueness_witness(tmp_path, capsys):
    mat_path, _ = write_example1_inputs(tmp_path)
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(mat_path), "--uniqueness-k", "1")
    assert code == 0
    payload = strict_json(stdout)
    assert payload["uniqueness"]["all_full_rank"] is False
    assert payload["uniqueness"]["witness"] == [0, 4]


def test_coherence_rip_pairs(tmp_path, capsys):
    out = tmp_path / "etf.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(out))
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(out), "--rip-k", "2")
    assert code == 0
    payload = strict_json(stdout)
    assert payload["rip"]["delta"] == pytest.approx(payload["coherence"]["mu"], abs=1e-10)


@pytest.mark.parametrize("flags", [[], ["--rip-k", "2"], ["--uniqueness-k", "1"]], ids=["alone", "rip_k", "uniqueness_k"])
def test_coherence_command_walks_the_gram_once(tmp_path, capsys, flags):
    # with --rip-k the isometry scan builds the whole Gram (numerics.gram, itself one strip walk) and the coherence
    # walks fresh strips. With --uniqueness-k the complete scan takes the orbit route, whose translation_gap walks them once more
    out = tmp_path / "dft.json"
    run(capsys, "gen-matrix", "--family", "partial-dft", "--m", "12", "--n", "300", "--out", str(out))
    with mock.patch.object(numerics, "gram_strips", wraps=numerics.gram_strips) as strips, \
            mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        code, stdout, _ = run(capsys, "coherence", "--matrix", str(out), *flags)
    assert code == 0
    assert strips.call_count == 1 + ("--uniqueness-k" in flags) + ("--rip-k" in flags)
    assert gram.call_count == ("--rip-k" in flags)
    assert strict_json(stdout)["coherence"]["mu"] == coherence_index(matrices.load_matrix(out)).mu


GEN_MATRIX_FLAGS = [  # the ETFs take the paley-conference and the harmonic routes
    ["--family", "etf", "--m", "7", "--n", "14"],
    ["--family", "etf", "--m", "5", "--n", "11"],
    ["--family", "partial-dft", "--m", "12", "--n", "300"],
    ["--family", "gaussian", "--m", "6", "--n", "20"],
    ["--family", "subsampling", "--n", "16", "--p", "4"],
]


def gram_builds(capsys, *argv):
    """A command's exit code and how many n x n Grams numerics.gram built while it ran."""
    with mock.patch.object(numerics, "gram", wraps=numerics.gram) as gram:
        code, _, _ = run(capsys, *argv)
    return code, gram.call_count


def test_only_the_readers_of_the_whole_gram_build_it(tmp_path, capsys):
    # only rip_constant, once it visits a subset, reads the whole Gram; every other command answers from strips, from A or from an FFT
    for flags in GEN_MATRIX_FLAGS:
        assert gram_builds(capsys, "gen-matrix", *flags, "--out", str(tmp_path / "m.json")) == (0, 0)
    mat_path, y_path, cfg_path = tmp_path / "etf.json", tmp_path / "y.json", tmp_path / "cfg.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(mat_path))
    x = recovery.SparseSignal(14, (2, 7), np.ones(2, dtype=complex))
    recovery.save_measurement(recovery.measure(matrices.load_matrix(mat_path), x), y_path)
    cfg_path.write_text(json.dumps({"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 4}))
    matrix = ["--matrix", str(mat_path)]
    assert gram_builds(capsys, "coherence", *matrix) == (0, 0)
    assert gram_builds(capsys, "coherence", *matrix, "--uniqueness-k", "1", "--rip-k", "2") == (0, 1)
    assert gram_builds(capsys, "coherence", *matrix, "--rip-k", "2", "--max-subsets", "0") == (4, 0)
    assert gram_builds(capsys, "recover", *matrix, "--measurements", str(y_path), "--oracle") == (0, 0)
    for name in ("fig2", "fig3", "fig4"):
        assert gram_builds(capsys, "figure", "--name", name, "--outdir", str(tmp_path / name)) == (0, 0)
    assert gram_builds(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")) == (0, 0)
    # nor does a partial DFT's, whose pursuit takes A^H r from one FFT per step
    dft_cfg = {"matrix": {"family": "partial-dft", "m": 12, "n": 300}, "k_range": [1, 2], "trials": 4}
    cfg_path.write_text(json.dumps(dft_cfg))
    assert gram_builds(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")) == (0, 0)


def test_coherence_scans_report_completeness(tmp_path, capsys):
    out = tmp_path / "etf.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(out))
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(out), "--uniqueness-k", "1", "--rip-k", "2")
    assert code == 0
    payload = strict_json(stdout)
    assert payload["uniqueness"]["complete"] is True and payload["uniqueness"]["all_full_rank"] is True
    assert (payload["rip"]["subsets_scanned"], payload["rip"]["total_subsets"], payload["rip"]["complete"]) == (91, 91, True)


def test_coherence_infeasible_scan_exits_4(tmp_path, capsys):
    out = tmp_path / "etf.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "15", "--n", "30", "--out", str(out))
    code, stdout, err = run(capsys, "coherence", "--matrix", str(out), "--uniqueness-k", "3", "--max-subsets", "100")
    assert code == 4
    assert "593775" in err
    report = strict_json(stdout)["uniqueness"]
    assert (report["scanned"], report["total_subsets"], report["complete"]) == (100, 593775, False)
    # a zero budget counts the subsets of every scan and scans none of them
    argv = ["coherence", "--matrix", str(out), "--uniqueness-k", "2", "--rip-k", "3", "--max-subsets", "0"]
    code, stdout, err = run(capsys, *argv)
    assert code == 4
    payload = strict_json(stdout)
    uniqueness, rip = payload["uniqueness"], payload["rip"]
    assert (uniqueness["scanned"], uniqueness["total_subsets"], uniqueness["complete"]) == (0, 27405, False)
    assert (uniqueness["all_full_rank"], uniqueness["min_cond"], uniqueness["max_cond"]) == (None, None, None)
    assert (rip["subsets_scanned"], rip["total_subsets"], rip["complete"]) == (0, 4060, False)
    assert "0 of 27405" in err and "0 of 4060" in err and len(err.splitlines()) == 2
    assert payload["coherence"]["mu"] == pytest.approx(MU30, abs=1e-12)


def test_coherence_report_of_equal_columns_is_json(tmp_path, capsys):
    # every pair of three equal columns is rank deficient, so no condition number exists
    path = tmp_path / "equal.json"
    col = [[1 / math.sqrt(2), 0.0]] * 2
    path.write_text(json.dumps({"m": 2, "n": 3, "family": "custom", "data": col * 3}))
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(path), "--uniqueness-k", "1")
    assert code == 0
    report = strict_json(stdout)["uniqueness"]
    assert (report["all_full_rank"], report["witness"], report["min_cond"], report["max_cond"]) == (False, [0, 1], None, None)
    with pytest.raises(ValueError, match="Infinity is not JSON"):
        strict_json('{"min_cond": Infinity}')


def test_coherence_uniqueness_scan_of_a_one_row_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "row.json"
    path.write_text(json.dumps({"m": 1, "n": 3, "family": "custom", "data": [[1.0, 0.0]] * 3}))
    code, stdout, err = run(capsys, "coherence", "--matrix", str(path), "--uniqueness-k", "1")
    assert (code, stdout) == (2, "")
    assert err == "error: no sparsity k fits: its range [1, 0] is empty, got 1\n"


def test_coherence_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "coherence", "--matrix", str(tmp_path / "missing.json"))
    assert code == 2


def test_coherence_negative_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "etf.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(out))
    for scans in (["--uniqueness-k", "2"], []):
        code, stdout, err = run(capsys, "coherence", "--matrix", str(out), *scans, "--max-subsets", "-1")
        assert code == 2
        assert err.startswith("error:") and "infeasible" not in err
        assert stdout == ""


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"m": null, "n": 2, "family": "custom", "data": [[1, 0], [1, 0]]}',
        '{"m": 1e999, "n": 2, "family": "custom", "data": [[1, 0], [1, 0]]}',
    ],
)
def test_coherence_malformed_matrix_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, "coherence", "--matrix", str(path))
    assert code == 2
    assert err.startswith("error: malformed matrix")


def test_coherence_certifies_no_k_the_stored_columns_lack(tmp_path, capsys):
    # the 3x4 simplex scaled by 1 - 5e-11: its columns sum to 0, so e0 + e1 and -(e2 + e3) share measurements
    simplex = matrices.build_partial_dft(4, (1, 2, 3))
    path = tmp_path / "scaled.json"
    matrices.save_matrix(matrices.MeasurementMatrix(simplex.data * (1.0 - 5e-11), "custom"), path)
    code, stdout, _ = run(capsys, "coherence", "--matrix", str(path))
    report = strict_json(stdout)["coherence"]
    assert code == 0
    assert report["mu"] == 0.3333333333000002 < report["welch"] == 0.3333333333333333
    assert report["k_max"] == 1


# ------------------------------------------------------------------ recover


def test_recover_two_sparse(tmp_path, capsys):
    mat_path = tmp_path / "etf.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(mat_path))
    mat = matrices.load_matrix(mat_path)
    x = recovery.SparseSignal(14, (2, 7), np.ones(2, dtype=complex))
    y_path = tmp_path / "y.json"
    recovery.save_measurement(recovery.measure(mat, x), y_path)
    code, stdout, _ = run(capsys, "recover", "--matrix", str(mat_path), "--measurements", str(y_path))
    assert code == 0
    payload = strict_json(stdout)
    assert sorted(payload["recovery"]["support"]) == [2, 7]
    assert payload["recovery"]["converged"] is True


def test_recover_oracle_flags_ambiguity(tmp_path, capsys):
    mat_path, y_path = write_example1_inputs(tmp_path)
    code, stdout, _ = run(capsys, "recover", "--matrix", str(mat_path), "--measurements", str(y_path), "--oracle")
    assert code == 0
    payload = strict_json(stdout)
    supports = [sol["support"] for sol in payload["oracle"]["solutions"]]
    assert supports == [[0], [4]]
    assert payload["oracle"]["ambiguous"] is True
    assert payload["oracle"]["agrees_with_pursuit"] is True


def test_recover_oracle_says_when_budget_cut_it_short(tmp_path, capsys):
    # 679,120 candidate supports of size <= 4 against the default 100,000 budget
    mat = matrices.build_gaussian(24, 64, seed=0)
    mat_path, y_path = tmp_path / "gauss.json", tmp_path / "y.json"
    matrices.save_matrix(mat, mat_path)
    x = recovery.SparseSignal(64, (40, 50, 55, 60), np.ones(4, dtype=complex))
    recovery.save_measurement(recovery.measure(mat, x), y_path)
    code, stdout, err = run(capsys, "recover", "--matrix", str(mat_path), "--measurements", str(y_path), "--oracle")
    assert code == 0
    payload = strict_json(stdout)
    assert sorted(payload["recovery"]["support"]) == [40, 50, 55, 60]
    oracle = payload["oracle"]
    assert (oracle["scanned"], oracle["total"], oracle["complete"]) == (100_000, 679_120, False)
    assert oracle["ambiguous"] is None and oracle["agrees_with_pursuit"] is None
    assert "warning" in err and "100000 of 679120" in err


def test_recover_oracle_complete_search(tmp_path, capsys):
    mat_path, y_path = write_example1_inputs(tmp_path)
    code, stdout, err = run(capsys, "recover", "--matrix", str(mat_path), "--measurements", str(y_path), "--oracle")
    oracle = strict_json(stdout)["oracle"]
    assert (oracle["scanned"], oracle["total"], oracle["complete"]) == (8, 8, True)
    assert err == ""


def test_recover_oracle_agrees_on_zero_measurements(tmp_path, capsys, etf14):
    # the pursuit stops before its first pick, and the oracle's one minimal support is that empty one
    mat_path, y_path = tmp_path / "etf.json", tmp_path / "y.json"
    matrices.save_matrix(etf14, mat_path)
    recovery.save_measurement(np.zeros(7), y_path)
    code, stdout, err = run(capsys, "recover", "--matrix", str(mat_path), "--measurements", str(y_path), "--oracle")
    assert code == 0 and err == ""
    payload = strict_json(stdout)
    assert (payload["recovery"]["support"], payload["recovery"]["converged"]) == ([], True)
    oracle = payload["oracle"]
    assert oracle["solutions"] == [{"support": [], "values": [], "residual": 0.0}]
    assert (oracle["scanned"], oracle["total"], oracle["complete"]) == (14, 14, True)
    assert oracle["ambiguous"] is False and oracle["agrees_with_pursuit"] is True


def test_recover_passes_one_relative_epsilon_to_pursuit_and_oracle(tmp_path, capsys, etf14):
    mat_path, y_path = tmp_path / "etf.json", tmp_path / "y.json"
    matrices.save_matrix(etf14, mat_path)
    x = recovery.SparseSignal(14, (2, 7), np.ones(2, dtype=complex))
    recovery.save_measurement(recovery.measure(etf14, x), y_path)
    argv = ["recover", "--matrix", str(mat_path), "--measurements", str(y_path), "--oracle", "--epsilon", "1e-9"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    payload = strict_json(stdout)
    assert sorted(payload["recovery"]["support"]) == [2, 7] and payload["recovery"]["converged"] is True
    assert payload["oracle"]["agrees_with_pursuit"] is True and payload["oracle"]["ambiguous"] is False


def test_recover_not_converged_exits_5(tmp_path, capsys):
    mat_path = tmp_path / "etf.json"
    run(capsys, "gen-matrix", "--family", "etf", "--m", "7", "--n", "14", "--out", str(mat_path))
    mat = matrices.load_matrix(mat_path)
    x = recovery.SparseSignal(14, (2, 7), np.ones(2, dtype=complex))
    y_path = tmp_path / "y.json"
    recovery.save_measurement(recovery.measure(mat, x), y_path)
    code, stdout, _ = run(
        capsys, "recover", "--matrix", str(mat_path), "--measurements", str(y_path), "--max-iter", "1"
    )
    assert code == 5
    payload = strict_json(stdout)  # best effort still printed
    assert payload["recovery"]["converged"] is False


def test_recover_garbage_path_exits_2(tmp_path, capsys):
    code, _, _ = run(capsys, "recover", "--matrix", "nope.json", "--measurements", "nada.json")
    assert code == 2


# ------------------------------------------------------------------- figure


def test_figure_fig2_outputs(tmp_path, capsys):
    outdir = tmp_path / "fig2"
    code, _, _ = run(capsys, "figure", "--name", "fig2", "--outdir", str(outdir))
    assert code == 0
    with open(outdir / "margins.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["signal_floor"]) == pytest.approx(0.7226, abs=1e-4)
    assert float(rows[0]["disturbance_ceiling"]) == pytest.approx(0.5547, abs=1e-4)
    with open(outdir / "estimate.csv") as fh:
        est = {int(r["index"]): float(r["abs_x0"]) for r in csv.DictReader(fh)}
    off_support = [est[i] for i in range(14) if i not in (2, 7)]
    assert max(off_support) <= 2.0 * MU14 + 1e-9
    with open(outdir / "components.csv") as fh:
        header = fh.readline().strip().split(",")
        components = {int(row[0]): [float(v) for v in row[1:]] for row in csv.reader(fh)}
    assert header == ["index", "component_1_re", "component_1_im", "component_2_re", "component_2_im"]
    for idx, (re1, im1, re2, im2) in components.items():  # the two components sum to x0
        assert abs(complex(re1 + re2, im1 + im2)) == pytest.approx(est[idx], abs=1e-12)
    for name in ("components.csv", "estimate.csv", "margins.csv"):  # LF lines, like every file csense writes
        assert b"\r" not in (outdir / name).read_bytes()


def test_figure_fig3_uses_committed_rows(tmp_path, capsys):
    outdir = tmp_path / "fig3"
    code, _, _ = run(capsys, "figure", "--name", "fig3", "--outdir", str(outdir))
    assert code == 0
    mat, support = figure_scenario("fig3")
    assert mat.m == 12 and mat.n == 16
    assert support == (2, 7)
    mu = coherence_index(mat).mu
    assert mu < 1.0 / 3.0
    with open(outdir / "margins.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["signal_floor"]) == pytest.approx(1.0 - mu, abs=1e-12)
    assert float(rows[0]["disturbance_ceiling"]) == pytest.approx(2.0 * mu, abs=1e-12)


def test_fig3_rows_come_from_their_sweep():
    # 14 of the sweep's subsets share its least mu to within 1e-12, so rounding, not the rows,
    # decides which of them sorts first: check membership and mu, never sweep[0].rows
    mat, _ = figure_scenario("fig3")
    sweep = sweep_partial_dft_subsets(16, 12, 500, seed=20260810)
    assert tuple(mat.meta["rows"]) in {score.rows for score in sweep}
    assert coherence_index(mat).mu == pytest.approx(sweep[0].mu, abs=1e-12)


def test_figure_fig4_margins(tmp_path, capsys):
    outdir = tmp_path / "fig4"
    code, _, _ = run(capsys, "figure", "--name", "fig4", "--outdir", str(outdir))
    assert code == 0
    with open(outdir / "margins.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["signal_floor"]) == pytest.approx(1.0 - 2.0 * MU30, abs=1e-9)
    assert float(rows[0]["disturbance_ceiling"]) == pytest.approx(3.0 * MU30, abs=1e-9)


def test_figure_unknown_name_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--name", "fig9", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="unknown scenario 'fig9'"):
        figure_scenario("fig9")


# --------------------------------------------------------------- experiment


def test_experiment_minimal_config(tmp_path, capsys):
    cfg = {"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 1], "trials": 1, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out))
    assert code == 0
    payload = strict_json(out.read_text())
    assert payload["rows"][0]["k"] == 1
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "k,trials,first_pick_rate,exact_rate,mean_iters"


def test_experiment_certified_regime_and_reruns_identical(tmp_path, capsys):
    cfg = {
        "matrix": {"family": "etf", "m": 7, "n": 14},
        "k_range": [1, 2],
        "trials": 25,
        "amplitude_model": "random_magnitude_phase",
        "seed": 12,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out))
    first = out.read_bytes(), (tmp_path / "report.csv").read_bytes()
    payload = strict_json(first[0])
    assert all(row["exact_recovery_rate"] == 1.0 for row in payload["rows"])
    run(capsys, "experiment", "--config", str(cfg_path), "--out", str(out))
    second = out.read_bytes(), (tmp_path / "report.csv").read_bytes()
    assert first == second


def test_experiment_out_that_is_its_own_csv_exits_2(tmp_path, capsys):
    # the CSV lands at --out with .csv for its extension; it must not overwrite the report.
    # The config path does not exist: the check comes before anything is read or run
    out = tmp_path / "r.csv"
    code, stdout, err = run(capsys, "experiment", "--config", str(tmp_path / "none.json"), "--out", str(out))
    assert code == 2
    assert err.startswith(f"error: --out {out} is also the CSV path")
    assert stdout == "" and not out.exists()


def test_experiment_malformed_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"matrix": {"family": "etf", "m": 7, "n": 14}}')
    code, _, _ = run(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json"))
    assert code == 2


def spec_config(**spec):
    return {"matrix": spec, "k_range": [1, 2], "trials": 3}


WRONG_SHAPES = [
    ({"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": 5, "trials": 3}, "experiment config"),
    ({"matrix": {"family": "etf", "m": 7, "n": 14, "q": 3}, "k_range": [1, 2], "trials": 3}, "experiment config"),
    (spec_config(family="etf", m=[7], n=14), "matrix spec"),
    (spec_config(family="gaussian", m=7, n=14, seed=[1]), "matrix spec"),
    (spec_config(family="partial-dft", n=16, rows=5), "matrix spec"),
    (spec_config(family="partial-dft", n=16, m={}), "matrix spec"),
    (spec_config(family="subsampling", n=16, p=[4]), "matrix spec"),
    (spec_config(family="etf", m=math.inf, n=14), "matrix spec"),
    ({"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": math.inf}, "experiment config"),
]


@pytest.mark.parametrize("cfg, what", WRONG_SHAPES, ids=[f"cfg{i}" for i in range(len(WRONG_SHAPES))])
def test_experiment_config_of_the_wrong_shape_exits_2(tmp_path, capsys, cfg, what):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.json"))
    assert code == 2
    assert err.startswith(f"error: malformed {what}")
    assert not (tmp_path / "r.json").exists()


# id: (command, change to its config or matrix file, the error naming the field)
FRACTIONAL_OR_NAN = {
    "m": ("experiment", {"matrix": {"family": "etf", "m": 7.9, "n": 14}}, "m must be a whole number, got 7.9"),
    "k_range": ("experiment", {"k_range": [1, 2.5]}, "k_range high must be a whole number, got 2.5"),
    "trials": ("experiment", {"trials": 20.9}, "trials must be a whole number, got 20.9"),
    "epsilon": ("experiment", {"epsilon": math.nan}, "epsilon must be a positive, finite number, got nan"),
    "epsilon_string": ("experiment", {"epsilon": "1e-3"}, "epsilon must be a positive, finite number, got '1e-3'"),
    "epsilon_list": ("experiment", {"epsilon": [1]}, "epsilon must be a positive, finite number, got [1]"),
    "matrix_m": ("coherence", {"m": 7.5}, "m must be a whole number, got 7.5"),
    "recover_epsilon": ("recover", {}, "epsilon must be a positive, finite number, got nan"),
    "k_range_true": ("experiment", {"k_range": [1, True]}, "k_range high must be a whole number, got True"),
    "trials_true": ("experiment", {"trials": True}, "trials must be a whole number, got True"),
    "epsilon_true": ("experiment", {"epsilon": True}, "epsilon must be a positive, finite number, got True"),
    "matrix_m_true": ("coherence", {"m": True}, "m must be a whole number, got True"),
}


@pytest.mark.parametrize("command, change, message", FRACTIONAL_OR_NAN.values(), ids=FRACTIONAL_OR_NAN.keys())
def test_fractional_or_nan_number_exits_2(tmp_path, capsys, etf14, command, change, message):
    cfg = {"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3}
    mat = matrices.matrix_to_dict(etf14)
    (cfg if command == "experiment" else mat).update(change)
    cfg_path, mat_path, y_path, out = (tmp_path / f"{name}.json" for name in ("cfg", "etf", "y", "r"))
    cfg_path.write_text(json.dumps(cfg))
    mat_path.write_text(json.dumps(mat))
    x = recovery.SparseSignal(14, (2, 7), np.ones(2, dtype=complex))
    recovery.save_measurement(recovery.measure(etf14, x), y_path)
    argv = {
        "experiment": ["--config", cfg_path, "--out", out],
        "coherence": ["--matrix", mat_path],
        "recover": ["--matrix", mat_path, "--measurements", y_path, "--epsilon", "nan", "--oracle"],
    }[command]
    code, stdout, err = run(capsys, command, *map(str, argv))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert stdout == "" and not out.exists()


# id: (gen-matrix flags, or a change to an experiment config; the words naming the key no family reads)
UNREAD_OR_UNKNOWN_KEYS = {
    "subsampling_m": (["--family", "subsampling", "--n", "16", "--p", "4", "--m", "5"], "argument 'm'"),
    "etf_seed": (["--family", "etf", "--m", "7", "--n", "14", "--seed", "3"], "argument 'seed'"),
    "dft_rows_seed": (["--family", "partial-dft", "--n", "8", "--rows", "0,2", "--seed", "1"], "got rows and seed"),
    "config_epsilom": ({"epsilom": 1e-3}, "argument 'epsilom'"),
    "config_rows_and_m": ({"matrix": {"family": "partial-dft", "n": 8, "rows": [0, 2], "m": 5}}, "got rows and m"),
    "config_no_family": ({"matrix": {"m": 7, "n": 14}}, "missing a required argument: 'family'"),
}


@pytest.mark.parametrize("change, key", UNREAD_OR_UNKNOWN_KEYS.values(), ids=UNREAD_OR_UNKNOWN_KEYS.keys())
def test_a_key_nothing_reads_exits_2(tmp_path, capsys, change, key):
    out, cfg_path = tmp_path / "out.json", tmp_path / "cfg.json"
    if isinstance(change, list):
        argv = ["gen-matrix", *change, "--out", out]
    else:
        cfg_path.write_text(json.dumps({"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3, **change}))
        argv = ["experiment", "--config", cfg_path, "--out", out]
    code, stdout, err = run(capsys, *map(str, argv))
    assert code == 2
    assert err.startswith("error: malformed") and key in err
    assert stdout == "" and not out.exists()


def b64(values) -> str:
    """base64 of the little-endian complex128 bytes of values: the data string of a matrix file."""
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode("ascii")


ONE = b64([1.0])  # "AAAAAAAA8D8AAAAAAAAAAA==", the 1x1 matrix [1]
# The 1 x 12289 matrix of ones: its data spans two base64 blocks and ends in "AAAAAA==".
ROW = b64(np.ones(12289))
SECOND_BLOCK = 4 * BASE64_BLOCK // 3 + 8  # a character inside the second block

# id: (command, the input file it gets, that file's text, the error)
BAD_INPUT_FILES = {
    "a_min_above_a_max": (
        "experiment", "cfg",
        {
            "matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3,
            "amplitude_model": "random_magnitude_phase", "a_min": 2.0, "a_max": 1.0,
        },
        "need a_min <= a_max, got 2.0 > 1.0",
    ),
    "seeded_rows_beyond_2_32": (
        "experiment", "cfg",
        {"matrix": {"family": "partial-dft", "n": 2**32 + 1, "m": 1}, "k_range": [1, 1], "trials": 1},
        "malformed matrix spec: a seeded draw of indices needs n <= 2**32, got n = 4294967297",
    ),
    "a_min_with_unit_equal": (
        "experiment", "cfg",
        {"matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3, "a_min": 0.001, "a_max": 1000.0},
        "malformed experiment config: a_min goes only with amplitude_model 'random_magnitude_phase'",
    ),
    "a_max_with_unit_equal": (
        "experiment", "cfg",
        {
            "matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3,
            "amplitude_model": "unit_equal", "a_max": 1000.0,
        },
        "malformed experiment config: a_max goes only with amplitude_model 'random_magnitude_phase'",
    ),
    "config_matrix_pairs": (
        "experiment", "cfg",
        {"matrix": [["family", "etf"], ["m", 7], ["n", 14]], "k_range": [1, 1], "trials": 3},
        "malformed experiment config: matrix must be a JSON object, got list",
    ),
    "a_min_at_zero_tol": (
        "experiment", "cfg",
        {
            "matrix": {"family": "etf", "m": 7, "n": 14}, "k_range": [1, 2], "trials": 3,
            "amplitude_model": "random_magnitude_phase", "a_min": 1e-16, "a_max": 1e-15,
        },
        "a_min must be above 1e-14, got 1e-16",
    ),
    "measurement_length": ("recover", "y", {"m": 3, "data": [[1, 0], [0, 1]]}, "data holds 2 entries, expected m = 3"),
    "measurement_no_data": ("recover", "y", {"m": 7}, "malformed measurement: missing key 'data'"),
    "measurement_nan": ("recover", "y", {"m": 7, "data": [[math.nan, 0]] + [[0, 0]] * 6}, "vector entries must be finite"),
    "matrix_family": ("coherence", "etf", {"m": 1, "n": 1, "family": "bogus", "data": [[1, 0]]}, "unknown family 'bogus'"),
    "matrix_no_m": ("coherence", "etf", {"n": 1, "family": "custom", "data": [[1, 0]]}, "malformed matrix: missing key 'm'"),
    "matrix_meta_pairs": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "meta": [["a", 1]], "data": ONE},
        "malformed matrix: meta must be a JSON object, got list",
    ),
    "matrix_meta_empty_list": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "meta": [], "data": ONE},
        "malformed matrix: meta must be a JSON object, got list",
    ),
    "matrix_meta_string": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "meta": "ab", "data": ONE},
        "malformed matrix: meta must be a JSON object, got str",
    ),
    "matrix_data_true": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "data": [[True, False]]},
        "malformed matrix: [re, im] pairs must hold numbers, not booleans",
    ),
    "measurement_data_strings": (
        "recover", "y", {"m": 7, "data": [["1", "0"]] * 7},
        "malformed measurement: [re, im] pairs must hold numbers, not strings or null",
    ),
    "matrix_data_null": (
        "coherence", "etf", {"m": 1, "n": 2, "family": "custom", "data": [[1, 0], [None, 0]]},
        "malformed matrix: [re, im] pairs must hold numbers, not strings or null",
    ),
    "measurement_data_true": (
        "recover", "y", {"m": 7, "data": [[1, 0]] * 6 + [[0, True]]},
        "malformed measurement: [re, im] pairs must hold numbers, not booleans",
    ),
    "matrix_base64_alphabet": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "data": ONE[:8] + "!" + ONE[8:]},
        "malformed matrix: data is not canonical base64",
    ),
    "matrix_base64_alphabet_second_block": (
        "coherence", "etf", {"m": 1, "n": 12289, "family": "custom", "data": ROW[:SECOND_BLOCK] + "!" + ROW[SECOND_BLOCK:]},
        "malformed matrix: data is not canonical base64",
    ),
    "matrix_base64_replaced_second_block": (
        "coherence", "etf",
        {"m": 1, "n": 12289, "family": "custom", "data": ROW[:SECOND_BLOCK] + "!" + ROW[SECOND_BLOCK + 1 :]},
        "malformed matrix: data is not base64: ",
    ),
    "matrix_base64_padding_bits": (
        "coherence", "etf", {"m": 1, "n": 12289, "family": "custom", "data": ROW[:-3] + "B=="},
        "malformed matrix: data is not canonical base64",
    ),
    "matrix_base64_padding": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "data": ONE[:-1]},
        "malformed matrix: data is not base64: Incorrect padding",
    ),
    "matrix_base64_partial_value": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "data": base64.b64encode(bytes(15)).decode()},
        "malformed matrix: data holds 15 bytes, not a whole number of 16-byte complex128 values",
    ),
    "matrix_base64_one_value_short": (
        "coherence", "etf", {"m": 1, "n": 2, "family": "custom", "data": ONE},
        "data holds 1 entries, expected m*n = 2",
    ),
    "matrix_base64_nan": (
        "coherence", "etf", {"m": 1, "n": 1, "family": "custom", "data": b64([complex(math.nan, 0.0)])},
        "matrix entries must be finite",
    ),
    "measurement_base64": (
        "recover", "y", {"m": 1, "data": ONE},
        "malformed measurement: expected a list of [re, im] pairs, got a string",
    ),
}


@pytest.mark.parametrize("command, name, content, message", BAD_INPUT_FILES.values(), ids=BAD_INPUT_FILES.keys())
def test_bad_input_file_exits_2(tmp_path, capsys, etf14, command, name, content, message):
    paths = {key: tmp_path / f"{key}.json" for key in ("cfg", "etf", "y", "r")}
    matrices.save_matrix(etf14, paths["etf"])
    recovery.save_measurement(etf14.data[:, 2], paths["y"])
    paths[name].write_text(json.dumps(content))  # json writes NaN as the bare token NaN, which it reads back
    argv = {
        "experiment": ["--config", paths["cfg"], "--out", paths["r"]],
        "coherence": ["--matrix", paths["etf"]],
        "recover": ["--matrix", paths["etf"], "--measurements", paths["y"]],
    }[command]
    code, stdout, err = run(capsys, command, *map(str, argv))
    assert code == 2
    assert err.startswith("error:") and message in err
    assert stdout == "" and not paths["r"].exists()


# ---------------------------------------------------------------- packaging

# Run as `python -c NUMPY_ONLY DIR`, DIR the directory that holds the csense package to audit:
# prints the top-level modules that importing csense and each of its modules loads, beyond
# the standard library, csense and numpy.
NUMPY_ONLY = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import csense
for module in pkgutil.iter_modules(csense.__path__):
    importlib.import_module("csense." + module.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"csense", "numpy"})))
"""


def test_numpy_is_the_only_runtime_dependency():
    """Importing csense and every module in it loads nothing outside the standard library and numpy.

    Every import in csense sits at module level, none inside a function, but
    numerics' threading, a standard-library module; so importing every module
    makes every other import the package can make at run time. The audit runs in a fresh interpreter, since this one already holds
    pytest and hypothesis, and it counts only what loads after the snapshot
    taken before `import csense`, since a venv's .pth hooks may load other
    packages at start-up. It audits the csense this process imports, from a
    checkout or an installed wheel.
    """
    package_dir = str(Path(csense.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY, package_dir], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# Run as `python -S -c NAMED_ONLY DIR NUMPY_DIR`, DIR as for NUMPY_ONLY and NUMPY_DIR the directory
# that holds numpy: prints the modules outside csense that importing csense and each of its modules
# loads once numpy and the standard-library modules that csense's sources import at the top are
# loaded. -S keeps site's start-up hooks from loading modules first.
NAMED_ONLY = """
import importlib, json, pkgutil, sys
sys.path[:0] = sys.argv[1:]
import numpy
for name in ("__future__", "argparse", "binascii", "collections.abc", "contextlib", "dataclasses", "functools",
             "inspect", "itertools", "json", "math", "os", "sys", "types", "typing"):
    importlib.import_module(name)
before = set(sys.modules)
import csense
for module in pkgutil.iter_modules(csense.__path__):
    importlib.import_module("csense." + module.name)
print(json.dumps(sorted(name for name in set(sys.modules) - before if name.partition(".")[0] != "csense")))
"""


def test_importing_csense_loads_no_module_beyond_those_it_names():
    """Beyond numpy and the standard-library modules named above, csense's import loads nothing.

    Numpy does not load threading, so the strip walk imports it only when it
    starts threads, and a command's start-up does not pay for it; a module-level
    threading or concurrent.futures import, or any other new one, shows here.
    """
    package_dir = str(Path(csense.__file__).parent.parent)
    numpy_dir = str(Path(np.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-S", "-c", NAMED_ONLY, package_dir, numpy_dir], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# Run as `python -c BARE_IMPORT DIR`, DIR as for NUMPY_ONLY: prints the csense modules a bare
# `import csense` loads, the public names the package then binds (each with the name of the
# module it holds, or null), and whether it binds __version__.
BARE_IMPORT = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import csense
print(json.dumps({
    "loaded": sorted(name for name in sys.modules if name.partition(".")[0] == "csense"),
    "public": {
        name: value.__name__ if isinstance(value, types.ModuleType) else None
        for name, value in vars(csense).items() if not name.startswith("_")
    },
    "version": isinstance(getattr(csense, "__version__", None), str),
}))
"""


def test_the_package_binds_only_its_modules_and_version():
    """Every public name lives in its module: the package re-exports none.

    A bare `import csense` still loads every library module, so
    `csense.matrices.build_etf(...)` works after it, but not the CLI.
    """
    package_dir = str(Path(csense.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", BARE_IMPORT, package_dir], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    library = ("_stream", "coherence", "errors", "experiments", "matrices", "numerics", "recovery", "serialization")
    assert out["loaded"] == ["csense"] + [f"csense.{name}" for name in library]
    assert out["public"] == {name: f"csense.{name}" for name in library if not name.startswith("_")}
    assert out["version"]


# --------------------------------------------------------------- README

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour():
    """The commands of README's "CLI quick tour" block, in order, as shell text: comments dropped, quoted newlines kept."""
    block = README.read_text(encoding="utf-8").split("## CLI quick tour", 1)[1].split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands, pending = [], ""
    for line in block.splitlines():
        if not pending and (not line.strip() or line.lstrip().startswith("#")):
            continue
        pending += line
        try:
            shlex.split(pending)
        except ValueError:  # a quote is still open, so the command goes on on the next line
            pending += "\n"
            continue
        commands.append(pending)
        pending = ""
    assert not pending, pending
    return commands


def test_the_readme_quick_tour_runs(tmp_path, monkeypatch, capsys):
    """Every line of the tour runs in a fresh directory and exits 0, the code README gives success.

    csense lines run through cli.main; the python -c and echo steps run as
    written, python as this interpreter with the csense it imports on its path.
    """
    assert "Exit codes: `0` success" in README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    package_dir = str(Path(csense.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_dir, os.environ.get("PYTHONPATH"))))}
    programs = []
    for command in quick_tour():
        argv = shlex.split(command)
        programs.append(argv[1] if argv[0] == "csense" else argv[0])
        if argv[0] == "csense":
            code = main(argv[1:])
        elif argv[0] == "python":
            code = subprocess.run([sys.executable, *argv[1:]], env=env).returncode
        else:
            code = subprocess.run(["sh", "-c", command]).returncode
        capsys.readouterr()
        assert code == 0, command
    assert set(programs) == {"gen-matrix", "coherence", "recover", "figure", "experiment", "python", "echo"}
    for name in ("etf14.json", "even.json", "dft.json", "gauss.json", "sub.json", "y.json", "config.json", "report.json"):
        assert (tmp_path / name).is_file(), name
    assert any((tmp_path / "out").iterdir())
