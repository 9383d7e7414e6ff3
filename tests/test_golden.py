"""Frozen experiment reports for the acceptance configs of criteria 8 and 12,
and the frozen stdout of two CLI commands.

The reports and the per-trial selection order of every pursuit behind them
were written once under the deterministic tie rule and must be reproduced
exactly: a report's rates can survive a change of pick order (386 of the 500
criterion-12 trials changed order when the tie rule came in, the rates did
not), the frozen order cannot. The order is checked both for each trial
pursued alone and on the batched path that run_experiment takes. To rewrite
them after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and record why.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from csense import experiments, matrices, recovery
from csense.cli import figure_scenario, main
from csense.errors import RankDeficientError
from csense.serialization import to_dict

GOLDEN = Path(__file__).parent / "golden"


def golden_configs() -> dict[str, experiments.ExperimentConfig]:
    rows = list(figure_scenario("fig3")[0].meta["rows"])
    guarantee = {
        "criterion08_etf14": ({"family": "etf", "m": 7, "n": 14}, 2),
        "criterion08_etf30": ({"family": "etf", "m": 15, "n": 30}, 3),
        "criterion08_fig3": ({"family": "partial-dft", "n": 16, "rows": rows}, 2),
    }
    out = {
        name: experiments.ExperimentConfig(
            matrix=spec,
            k_range=(1, k_max),
            trials=500,
            amplitude_model=experiments.AMPLITUDE_RANDOM,
            seed=20260810,
        )
        for name, (spec, k_max) in guarantee.items()
    }
    out["criterion12_etf14_k3"] = experiments.ExperimentConfig(
        matrix={"family": "etf", "m": 7, "n": 14},
        k_range=(3, 3),
        trials=500,
        amplitude_model=experiments.AMPLITUDE_UNIT_EQUAL,
        seed=424242,
    )
    return out


def report_text(cfg: experiments.ExperimentConfig) -> str:
    """The report JSON exactly as ``csense experiment`` writes it."""
    return json.dumps(to_dict(experiments.run_experiment(cfg)), indent=2) + "\n"


def lone_signal(cfg: experiments.ExperimentConfig, mat, k: int, trial: int) -> recovery.SparseSignal:
    """The k-sparse signal of one trial, from experiments.draw_trials on that trial alone."""
    supports, values = experiments.draw_trials(cfg, mat.n, k, range(trial, trial + 1))
    return recovery.SparseSignal(mat.n, tuple(supports[0].tolist()), values[0])


def selection_order(cfg: experiments.ExperimentConfig, batched: bool = False) -> dict[str, list]:
    """Per k, each trial's pursuit support in selection order ("rank-deficient" if it aborted).

    batched=False runs matching_pursuit on each trial alone; batched=True
    reads the arrays run_experiment tallies, from the BatchPursuit of each
    slice of experiments.trial_outcomes, grouped on k: picks[t] up to
    iterations[t], or the trial's entry in errors.
    """
    mat = matrices.from_spec(**cfg.matrix)
    out = {str(k): [] for k in range(cfg.k_range[0], cfg.k_range[1] + 1)}
    if batched:
        for k, _, _, pursuit in experiments.trial_outcomes(cfg, mat):
            for t, steps in enumerate(pursuit.iterations.tolist()):
                out[str(k)].append("rank-deficient" if t in pursuit.errors else pursuit.picks[t, :steps].tolist())
        return out
    for k, orders in out.items():
        for trial in range(cfg.trials):
            y = recovery.measure(mat, lone_signal(cfg, mat, int(k), trial))
            try:
                orders.append(list(recovery.matching_pursuit(mat, y, epsilon=cfg.epsilon).support))
            except RankDeficientError:
                orders.append("rank-deficient")
    return out


CLI_CASES = {
    "cli_coherence_etf30": ["coherence", "--matrix", "{matrix}", "--uniqueness-k", "2", "--rip-k", "3"],
    "cli_recover_oracle_etf30": ["recover", "--matrix", "{matrix}", "--measurements", "{y}", "--oracle"],
}


def cli_stdout(name: str) -> str:
    """stdout of a CLI case on the 15x30 ETF and a 3-sparse signal with a -0.0 imaginary part."""
    mat = matrices.build_etf(15, 30)
    x = recovery.SparseSignal(30, (2, 5, 19), np.array([1.0, complex(-0.5, -0.0), 0.25 + 0.75j]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"matrix": f"{tmp}/etf30.json", "y": f"{tmp}/y.json"}
        matrices.save_matrix(mat, paths["matrix"])
        recovery.save_measurement(recovery.measure(mat, x), paths["y"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([arg.format(**paths) for arg in CLI_CASES[name]]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_matches_golden(name):
    assert cli_stdout(name) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_report_matches_golden(name):
    assert report_text(golden_configs()[name]) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_cli_experiment_writes_the_golden_report(tmp_path, name):
    """The files csense experiment writes: the golden report byte for byte, and the report's CSV lines."""
    cfg = golden_configs()[name]
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(to_dict(cfg)), encoding="utf-8")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    csv_text = "\n".join(experiments.run_experiment(cfg).csv_lines()) + "\n"
    assert (tmp_path / "report.csv").read_bytes() == csv_text.encode("utf-8")


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_selection_order_matches_golden(name):
    frozen = json.loads((GOLDEN / "selection_order.json").read_text(encoding="utf-8"))
    assert selection_order(golden_configs()[name]) == frozen[name]


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_batched_selection_order_matches_golden(name):
    frozen = json.loads((GOLDEN / "selection_order.json").read_text(encoding="utf-8"))
    assert selection_order(golden_configs()[name], batched=True) == frozen[name]


if __name__ == "__main__":
    for name, cfg in golden_configs().items():
        (GOLDEN / f"{name}.json").write_text(report_text(cfg), encoding="utf-8")
    order = {name: selection_order(cfg) for name, cfg in golden_configs().items()}
    (GOLDEN / "selection_order.json").write_text(json.dumps(order) + "\n", encoding="utf-8")
    for name in CLI_CASES:
        (GOLDEN / f"{name}.txt").write_text(cli_stdout(name), encoding="utf-8")
