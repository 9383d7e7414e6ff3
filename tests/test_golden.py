"""Frozen experiment reports for the acceptance configs of criteria 8 and 12.

The reports and the per-trial selection order of every pursuit behind them
were written once under the deterministic tie rule and must be reproduced
exactly: a report's rates can survive a change of pick order (386 of the 500
criterion-12 trials changed order when the tie rule came in, the rates did
not), the frozen order cannot. To rewrite them after a deliberate change of
output, run ``PYTHONPATH=src python tests/test_golden.py`` and record why.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from csense import experiments, matrices, recovery
from csense.cli import figure_scenario
from csense.errors import RankDeficientError

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
    return json.dumps(experiments.run_experiment(cfg).to_dict(), indent=2) + "\n"


def selection_order(cfg: experiments.ExperimentConfig) -> dict[str, list]:
    """Per k, each trial's pursuit support in selection order ("rank-deficient" if it aborted)."""
    mat = matrices.from_spec(**cfg.matrix)
    out = {}
    for k in range(cfg.k_range[0], cfg.k_range[1] + 1):
        picks = []
        for trial in range(cfg.trials):  # the trial draws of experiments.run_experiment
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, k, trial)))
            support = matrices.draw_without_replacement(rng, mat.n, k)
            x = recovery.SparseSignal(mat.n, support, experiments._draw_values(rng, k, cfg))
            try:
                result = recovery.matching_pursuit(mat, recovery.measure(mat, x), epsilon=cfg.epsilon, relative=True)
                picks.append(list(result.support))
            except RankDeficientError:
                picks.append("rank-deficient")
        out[str(k)] = picks
    return out


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_report_matches_golden(name):
    assert report_text(golden_configs()[name]) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_selection_order_matches_golden(name):
    frozen = json.loads((GOLDEN / "selection_order.json").read_text(encoding="utf-8"))
    assert selection_order(golden_configs()[name]) == frozen[name]


if __name__ == "__main__":
    for name, cfg in golden_configs().items():
        (GOLDEN / f"{name}.json").write_text(report_text(cfg), encoding="utf-8")
    order = {name: selection_order(cfg) for name, cfg in golden_configs().items()}
    (GOLDEN / "selection_order.json").write_text(json.dumps(order) + "\n", encoding="utf-8")
