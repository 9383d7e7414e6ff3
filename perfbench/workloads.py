"""The benchmark's workloads: inputs made from a seed, CLI steps, output checks.

Each workload is a list of ``csense`` command lines run one after the other
(a closed loop with one caller). A pass runs every step once. Steps check
their own output; the runner also requires every pass to reproduce the
first pass's stdout and output files byte for byte.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from csense import cli, coherence, experiments, matrices, recovery

# Seeds of tests/test_acceptance.py (criteria 8 and 12); --seed 0 reproduces them.
GUARANTEE_SEED = 20260810
CONSERVATIVENESS_SEED = 424242
RIP_TOL = 1e-10


@dataclass
class Step:
    """One CLI invocation; check(stdout) returns a failure message or None."""

    argv: list[str]
    check: Callable[[str], str | None]
    outputs: tuple[str, ...] = field(default_factory=tuple)


def _parse_summary(stdout: str) -> dict:
    """``key = value`` lines printed by ``csense gen-matrix``."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _bit_mismatches(expected: np.ndarray, actual: np.ndarray) -> int | None:
    """Entries whose bits differ only in the sign of a zero; None if any other bit differs.

    JSON keeps -0.0, but csense's pairs_to_complex rebuilds re + 1j*im, which
    turns a -0.0 imaginary part into +0.0. The flips are recorded, not gated.
    """
    if expected.shape != actual.shape:
        return None
    x = np.ascontiguousarray(expected).view(np.float64)
    y = np.ascontiguousarray(actual).view(np.float64)
    differ = x.view(np.uint64) != y.view(np.uint64)
    if np.any(differ & ((x != 0.0) | (y != 0.0))):
        return None
    return int(np.count_nonzero(differ))


def _random_values(rng: np.random.Generator, k: int) -> np.ndarray:
    mags = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=k))
    return mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=k))


class Workload:
    """Base: subclasses set name, work_unit and implement the hooks."""

    name = ""
    work_unit = ""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = int(seed)
        self.recorded: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_inputs(self) -> None:
        """Write the input files the steps read (timed as set-up)."""

    def prepare_checks(self) -> None:
        """Compute reference values for the checks (not timed)."""

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def work_per_pass(self) -> float:
        raise NotImplementedError


class _ExperimentWorkload(Workload):
    """Runs ``csense experiment`` on each of self.configs()."""

    work_unit = "trial"

    def configs(self) -> dict[str, dict]:
        raise NotImplementedError

    def make_inputs(self) -> None:
        for label, cfg in self.configs().items():
            with open(self.path(f"{label}.json"), "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)

    def work_per_pass(self) -> float:
        return float(
            sum(cfg["trials"] * (cfg["k_range"][1] - cfg["k_range"][0] + 1) for cfg in self.configs().values())
        )

    def gated_rows(self, label: str, report: dict) -> list[dict]:
        """Report rows that must recover exactly in every trial."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        return [self._step(label) for label in self.configs()]

    def _step(self, label: str) -> Step:
        report_path = self.path(f"{label}.report.json")
        csv_path = self.path(f"{label}.report.csv")

        def check(stdout: str) -> str | None:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            self.recorded[f"{label}.exact_rates"] = [row["exact_recovery_rate"] for row in report["rows"]]
            for row in self.gated_rows(label, report):
                if row["exact_recovery_rate"] != 1.0:
                    return f"{label}: k={row['k']} exact_recovery_rate={row['exact_recovery_rate']}"
            return None

        argv = ["experiment", "--config", self.path(f"{label}.json"), "--out", report_path]
        return Step(argv, check, (report_path, csv_path))


class Montecarlo(_ExperimentWorkload):
    """The acceptance guarantee suite (criterion 8) plus criterion 12."""

    name = "montecarlo"

    def configs(self) -> dict[str, dict]:
        rows = list(cli.figure_scenario("fig3")[0].meta["rows"])
        guarantee = [
            ("etf14", {"family": "etf", "m": 7, "n": 14}, 2),
            ("etf30", {"family": "etf", "m": 15, "n": 30}, 3),
            ("fig3", {"family": "partial-dft", "n": 16, "rows": rows}, 2),
        ]
        out = {
            label: {
                "matrix": spec,
                "k_range": [1, k_max],
                "trials": 500,
                "amplitude_model": experiments.AMPLITUDE_RANDOM,
                "seed": GUARANTEE_SEED + self.seed,
            }
            for label, spec, k_max in guarantee
        }
        out["beyond"] = {
            "matrix": {"family": "etf", "m": 7, "n": 14},
            "k_range": [3, 3],
            "trials": 500,
            "amplitude_model": experiments.AMPLITUDE_UNIT_EQUAL,
            "seed": CONSERVATIVENESS_SEED + self.seed,
        }
        return out

    def gated_rows(self, label: str, report: dict) -> list[dict]:
        # criterion 12 (k=3 on 7x14) lies beyond the certificate: recorded, not gated
        if label == "beyond":
            return []
        return [row for row in report["rows"] if row["k"] <= report["k_max_theory"]]


class PursuitLarge(_ExperimentWorkload):
    """Few long pursuits on a 256x1024 partial DFT with seeded rows."""

    name = "pursuit_large"

    def configs(self) -> dict[str, dict]:
        return {
            "dft1024": {
                "matrix": {"family": "partial-dft", "m": 256, "n": 1024, "seed": self.seed},
                "k_range": [16, 40],
                "trials": 4,
                "amplitude_model": experiments.AMPLITUDE_RANDOM,
                "seed": self.seed,
            }
        }

    def gated_rows(self, label: str, report: dict) -> list[dict]:
        # every k here is beyond the coherence certificate, yet all recover exactly
        return report["rows"]


class Scan(Workload):
    """Brute-force scans: uniqueness and isometry on the 15x30 ETF, then the oracle."""

    name = "scan"
    work_unit = "subset"
    M, N = 15, 30
    UNIQUENESS_K = 2
    RIP_K = 3
    SPARSITY = 3

    def make_inputs(self) -> None:
        mat = matrices.build_etf(self.M, self.N)
        matrices.save_matrix(mat, self.path("etf30.json"))
        rng = np.random.default_rng(self.seed)
        support = matrices.draw_without_replacement(rng, mat.n, self.SPARSITY)
        x = recovery.SparseSignal(mat.n, support, _random_values(rng, self.SPARSITY))
        recovery.save_signal(x, self.path("x.json"))
        recovery.save_measurement(recovery.measure(mat, x), self.path("y.json"))

    def prepare_checks(self) -> None:
        self.mu = coherence.coherence_index(matrices.load_matrix(self.path("etf30.json"))).mu
        self.support = recovery.load_signal(self.path("x.json")).support

    def work_per_pass(self) -> float:
        l0 = sum(math.comb(self.N, k) for k in range(1, self.SPARSITY + 1))
        return float(math.comb(self.N, 2 * self.UNIQUENESS_K) + math.comb(self.N, self.RIP_K) + l0)

    def steps(self) -> list[Step]:
        matrix = self.path("etf30.json")

        def check_scans(stdout: str) -> str | None:
            payload = json.loads(stdout)
            uniq, rip = payload["uniqueness"], payload["rip"]
            if payload["coherence"]["mu"] != self.mu:
                return f"printed mu {payload['coherence']['mu']!r} != library mu {self.mu!r}"
            total = math.comb(self.N, 2 * self.UNIQUENESS_K)
            if not (uniq["all_full_rank"] and uniq["scanned"] == uniq["total_subsets"] == total):
                return f"uniqueness scan incomplete or rank deficient: {uniq}"
            # three columns of this ETF can have aligned phases, so delta_3 reaches 2*mu
            if abs(rip["delta"] - 2.0 * self.mu) > RIP_TOL or rip["subsets_scanned"] != math.comb(self.N, self.RIP_K):
                return f"rip k={self.RIP_K}: {rip} vs 2*mu = {2.0 * self.mu!r}"
            return None

        def check_oracle(stdout: str) -> str | None:
            payload = json.loads(stdout)
            solutions = payload["oracle"]["solutions"]
            minimal = [s for s in solutions if len(s["support"]) == len(solutions[0]["support"])]
            if len(minimal) != 1 or tuple(minimal[0]["support"]) != self.support:
                return f"oracle minimal supports {[s['support'] for s in minimal]} != {list(self.support)}"
            if payload["oracle"]["ambiguous"] or not payload["oracle"]["agrees_with_pursuit"]:
                return "oracle disagrees with the pursuit"
            if not payload["recovery"]["converged"]:
                return "pursuit did not converge"
            return None

        scan_argv = ["coherence", "--matrix", matrix, "--uniqueness-k", str(self.UNIQUENESS_K), "--rip-k", str(self.RIP_K)]
        oracle_argv = ["recover", "--matrix", matrix, "--measurements", self.path("y.json"), "--oracle"]
        return [Step(scan_argv, check_scans), Step(oracle_argv, check_oracle)]


class MatrixIO(Workload):
    """Large matrices written and read back as JSON, plus the ETF fallback route."""

    name = "matrix_io"
    work_unit = "MB"
    LARGE = (("gaussian", "gauss.json"), ("partial-dft", "dft.json"))
    ETF = ("etf", "etf5x11.json")

    def _spec(self, family: str) -> dict:
        if family == "etf":
            return {"family": "etf", "m": 5, "n": 11}
        return {"family": family, "m": 128, "n": 1024, "seed": self.seed}

    def prepare_checks(self) -> None:
        self.reference = {}
        for family, _ in self.LARGE + (self.ETF,):
            mat = matrices.from_spec(**self._spec(family))
            self.reference[family] = (mat.data, coherence.coherence_index(mat).mu)
        self.verified = set()

    def work_per_pass(self) -> float:
        written = sum(os.path.getsize(self.path(name)) for _, name in self.LARGE + (self.ETF,))
        read = sum(os.path.getsize(self.path(name)) for _, name in self.LARGE)
        return (written + read) / 1e6

    def _gen_step(self, family: str, name: str) -> Step:
        spec = self._spec(family)
        argv = ["gen-matrix", "--family", family, "--m", str(spec["m"]), "--n", str(spec["n"]),
                "--out", self.path(name)]
        if "seed" in spec:
            argv += ["--seed", str(spec["seed"])]
        data, mu = self.reference[family]

        def check(stdout: str) -> str | None:
            printed = float(_parse_summary(stdout)["mu"])
            if printed != mu:
                return f"{family}: printed mu {printed!r} != library mu {mu!r}"
            if family not in self.verified:  # later passes must match this file byte for byte
                self.verified.add(family)
                flips = _bit_mismatches(data, matrices.load_matrix(self.path(name)).data)
                if flips is None:
                    return f"{family}: load(save(A)) differs from A"
                self.recorded[f"{family}.signed_zero_flips"] = flips
            return None

        return Step(argv, check, (self.path(name),))

    def _coherence_step(self, family: str, name: str) -> Step:
        mu = self.reference[family][1]

        def check(stdout: str) -> str | None:
            printed = json.loads(stdout)["coherence"]["mu"]
            return None if printed == mu else f"{family}: coherence mu {printed!r} != library mu {mu!r}"

        return Step(["coherence", "--matrix", self.path(name)], check)

    def steps(self) -> list[Step]:
        out = []
        for family, name in self.LARGE:
            out += [self._gen_step(family, name), self._coherence_step(family, name)]
        out.append(self._gen_step(*self.ETF))
        return out


WORKLOADS = {w.name: w for w in (Montecarlo, Scan, PursuitLarge, MatrixIO)}
