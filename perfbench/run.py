"""Benchmark of the csense CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload montecarlo --seed 0 --seconds 25 --trace 0

One process runs one workload. It imports csense from ``src/`` (and fails if
that is missing), makes the workload's inputs from the seed, then drives
``csense.cli.main(argv)`` in-process: a closed loop with one caller, each
command started after the previous one returned. BLAS is pinned to one thread
before numpy is imported.

The first pass warms caches and is not timed; passes repeat until --seconds
have elapsed. Each timed command runs between two runs of a fixed calibration
kernel and its wall time is rescaled to reference seconds by them (see
calibration.py), which cancels the shifts in host speed. Set-up (import
csense in a fresh interpreter, make the inputs) is rescaled the same way and
repeated after each timed pass, so its samples span the run as the pass
samples do. Every command's exit code and output are checked, and every pass
must reproduce the first pass's output byte for byte.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones plus the
tracing overhead. The second-to-last stdout line is a JSON record with
provenance and every sample; the last line is the result.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer, patch_table, patched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"  # inputs and outputs of running workloads
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
MIN_SETUP_SAMPLES = 5
CALIBRATION_WARMUP = 5
DOCUMENTED_EXIT_CODES = (0, 2, 3, 4, 5)
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import csense\n"
    "print(time.perf_counter() - start)\n"
)

# Per-layer metrics: (name, unit). Spans give calls/s/self_s, counters the rest.
SPAN_METRICS = {
    "experiments.run_experiment": ("s", "self_s"),
    "recovery.matching_pursuit": ("calls", "s", "self_s"),
    "recovery.exhaustive_l0_search": ("s", "self_s"),
    "coherence.coherence_index": ("calls", "s"),
    "coherence.uniqueness_rank_scan": ("s", "self_s"),
    "coherence.rip_constant": ("s", "self_s"),
    "numerics.solve_least_squares": ("calls", "s", "self_s"),
    "numerics.lapack": ("calls", "s"),
    "numerics.numerical_rank": ("calls", "s"),
    "numerics.gram": ("calls", "s"),
    "numerics.hermitian_eigen_extremes": ("calls", "s"),
    "matrices.from_spec": ("s",),
    "matrices.save_matrix": ("s",),
    "matrices.load_matrix": ("s",),
    "matrices.build_etf.paley_conference": ("s",),
    "matrices.build_etf.alternating_projections": ("s",),
    "serialization.complex_to_pairs": ("s",),
    "serialization.pairs_to_complex": ("s",),
    "cli.experiment": ("s",),
    "cli.coherence": ("s",),
    "cli.recover": ("s",),
    "cli.gen-matrix": ("s",),
}
COUNT_METRICS = {
    "experiments.trials": "count",
    "recovery.pursuit_iterations": "count",
    "recovery.pursuit_rank_deficient": "count",
    "recovery.pursuit_stalls": "count",
    "recovery.l0_supports": "count",
    "coherence.subsets": "count",
    "numerics.lapack.matrices": "count",
    "numerics.lapack.svd.calls": "count",
    "numerics.lapack.lstsq.calls": "count",
    "numerics.lapack.eigh.calls": "count",
    "numerics.lapack.eigvalsh.calls": "count",
    "matrices.bytes_written": "bytes",
    "matrices.bytes_read": "bytes",
    "serialization.complex_to_pairs.values": "count",
    "serialization.pairs_to_complex.values": "count",
}
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{span}.{kind}": UNITS[kind] for span, kinds in SPAN_METRICS.items() for kind in kinds}
    units.update(COUNT_METRICS)
    units["recovery.pursuit_converged_ratio"] = "ratio"
    units["coherence.scan_complete_ratio"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer) -> dict[str, float]:
    """Flatten one traced pass into per-layer metric values."""
    values = {}
    for span, kinds in SPAN_METRICS.items():
        for kind in kinds:
            source = {"calls": tracer.calls, "s": tracer.inclusive, "self_s": tracer.self_time}[kind]
            values[f"{span}.{kind}"] = float(source[span])
    for name in COUNT_METRICS:
        values[name] = float(tracer.counts[name])
    c = tracer.counts
    values["recovery.pursuit_converged_ratio"] = _ratio(
        c["recovery.pursuit_converged"], tracer.calls["recovery.matching_pursuit"]
    )
    values["coherence.scan_complete_ratio"] = _ratio(c["coherence.subsets"], c["coherence.subsets_total"])
    return values


def pin_blas() -> None:
    for key, value in BLAS_ENV.items():
        os.environ[key] = value


def import_csense() -> dict:
    """Import csense from this checkout's src/, never from anywhere else.

    Returns its modules by name, for the runner and the trace patch table.
    """
    if not (SRC / "csense" / "__init__.py").is_file():
        raise SystemExit(f"error: no csense sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import csense
    from csense import cli, coherence, experiments, matrices, numerics, recovery, serialization

    if Path(csense.__file__).resolve().parent != SRC / "csense":
        raise SystemExit(f"error: imported csense from {csense.__file__}, not from {SRC}")
    return {
        "csense": csense, "cli": cli, "experiments": experiments, "recovery": recovery,
        "coherence": coherence, "numerics": numerics, "matrices": matrices, "serialization": serialization,
    }


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _src_digest() -> str:
    files = sorted(p for p in (SRC / "csense").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    return _digest(*(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() for p in files))


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "csense_commit": _git_commit(),
        "csense_src_sha256": _src_digest(),
        "seed": seed,
    }


def _import_seconds() -> float:
    """Import time of csense (with numpy) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_once(workload) -> float:
    """One set-up: csense import in a fresh interpreter plus making the inputs."""
    imported = _import_seconds()
    start = time.perf_counter()
    workload.make_inputs()
    return imported + time.perf_counter() - start


class Runner:
    """Runs passes over one workload and keeps every sample and failure."""

    def __init__(self, cli, workload, table):
        self.cli = cli
        self.workload = workload
        self.table = table
        self.steps = workload.steps()
        self.reference = [None] * len(self.steps)  # first pass's output digests
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv, tracer):
        if tracer is None:
            return self.cli.main(argv)
        with patched(tracer, self.table):
            return tracer.span(f"cli.{argv[0]}", self.cli.main, argv)

    def run_pass(self, tracer=None) -> list[float]:
        """One pass over every step; returns the wall time of each command."""
        return [self.run_step(i, tracer) for i in range(len(self.steps))]

    def run_calibrated_pass(self, calibrate) -> tuple[list[float], list[float]]:
        """One untraced pass with the calibration kernel run before and after each step.

        Returns the raw wall time of each command and each one rescaled to
        reference seconds by the kernel runs on either side of it.
        """
        raw, scaled = [], []
        before = calibrate()
        for i in range(len(self.steps)):
            raw.append(self.run_step(i))
            after = calibrate()
            scaled.append(raw[-1] * calibrate.scale(before, after))
            before = after
        return raw, scaled

    def run_step(self, i, tracer=None) -> float:
        """Run and check step i once; returns its wall time."""
        step = self.steps[i]
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self._call(step.argv, tracer)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a raising command is a failed operation
            elapsed = time.perf_counter() - start
            self.failures.append(f"{step.argv[0]} raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        message = self._check(i, step, code, out.getvalue(), err.getvalue())
        if message is not None:
            self.failures.append(f"{step.argv[0]}: {message}")
        return elapsed

    def _check(self, i, step, code, stdout, stderr) -> str | None:
        if code not in DOCUMENTED_EXIT_CODES:
            return f"undocumented exit code {code!r}"
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        try:
            message = step.check(stdout)
            digest = _digest(stdout.encode(), *(Path(p).read_bytes() for p in step.outputs))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        if message is not None:
            return message
        if self.reference[i] is None:
            self.reference[i] = digest
        elif digest != self.reference[i]:
            return "output differs from the first pass"
        return None


def _percentile_tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return {"pct": None, "value": None, "max": max(samples)}
    pct = int(100 * (1 - 10 / n))
    return {"pct": pct, "value": statistics.quantiles(samples, n=100)[pct - 1], "max": max(samples)}


def calibrated_setup(workload, calibrate) -> tuple[float, float]:
    """One set-up between two calibration kernel runs: (raw s, reference s)."""
    before = calibrate()
    raw = setup_once(workload)
    return raw, raw * calibrate.scale(before, calibrate())


def measure(runner, calibrate, seconds: float, trace: bool) -> dict[str, list]:
    """Warm-up pass, then passes until `seconds` elapsed.

    Untraced runs time every command between two calibration kernel runs and
    repeat the set-up after each pass, so set-up samples span the run like
    pass samples do. Traced runs alternate untraced and traced passes.
    """
    start = time.perf_counter()
    runner.run_pass()  # warm-up: lazy imports, allocator and file cache
    s = {"raw": [], "scaled": [], "traced": [], "layers": [], "setup_raw": [], "setup_scaled": []}
    while (
        time.perf_counter() - start < seconds
        or not s["raw"]
        or (trace and not s["traced"])
        or (not trace and len(s["setup_raw"]) < MIN_SETUP_SAMPLES)
    ):
        if not trace:
            raw, scaled = runner.run_calibrated_pass(calibrate)
            s["raw"].append(raw)
            s["scaled"].append(scaled)
            for key, value in zip(("setup_raw", "setup_scaled"), calibrated_setup(runner.workload, calibrate)):
                s[key].append(value)
        elif len(s["traced"]) < len(s["raw"]):
            tracer = Tracer()
            s["traced"].append(runner.run_pass(tracer))
            s["layers"].append(layer_values(tracer))
        else:
            s["raw"].append(runner.run_pass())
    return s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance-test seeds")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_blas()
    modules = import_csense()
    import numpy.linalg

    import workloads
    from calibration import Calibration

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    calibrate = Calibration()
    for _ in range(CALIBRATION_WARMUP):
        calibrate()
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        first_setup = calibrated_setup(workload, calibrate)
        workload.prepare_checks()
        runner = Runner(modules["cli"], workload, patch_table(modules, numpy.linalg))
        samples = measure(runner, calibrate, args.seconds, bool(args.trace))
        work = workload.work_per_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it

    raw_passes = [sum(p) for p in samples["raw"]]
    failed = len(runner.failures)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "csense_version": modules["csense"].__version__,
        "provenance": provenance(args.seed),
        "load": "closed loop, one caller, no arrival rate",
        "raw_pass_s": {"median": statistics.median(raw_passes), "values": raw_passes},
        "raw_step_s": {f"{i}:{step.argv[0]}": [p[i] for p in samples["raw"]] for i, step in enumerate(runner.steps)},
        "work_per_pass": work,
        "work_unit": workload.work_unit,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:20],
        "recorded": workload.recorded,
    }
    if args.trace:
        metrics = {
            name: {"value": statistics.median(v[name] for v in samples["layers"]), "unit": u}
            for name, u in per_layer_units().items()
            if name != "trace.overhead_frac"
        }
        traced_passes = [sum(p) for p in samples["traced"]]
        overhead = statistics.median(traced_passes) / statistics.median(raw_passes) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        detail["traced_pass_s"] = traced_passes
    else:
        passes = [sum(p) for p in samples["scaled"]]
        pass_s = statistics.median(passes)
        setup_raw = [first_setup[0]] + samples["setup_raw"]
        setup = [first_setup[1]] + samples["setup_scaled"]
        unit = {"trial": "trials_per_s", "subset": "subsets_per_s", "MB": "json_mb_per_s"}[workload.work_unit]
        detail.update({
            "pass_s": {"median": pass_s, "samples": len(passes), "tail": _percentile_tail(passes), "values": passes},
            unit: work / pass_s,
            "setup_s_samples": setup,
            "raw_setup_s_samples": setup_raw,
            "calibration_s": {"median": statistics.median(calibrate.samples), "values": calibrate.samples},
        })
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "work_per_s": {"value": work / pass_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
