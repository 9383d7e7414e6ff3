"""What the benchmark in perfbench/ reads of csense, checked in tier-1.

perfbench/tracing.py patches csense functions by module and name, and
perfbench/workloads.py imports csense names and drives the CLI. A rename or
deletion in csense that breaks either shows up here, not only as a failed
benchmark run. The perfbench files are loaded by path and left unchanged.
"""
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy.linalg
import pytest

from csense import cli, coherence, experiments, matrices, numerics, recovery, serialization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module named csense_perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"csense_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

MODULES = {
    "cli": cli, "experiments": experiments, "recovery": recovery, "coherence": coherence,
    "numerics": numerics, "matrices": matrices, "serialization": serialization,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_step_passes_traced(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), 0)
    workload.make_inputs()
    workload.prepare_checks()
    table = tracing.patch_table(MODULES, numpy.linalg)
    for step in workload.steps():
        out, err = io.StringIO(), io.StringIO()
        with tracing.patched(tracing.Tracer(), table), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(step.argv)
        assert code == 0, (step.argv, err.getvalue())
        message = step.check(out.getvalue())
        assert message is None, (step.argv, message)
