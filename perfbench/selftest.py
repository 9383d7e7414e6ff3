"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py [workload ...]

Checks that span self time is inclusive time minus child time, that every
patched name is restored (also when a traced call raises), and that for each
workload two independent traced runs give exactly the same per-layer counts
and pass their output checks. Exits 1 and lists the problems otherwise.
"""
from __future__ import annotations

import contextlib
import shutil
import sys
import tempfile
import types

import run
from tracing import Tracer, patch_table, patched

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def test_self_time() -> None:
    tracer = Tracer()

    def child():
        return sum(range(20_000))

    def parent():
        return tracer.span("child", child) + tracer.span("child", child)

    tracer.span("parent", parent)
    expect(tracer.calls["child"] == 2 and tracer.calls["parent"] == 1, f"span calls {dict(tracer.calls)}")
    expect(tracer.self_time["child"] == tracer.inclusive["child"], "a leaf span's self time != its inclusive time")
    parent_self = tracer.inclusive["parent"] - tracer.inclusive["child"]
    expect(abs(tracer.self_time["parent"] - parent_self) < 1e-9, "parent self time is not inclusive minus children")


def test_restore_on_error() -> None:
    def boom(x):
        raise ValueError(x)

    owner = types.SimpleNamespace(f=boom)
    tracer = Tracer()
    try:
        with patched(tracer, [(owner, "f", "owner.f", None)]):
            expect(owner.f is not boom, "patched did not install the wrapper")
            owner.f(1)
    except ValueError:
        pass
    expect(owner.f is boom, "patched left a wrapper installed after an exception")
    expect(tracer.calls["owner.f"] == 1, "a raising call was not recorded as a span")


def traced_counts(workload_cls, seed: int, modules, linalg) -> dict[str, float]:
    """One traced pass of a workload in a fresh directory; its count metrics."""
    name = workload_cls.name
    units = run.per_layer_units()
    run.SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.SCRATCH)
    try:
        workload = workload_cls(workdir, seed)
        workload.make_inputs()
        workload.prepare_checks()
        table = patch_table(modules, linalg)
        originals = [getattr(owner, attr) for owner, attr, _, _ in table]
        runner = run.Runner(modules["cli"], workload, table)
        tracer = Tracer()
        runner.run_pass(tracer)
        restored = all(getattr(owner, attr) is orig for (owner, attr, _, _), orig in zip(table, originals))
        expect(restored, f"{name}: a csense or numpy.linalg function stayed patched after a traced pass")
        expect(not runner.failures, f"{name}: output checks failed: {runner.failures}")
        values = run.layer_values(tracer)
        return {k: v for k, v in values.items() if units[k] in ("count", "bytes", "ratio")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str]) -> int:
    run.pin_blas()
    modules = run.import_csense()
    import numpy.linalg

    import workloads

    test_self_time()
    test_restore_on_error()
    for name in argv or sorted(workloads.WORKLOADS):
        first = traced_counts(workloads.WORKLOADS[name], 0, modules, numpy.linalg)
        second = traced_counts(workloads.WORKLOADS[name], 0, modules, numpy.linalg)
        changed = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        expect(not changed, f"{name}: per-layer counts differ between traced runs: {changed}")
        expect(first["numerics.lapack.matrices"] > 0, f"{name}: traced run counted no factorization")
        print(f"{name}: {len(first)} per-layer counts, {len(changed)} differ between traced runs", flush=True)
    with contextlib.suppress(OSError):
        run.SCRATCH.rmdir()
    for message in problems:
        print(f"FAIL: {message}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
