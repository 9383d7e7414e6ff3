"""Per-layer spans and counters for a traced benchmark pass.

The wrappers live here, in the benchmark, not in csense: ``patched`` swaps
each traced function for a wrapper at the place its callers look it up and
puts every original back on exit, so an untraced pass runs unmodified csense
code.

A span records calls, inclusive time and self time (inclusive time minus the
time of the spans it directly encloses). Counters record work done at the
same boundaries: iterations, subsets, matrices factored, values converted and
bytes moved.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import time
from collections import Counter

LAPACK_ROUTINES = ("svd", "lstsq", "eigh", "eigvalsh")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.last_elapsed = 0.0  # inclusive time of the span closed last
        self._child_time = []  # one accumulator per open span

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.last_elapsed = elapsed
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            self.calls[name] += 1
            self.inclusive[name] += elapsed
            self.self_time[name] += elapsed - children

    def wrap(self, name, fn, after=None):
        """Wrapper that spans fn; after(tracer, args, kwargs, result, exc) counts work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self.span(name, fn, *args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(self, args, kwargs, None, exc)
                raise
            if after is not None:
                after(self, args, kwargs, result, None)
            return result

        return wrapper


def _bound(fn, args, kwargs) -> dict:
    """Arguments of a call to fn by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_pursuit(tr, args, kwargs, result, exc):
    # a stall is a pursuit that returned without converging (no progress or the cap)
    if exc is not None:
        tr.counts["recovery.pursuit_rank_deficient"] += type(exc).__name__ == "RankDeficientError"
        return
    tr.counts["recovery.pursuit_iterations"] += result.iterations
    tr.counts["recovery.pursuit_converged"] += result.converged
    tr.counts["recovery.pursuit_stalls"] += not result.converged


def _count_l0(fn):
    def count(tr, args, kwargs, result, exc):
        if exc is None:
            call = _bound(fn, args, kwargs)
            total = sum(math.comb(call["a"].n, k) for k in range(1, int(call["k_max"]) + 1))
            tr.counts["recovery.l0_supports"] += min(total, call["max_subsets"])

    return count


def _count_uniqueness(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["coherence.subsets"] += result.scanned
        tr.counts["coherence.subsets_total"] += result.total_subsets


def _count_rip(fn):
    def count(tr, args, kwargs, result, exc):
        if exc is None:
            call = _bound(fn, args, kwargs)
            tr.counts["coherence.subsets"] += result.subsets_scanned
            tr.counts["coherence.subsets_total"] += math.comb(call["a"].n, int(call["k"]))

    return count


def _count_trials(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["experiments.trials"] += sum(row.trials for row in result.rows)


def _count_etf_route(tr, args, kwargs, result, exc):
    if exc is None:
        route = result.meta["route"].replace("-", "_")
        tr.inclusive[f"matrices.build_etf.{route}"] += tr.last_elapsed


def _count_saved(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["matrices.bytes_written"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _count_loaded(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["matrices.bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_to_pairs(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["serialization.complex_to_pairs.values"] += len(result)


def _count_from_pairs(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["serialization.pairs_to_complex.values"] += len(result)


def _count_lapack(routine):
    def count(tr, args, kwargs, result, exc):
        a = args[0] if args else kwargs["a"]
        shape = getattr(a, "shape", ())
        tr.counts["numerics.lapack.matrices"] += math.prod(shape[:-2]) if len(shape) > 2 else 1
        tr.counts[f"numerics.lapack.{routine}.calls"] += 1

    return count


def patch_table(csense_modules, linalg):
    """(owner, attribute, span name, counter) for every traced lookup site.

    csense_modules maps "numerics", "matrices", ... to the imported modules;
    linalg is numpy.linalg, patched so every factorization csense makes counts
    whichever module makes it.
    """
    m = csense_modules
    table = [
        (m["experiments"], "run_experiment", "experiments.run_experiment", _count_trials),
        (m["recovery"], "matching_pursuit", "recovery.matching_pursuit", _count_pursuit),
        (m["recovery"], "exhaustive_l0_search", "recovery.exhaustive_l0_search",
         _count_l0(m["recovery"].exhaustive_l0_search)),
        (m["coherence"], "coherence_index", "coherence.coherence_index", None),
        (m["coherence"], "uniqueness_rank_scan", "coherence.uniqueness_rank_scan", _count_uniqueness),
        (m["coherence"], "rip_constant", "coherence.rip_constant", _count_rip(m["coherence"].rip_constant)),
        (m["numerics"], "solve_least_squares", "numerics.solve_least_squares", None),
        (m["numerics"], "numerical_rank", "numerics.numerical_rank", None),
        (m["numerics"], "gram", "numerics.gram", None),
        (m["numerics"], "hermitian_eigen_extremes", "numerics.hermitian_eigen_extremes", None),
        (m["matrices"], "from_spec", "matrices.from_spec", None),
        (m["matrices"], "build_etf", "matrices.build_etf", _count_etf_route),
        (m["matrices"], "save_matrix", "matrices.save_matrix", _count_saved),
        (m["matrices"], "load_matrix", "matrices.load_matrix", _count_loaded),
    ]
    # imported by name into matrices and recovery, so patched where they are called
    for owner in ("serialization", "matrices", "recovery"):
        table.append((m[owner], "complex_to_pairs", "serialization.complex_to_pairs", _count_to_pairs))
        table.append((m[owner], "pairs_to_complex", "serialization.pairs_to_complex", _count_from_pairs))
    for routine in LAPACK_ROUTINES:
        table.append((linalg, routine, "numerics.lapack", _count_lapack(routine)))
    return table


@contextlib.contextmanager
def patched(tracer, table):
    """Install tracer wrappers for every entry of table; restore all on exit."""
    originals = []
    try:
        for owner, attr, name, after in table:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
