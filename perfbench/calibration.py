"""Host-speed calibration: a fixed kernel timed next to every timed command.

On a shared host the same command can run 1.5x slower from one minute to the
next, because other tenants load the same physical cores. The kernel here
does a fixed amount of work of the kinds csense does (small complex
factorizations through numpy.linalg, a dense complex product, JSON encoding
and decoding, plain interpreter loops) and depends on nothing in csense, so
no change to csense moves its time. The runner times it before and after
each command and rescales the command's wall time by

    REFERENCE_S / (mean of the two kernel times)

which reads as the command's time on the reference host at the reference
speed. Raw wall times are kept in the detail record next to the rescaled ones.
"""
from __future__ import annotations

import json
import time

import numpy as np

# Median time of one kernel call on the host where the benchmark was defined:
# 2-vCPU shared virtual machine, Intel Xeon, Python 3.11.7, numpy 2.4.6 with
# OpenBLAS 0.3.31 on one thread. Only a scale: ratios between runs do not use it.
REFERENCE_S = 0.020


class Calibration:
    """Callable timing one run of the fixed kernel; inputs are made once."""

    def __init__(self):
        rng = np.random.default_rng(20260810)
        self.small = [rng.standard_normal((15, 4)) + 1j * rng.standard_normal((15, 4)) for _ in range(8)]
        self.rhs = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        self.dense = rng.standard_normal((128, 512)) + 1j * rng.standard_normal((128, 512))
        self.vec = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        self.rows = rng.standard_normal((24, 64)).tolist()
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(24):
            for a in self.small:
                acc += float(np.linalg.svd(a, compute_uv=False)[-1])
                acc += float(np.linalg.lstsq(a, self.rhs, rcond=None)[0][0].real)
        for _ in range(12):
            acc += float(np.abs(self.dense.conj().T @ self.vec).max())
        for _ in range(4):
            text = json.dumps([[[v, -v] for v in row] for row in self.rows])
            acc += len(json.loads(text))
        table = {}
        for i in range(12000):
            table[i % 97] = table.get(i % 97, 0) + i
        return acc + sum(table.values())

    def __call__(self) -> float:
        """Seconds taken by one kernel run; also kept in self.samples."""
        start = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor turning a wall time measured between two kernel runs into reference seconds."""
        return REFERENCE_S / (0.5 * (before + after))
