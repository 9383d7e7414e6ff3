"""Complex <-> [re, im] pair conversion for the JSON file formats.

Floats are emitted through Python's shortest round-trip repr, so parsing
the written text recovers bit-identical doubles.
"""
from __future__ import annotations

import numpy as np


def complex_to_pairs(values) -> list[list[float]]:
    """Flatten (row-major) to a list of [re, im] pairs."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2).tolist()


def pairs_to_complex(pairs) -> np.ndarray:
    """Inverse of complex_to_pairs; returns a 1-D complex128 array.

    The pairs are reinterpreted in place as complex numbers, never added up
    as re + 1j*im, which would turn a -0.0 imaginary part into +0.0.
    """
    arr = np.array(pairs, dtype=np.float64, order="C")
    if arr.size == 0:
        return np.zeros(0, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    return arr.view(np.complex128).reshape(-1)
