"""The JSON file formats: one helper pair for files, and complex <-> [re, im] pairs.

Floats are emitted through Python's shortest round-trip repr, so parsing
the written text recovers bit-identical doubles.
"""
from __future__ import annotations

import json

import numpy as np


def save_json(obj, path) -> None:
    """Write obj as one line of JSON plus a newline.

    json.dumps runs the C encoder; json.dump would encode through the
    pure-Python chunked path, for the same text.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
        fh.write("\n")


def load_json(path):
    """Parse a JSON file written by save_json."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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
