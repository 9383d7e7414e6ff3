"""The JSON formats: one helper pair for files, one record encoder, and complex <-> [re, im] pairs.

Floats are emitted through Python's shortest round-trip repr, so parsing
the written text recovers bit-identical doubles.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import math

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


def to_dict(record) -> dict:
    """A dataclass record as JSON-ready dicts: its fields in declaration order, nested records included."""
    return dataclasses.asdict(record, dict_factory=_json_fields)


def _json_fields(items) -> dict:
    """asdict's dict_factory: tuples become lists, complex arrays [re, im] pairs, inf and NaN null.

    JSON (RFC 8259) has no Infinity or NaN, so a non-finite float field is written as null.
    """
    out = {}
    for name, value in items:
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, np.ndarray) and np.iscomplexobj(value):
            value = complex_to_pairs(value)
        out[name] = value
    return out


@contextlib.contextmanager
def decoding(what: str):
    """Report JSON of the wrong shape or value as a ValueError("malformed what: ...").

    That is a plain TypeError, ValueError, OverflowError from an integer too large
    for a double, or KeyError from a missing key; their subclasses, such as
    UnsupportedSizeError, pass through unchanged.
    """
    try:
        yield
    except (TypeError, ValueError, OverflowError, KeyError) as exc:
        if type(exc) not in (TypeError, ValueError, OverflowError, KeyError):
            raise
        detail = f"missing key {exc}" if type(exc) is KeyError else exc
        raise ValueError(f"malformed {what}: {detail}") from exc


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
