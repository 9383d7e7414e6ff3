"""The JSON formats: one helper pair for files, one record encoder, frozen JSON values, and complex arrays as text.

A complex array is written one of two ways, and both read back bit-identical:
- a matrix's data as one base64 string (RFC 4648) of its row-major
  little-endian complex128 bytes, exact and compact;
- everything else (signals, measurements, reports) as [re, im] pairs, whose
  floats go through Python's shortest round-trip repr, so people can read
  and type them.
"""
from __future__ import annotations

import binascii  # numpy imports it already, so it costs csense's import nothing
import contextlib
import dataclasses
import itertools
import json
import math
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

# JSON true and false parse to these; they compare equal to 1 and 0 but are not numbers.
BOOLS = frozenset((bool, np.bool_))


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


def freeze(value):
    """A deep, read-only copy of a JSON value: objects as MappingProxyType, arrays (lists or tuples) as tuples."""
    if isinstance(value, Mapping):
        return MappingProxyType({key: freeze(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(map(freeze, value))
    return value


def thaw(value):
    """Inverse of freeze: the dicts and lists json.dumps writes."""
    if isinstance(value, Mapping):
        return {key: thaw(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return list(map(thaw, value))
    return value


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


def complex_to_base64(values) -> str:
    """Row-major little-endian complex128 bytes of values as one base64 string, without a newline."""
    return binascii.b2a_base64(np.ascontiguousarray(values, dtype="<c16"), newline=False).decode("ascii")


def base64_to_complex(text: str) -> np.ndarray:
    """Inverse of complex_to_base64: a read-only 1-D complex128 view of the decoded bytes.

    Only the canonical text is accepted: a2b_base64 skips characters outside
    the alphabet and ignores stray padding bits, so the bytes must encode back
    to exactly the text given.
    """
    try:
        raw = binascii.a2b_base64(text)
    except binascii.Error as exc:  # a ValueError subclass, which decoding() would let through unlabelled
        raise ValueError(f"data is not base64: {exc}") from None
    if binascii.b2a_base64(raw, newline=False) != text.encode("ascii"):
        raise ValueError("data is not canonical base64")
    if len(raw) % 16:
        raise ValueError(f"data holds {len(raw)} bytes, not a whole number of 16-byte complex128 values")
    return np.frombuffer(raw, dtype="<c16")


def pairs_to_complex(pairs) -> np.ndarray:
    """Inverse of complex_to_pairs; returns a 1-D complex128 array.

    The pairs are reinterpreted in place as complex numbers, never added up
    as re + 1j*im, which would turn a -0.0 imaginary part into +0.0.
    """
    if isinstance(pairs, str):
        raise ValueError("expected a list of [re, im] pairs, got a string")
    arr = np.array(pairs, dtype=np.float64, order="C")
    if arr.size == 0:
        return np.zeros(0, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    if not BOOLS.isdisjoint(map(type, itertools.chain.from_iterable(pairs))):
        raise ValueError("[re, im] pairs must hold numbers, not booleans")
    return arr.view(np.complex128).reshape(-1)
