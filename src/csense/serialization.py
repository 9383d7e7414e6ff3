"""The JSON formats: the file writers and reader, one record encoder, frozen JSON values, and complex arrays as text.

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

# Bytes base64 encodes at a time in matrix files; a multiple of 3, so no block but the last has padding.
BASE64_BLOCK = 3 * 2**16


def save_json(obj, path) -> None:
    """Write obj as one line of JSON plus a newline.

    json.dumps runs the C encoder; json.dump would encode through the
    pure-Python chunked path, for the same text. The text is whole before the
    file opens, so a value JSON cannot encode leaves the file as it was.
    """
    text = json.dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def save_json_with_base64(obj: dict, key: str, values, path) -> None:
    """save_json({**obj, key: complex_to_base64(values)}, path), byte for byte; obj must not hold key.

    The base64 text never becomes a str or part of json.dumps's text: json.dumps
    writes obj with key's value left empty, and the base64 blocks go into the
    file between its quotes. json.dumps escapes every non-ASCII character, so
    its text is ASCII, and base64 needs no JSON escape. Everything is encoded
    before the file opens.
    """
    head = json.dumps({**obj, key: ""}).encode("ascii")
    blocks = list(_base64_blocks(np.ascontiguousarray(values, dtype="<c16")))
    with open(path, "wb") as fh:
        fh.write(head[:-2])  # up to the empty value's opening quote
        fh.writelines(blocks)
        fh.write(b'"}\n')


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


def _base64_blocks(raw):
    """The base64 of raw's bytes, BASE64_BLOCK bytes at a time; joined, they are the base64 of all of raw.

    CPython 3.11's b2a_base64 allocates two bytes per input byte before it
    trims its result, so one call over all of raw would peak at 1.5 times the
    text it returns.
    """
    view = memoryview(raw).cast("B")
    return (binascii.b2a_base64(view[i : i + BASE64_BLOCK], newline=False) for i in range(0, len(view), BASE64_BLOCK))


def base64_to_complex(text: str) -> np.ndarray:
    """Inverse of complex_to_base64: a read-only 1-D complex128 view of the decoded bytes.

    Only the canonical text is accepted: a2b_base64 skips characters outside
    the alphabet and ignores stray padding bits, so the bytes must encode back
    to exactly the text given. They are encoded back a block at a time, each
    block compared in place with its stretch of the text, so no whole
    re-encoded copy is held; with the length check, that compares all of it.
    """
    try:
        raw = binascii.a2b_base64(text)
    except binascii.Error as exc:  # a ValueError subclass, which decoding() would let through unlabelled
        raise ValueError(f"data is not base64: {exc}") from None
    starts = itertools.count(0, BASE64_BLOCK // 3 * 4)
    if len(text) != 4 * -(-len(raw) // 3) or not all(
        text.startswith(block.decode("ascii"), start) for start, block in zip(starts, _base64_blocks(raw))
    ):
        raise ValueError("data is not canonical base64")
    if len(raw) % 16:
        raise ValueError(f"data holds {len(raw)} bytes, not a whole number of 16-byte complex128 values")
    return np.frombuffer(raw, dtype="<c16")


def pairs_to_complex(pairs) -> np.ndarray:
    """Inverse of complex_to_pairs; returns a 1-D complex128 array.

    The pairs are reinterpreted in place, never added up as re + 1j*im, which
    would turn a -0.0 imaginary part into +0.0. Entries must be numbers, since
    numpy alone would read the JSON string "1" as 1.0 and null as NaN.
    """
    if isinstance(pairs, str):
        raise ValueError("expected a list of [re, im] pairs, got a string")
    arr = np.array(pairs, dtype=np.float64, order="C")
    if arr.size == 0:
        return np.zeros(0, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("expected a list of [re, im] pairs")
    kinds = set(map(type, itertools.chain.from_iterable(pairs)))
    if not BOOLS.isdisjoint(kinds):
        raise ValueError("[re, im] pairs must hold numbers, not booleans")
    if not all(issubclass(kind, (int, float, np.integer, np.floating)) for kind in kinds):  # numpy reals: a float array
        raise ValueError("[re, im] pairs must hold numbers, not strings or null")
    return arr.view(np.complex128).reshape(-1)
