"""Single-file container: named tensors plus a JSON metadata header.

Layout::

    bytes 0..7    magic  b"ICUXAI01"
    bytes 8..15   uint64 little-endian header length
    then          UTF-8 JSON header
    then          raw little-endian array payload

The header carries the format version, a CRC-32 of the payload, one
entry per array (name, dtype, shape, offset, byte count) and a
free-form ``meta`` object. Checkpoints and datasets both use this
container.

Writes are deterministic: arrays are emitted in sorted name order and
the header is serialized with sorted keys and fixed separators, so the
same content always produces the same bytes. (A zip-based format was
rejected for exactly this reason — member timestamps make archives
non-reproducible.) Writes are also atomic: see :func:`atomic_open`.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError

MAGIC = b"ICUXAI01"
FORMAT_VERSION = 1

_HEADER_LEN = struct.Struct("<Q")
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing. A clean exit
    syncs it and renames it over ``path``; an error removes it, so
    ``path`` holds either its old content or the complete new one."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _wire_dtype(arr: np.ndarray) -> str:
    if np.issubdtype(arr.dtype, np.floating):
        return "<f8"
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        return "<i8"
    raise ValueError(f"cannot serialize array of dtype {arr.dtype}")


def save_container(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write ``arrays`` and ``meta`` to ``path`` as one container file."""
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        wire = _wire_dtype(np.asarray(arrays[name]))
        data = np.ascontiguousarray(arrays[name], dtype=_DTYPES[wire]).tobytes()
        entries.append({
            "name": name,
            "dtype": wire,
            "shape": list(np.asarray(arrays[name]).shape),
            "offset": len(payload),
            "nbytes": len(data),
        })
        payload += data
    header = {
        "version": FORMAT_VERSION,
        "crc32": zlib.crc32(bytes(payload)),
        "arrays": entries,
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER_LEN.pack(len(blob)))
        fh.write(blob)
        fh.write(payload)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _array_entries(path, entries) -> list[tuple[str, np.dtype, tuple, int, int]]:
    """(name, dtype, shape, offset, nbytes) of each header array entry."""
    if not isinstance(entries, list):
        raise ParseError(f"{path}: malformed header (arrays is not a list)")
    out = []
    for entry in entries:
        try:
            name, wire, shape = entry["name"], entry["dtype"], entry["shape"]
            offset, nbytes = entry["offset"], entry["nbytes"]
        except (KeyError, TypeError):
            raise ParseError(f"{path}: malformed array entry {entry!r}") from None
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(map(_is_count, [offset, nbytes, *shape]))):
            raise ParseError(f"{path}: malformed array entry {entry!r}")
        dtype = _DTYPES.get(wire) if isinstance(wire, str) else None
        if dtype is None:
            raise ParseError(f"{path}: unknown array dtype {wire!r}")
        out.append((name, dtype, tuple(shape), offset, nbytes))
    return out


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container written by :func:`save_container`.

    Returns ``(arrays, meta)``. Raises :class:`ParseError` on a bad
    magic, unsupported version, malformed header, truncation, or
    checksum mismatch.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + _HEADER_LEN.size:
        raise ParseError(f"{path}: too short to be a container file")
    if raw[:len(MAGIC)] != MAGIC:
        raise ParseError(f"{path}: bad magic, not a container file")
    (header_len,) = _HEADER_LEN.unpack_from(raw, len(MAGIC))
    body_start = len(MAGIC) + _HEADER_LEN.size
    payload_start = body_start + header_len
    if payload_start > len(raw):
        raise ParseError(f"{path}: truncated header")
    try:
        header = json.loads(raw[body_start:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"{path}: malformed header ({e})") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: malformed header (not a JSON object)")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported container version {version!r} "
                         f"(this build reads version {FORMAT_VERSION})")
    entries = _array_entries(path, header.get("arrays", []))
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: malformed header (meta is not an object)")
    payload = raw[payload_start:]
    expected = sum(entry[-1] for entry in entries)
    if len(payload) != expected:
        raise ParseError(f"{path}: truncated payload "
                         f"({len(payload)} bytes, header promises {expected})")
    if zlib.crc32(payload) != header.get("crc32"):
        raise ParseError(f"{path}: payload checksum mismatch")
    arrays = {}
    for name, dtype, shape, start, nbytes in entries:
        count = math.prod(shape)
        if count * dtype.itemsize != nbytes:
            raise ParseError(f"{path}: array {name!r} shape/bytes mismatch")
        if start + nbytes > len(payload):
            raise ParseError(f"{path}: array {name!r} lies outside the payload")
        flat = np.frombuffer(payload, dtype=dtype, count=count, offset=start)
        arrays[name] = flat.reshape(shape).copy()
    return arrays, meta
