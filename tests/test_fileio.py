"""Container format tests: round trips, determinism, and corruption handling."""

import json
import struct

import numpy as np
import pytest

from icuxai import fileio
from icuxai.errors import ParseError


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "weights": rng.normal(size=(3, 4)),
        "ids": np.arange(7, dtype=np.int64),
        "flags": np.array([True, False, True]),
    }


def test_round_trip_preserves_arrays_and_meta(tmp_path):
    path = tmp_path / "c.bin"
    meta = {"kind": "test", "nested": {"a": [1, 2, 3]}}
    arrays = sample_arrays()
    fileio.save_container(path, arrays, meta)
    loaded, got_meta = fileio.load_container(path)
    assert got_meta == meta
    assert set(loaded) == set(arrays)
    np.testing.assert_array_equal(loaded["weights"], arrays["weights"])
    np.testing.assert_array_equal(loaded["ids"], arrays["ids"])
    np.testing.assert_array_equal(loaded["flags"], arrays["flags"].astype(np.int64))
    assert loaded["weights"].dtype == np.float64
    assert loaded["ids"].dtype == np.int64


def test_bytes_are_deterministic_regardless_of_dict_order(tmp_path):
    arrays = sample_arrays()
    reordered = dict(reversed(list(arrays.items())))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    fileio.save_container(a, arrays, {"z": 1, "a": 2})
    fileio.save_container(b, reordered, {"a": 2, "z": 1})
    assert a.read_bytes() == b.read_bytes()


def test_empty_container_round_trips(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {}, {})
    arrays, meta = fileio.load_container(path)
    assert arrays == {} and meta == {}


def test_zero_length_array_round_trips(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {"empty": np.zeros((0, 4))})
    arrays, _ = fileio.load_container(path)
    assert arrays["empty"].shape == (0, 4)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, sample_arrays())
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="magic"):
        fileio.load_container(path)


def test_too_short_file_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(b"ICU")
    with pytest.raises(ParseError, match="too short"):
        fileio.load_container(path)


def test_truncated_payload_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, sample_arrays())
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(ParseError, match="truncated"):
        fileio.load_container(path)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, sample_arrays())
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="checksum"):
        fileio.load_container(path)


def _rewrite_header(path, mutate):
    raw = path.read_bytes()
    start = len(fileio.MAGIC) + 8
    (header_len,) = struct.unpack_from("<Q", raw, len(fileio.MAGIC))
    header = json.loads(raw[start:start + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(fileio.MAGIC + struct.pack("<Q", len(blob)) + blob
                     + raw[start + header_len:])


def test_unsupported_version_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, sample_arrays())
    _rewrite_header(path, lambda h: h.__setitem__("version", 99))
    with pytest.raises(ParseError, match="version"):
        fileio.load_container(path)


def test_unknown_wire_dtype_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {"x": np.zeros(2)})
    _rewrite_header(path, lambda h: h["arrays"][0].__setitem__("dtype", "<f2"))
    with pytest.raises(ParseError, match="dtype"):
        fileio.load_container(path)


def test_malformed_header_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    blob = b"not json at all"
    path.write_bytes(fileio.MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ParseError, match="malformed"):
        fileio.load_container(path)


def test_complex_arrays_cannot_be_serialized(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        fileio.save_container(tmp_path / "c.bin", {"x": np.zeros(2, dtype=complex)})


def test_loaded_arrays_are_writable_copies(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {"x": np.arange(3.0)})
    arrays, _ = fileio.load_container(path)
    arrays["x"][0] = 99.0  # must not raise (frombuffer alone would be read-only)


def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with fileio.atomic_open(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("disk full")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    with fileio.atomic_open(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_failed_container_write_keeps_the_old_container(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {"a": np.arange(3.0)}, {"v": 1})
    before = path.read_bytes()

    def fail(*args):
        raise OSError("no space left on device")

    monkeypatch.setattr(fileio.os, "fsync", fail)
    with pytest.raises(OSError):
        fileio.save_container(path, {"a": np.arange(5.0)}, {"v": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]
