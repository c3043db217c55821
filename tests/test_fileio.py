"""Container format tests: round trips, determinism, and corruption handling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("blob", [b"[]", b"7", b'"text"', b"null"])
def test_header_that_is_not_an_object_is_rejected(tmp_path, blob):
    path = tmp_path / "c.bin"
    path.write_bytes(fileio.MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ParseError, match="malformed header"):
        fileio.load_container(path)


@pytest.mark.parametrize("mutate", [
    lambda h: h.__setitem__("arrays", 5),
    lambda h: h.__setitem__("arrays", {"x": 1}),
    lambda h: h["arrays"][0].pop("nbytes"),
    lambda h: h["arrays"].__setitem__(0, ["x", "<f8"]),
    lambda h: h["arrays"][0].__setitem__("shape", 2),
    lambda h: h["arrays"][0].__setitem__("shape", [-2]),
    lambda h: h["arrays"][0].__setitem__("nbytes", "16"),
    lambda h: h["arrays"][0].__setitem__("offset", 1.5),
    lambda h: h["arrays"][0].__setitem__("name", ["x"]),
    lambda h: h["arrays"][0].__setitem__("dtype", ["<f8"]),
    lambda h: h.__setitem__("meta", []),
], ids=["arrays-int", "arrays-dict", "no-nbytes", "entry-list", "shape-int",
        "shape-negative", "nbytes-str", "offset-float", "name-list", "dtype-list",
        "meta-list"])
def test_malformed_array_entries_are_rejected(tmp_path, mutate):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {"x": np.zeros(2)})
    _rewrite_header(path, mutate)
    with pytest.raises(ParseError):
        fileio.load_container(path)


def test_array_outside_the_payload_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    fileio.save_container(path, {"x": np.zeros(2)})
    _rewrite_header(path, lambda h: h["arrays"][0].__setitem__("offset", 8))
    with pytest.raises(ParseError, match="outside the payload"):
        fileio.load_container(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.bin"


@pytest.fixture(scope="module")
def valid_container(fuzz_path):
    fileio.save_container(fuzz_path, sample_arrays(), {"kind": "test", "ids": ["a"]})
    return fuzz_path.read_bytes()


def _load_or_parse_error(path, data: bytes) -> None:
    """Load ``data`` as a container; any failure must be a ParseError."""
    path.write_bytes(data)
    try:
        fileio.load_container(path)
    except ParseError:
        pass


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=512))
def test_arbitrary_bytes_raise_only_parse_error(fuzz_path, data):
    _load_or_parse_error(fuzz_path, fileio.MAGIC + data)
    _load_or_parse_error(fuzz_path, data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_truncations_and_bit_flips_raise_only_parse_error(valid_container,
                                                          fuzz_path, data):
    raw = bytearray(valid_container)
    for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), max_size=4)):
        raw[bit // 8] ^= 1 << (bit % 8)
    cut = data.draw(st.integers(0, len(raw)))
    _load_or_parse_error(fuzz_path, bytes(raw[:cut]))


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
