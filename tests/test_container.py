import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.dbn import MODEL_MAGIC, Dbn, load_model, save_model
from fingerspell.errors import FormatError
from fingerspell.features import FEATURE_MAGIC, read_features, write_features
from fingerspell.rbm import Rbm

READERS = {"features": (FEATURE_MAGIC, read_features), "model": (MODEL_MAGIC, load_model)}


def container_bytes(magic, header, payload=b""):
    raw = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(raw)) + raw + payload


def parses_or_format_error(reader, path):
    try:
        reader(path)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small valid file per reader, as ``{name: (header, payload)}``."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(40)
    write_features(d / "f.bin", "combined", rng.random((5, 7)).astype(np.float32))
    net = Dbn([Rbm(4, 3, rng=rng), Rbm(3, 2, rng=rng)], rng.normal(size=(2, 24)), rng.normal(size=24))
    save_model(net, d / "m.hsdbn")
    files = {}
    for name, path in (("features", d / "f.bin"), ("model", d / "m.hsdbn")):
        data = path.read_bytes()
        magic = READERS[name][0]
        start = len(magic) + 4
        end = start + int.from_bytes(data[len(magic) : start], "little")
        files[name] = (json.loads(data[start:end]), data[end:])
    return files


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    """One file that every fuzz example overwrites."""
    return tmp_path_factory.mktemp("fuzz") / "f.bin"


# header defects that used to escape as ValueError or TypeError
@pytest.mark.parametrize(
    "reader, header, payload_bytes",
    [
        ("features", {"kind": "raw", "dim": 2, "count": -3}, 24),
        ("features", {"kind": "raw", "dim": -2, "count": -3}, 24),
        ("features", [1, 2, 3], 0),
        ("features", None, 0),
        ("model", {"layers": [[-2, -3]], "class_labels": list(STATIC_LETTERS)}, 48),
    ],
    ids=["negative-count", "negative-count-and-dim", "list-header", "null-header", "negative-layer-size"],
)
def test_header_defects_raise_format_error(tmp_path, reader, header, payload_bytes):
    magic, read = READERS[reader]
    p = tmp_path / "bad.bin"
    p.write_bytes(container_bytes(magic, header, b"\x00" * payload_bytes))
    with pytest.raises(FormatError):
        read(p)


def test_oversized_header_sizes_rejected_before_allocation(tmp_path):
    p = tmp_path / "huge.bin"
    p.write_bytes(container_bytes(FEATURE_MAGIC, {"kind": "raw", "dim": 2**40, "count": 2**40}))
    with pytest.raises(FormatError, match="truncated tensor 'features'"):
        read_features(p)


def test_loaded_arrays_are_writable(tmp_path):
    p = tmp_path / "f.bin"
    write_features(p, "raw", np.ones((3, 4), dtype=np.float32))
    _, x = read_features(p)
    x += 1.0
    assert x.dtype == np.float64 and (x == 2.0).all()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.binary(max_size=300))
def test_fuzz_any_bytes_after_magic(fuzz_path, reader, tail):
    magic, read = READERS[reader]
    fuzz_path.write_bytes(magic + tail)
    parses_or_format_error(read, fuzz_path)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(READERS)), json_values, st.binary(max_size=300))
def test_fuzz_any_json_header(fuzz_path, reader, header, payload):
    magic, read = READERS[reader]
    fuzz_path.write_bytes(container_bytes(magic, header, payload))
    parses_or_format_error(read, fuzz_path)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.data())
def test_fuzz_truncation_of_valid_file(fuzz_path, valid_files, reader, data):
    magic, read = READERS[reader]
    header, payload = valid_files[reader]
    full = container_bytes(magic, header, payload)
    cut = data.draw(st.integers(0, len(full) - 1))
    fuzz_path.write_bytes(full[:cut])
    with pytest.raises(FormatError):
        read(fuzz_path)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(READERS)), st.data())
def test_fuzz_header_mutation_of_valid_file(fuzz_path, valid_files, reader, data):
    magic, read = READERS[reader]
    header, payload = valid_files[reader]
    header = json.loads(json.dumps(header))
    key = data.draw(st.sampled_from(sorted(header)))
    if data.draw(st.booleans()):
        del header[key]
    elif key == "layers" and data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, len(header[key]) - 1)), data.draw(st.integers(0, 1))
        header[key][i][j] = data.draw(json_values)
    else:
        header[key] = data.draw(json_values)
    fuzz_path.write_bytes(container_bytes(magic, header, payload))
    parses_or_format_error(read, fuzz_path)
