import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerspell
from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.dbn import MODEL_MAGIC, Dbn, load_model, save_model
from fingerspell.errors import FormatError
from fingerspell.features import FEATURE_MAGIC, read_features, write_features
from fingerspell.rbm import Rbm

READERS = {"features": (FEATURE_MAGIC, read_features), "model": (MODEL_MAGIC, load_model)}


def container_bytes(magic, header, payload=b""):
    raw = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(raw)) + raw + payload


def payload_offset(data, magic):
    start = len(magic) + 4
    return start + int.from_bytes(data[len(magic) : start], "little")


def small_net(seed, n_classes=24):
    rng = np.random.default_rng(seed)
    return Dbn([Rbm(4, 3, rng=rng), Rbm(3, 2, rng=rng)], rng.normal(size=(2, n_classes)), rng.normal(size=n_classes),
               STATIC_LETTERS[:n_classes])


def model_arrays(net):
    return [t for r in net.rbm_layers for t in (r.weights, r.visible_bias, r.hidden_bias)] + [
        net.translation_w, net.translation_b]


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
    save_model(small_net(40), d / "m.hsdbn")
    files = {}
    for name, path in (("features", d / "f.bin"), ("model", d / "m.hsdbn")):
        data = path.read_bytes()
        magic = READERS[name][0]
        end = payload_offset(data, magic)
        files[name] = (json.loads(data[len(magic) + 4 : end]), data[end:])
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
    assert x.dtype == np.float32 and (x == 2.0).all()


@pytest.mark.parametrize("n", [1, 2, 5, 13, 24])
def test_written_payload_starts_64_byte_aligned(tmp_path, n):
    # the writer pads the header with spaces, which json.loads ignores, so a payload can be mapped aligned
    save_model(small_net(n, n_classes=n), tmp_path / "m.hsdbn")
    write_features(tmp_path / "f.bin", "raw" * n, np.ones((n, 3 * n), dtype=np.float32))
    headers = {
        MODEL_MAGIC: {"layers": [[4, 3], [3, 2]], "class_labels": list(STATIC_LETTERS[:n])},
        FEATURE_MAGIC: {"kind": "raw" * n, "dim": 3 * n, "count": n},
    }
    for magic, name in ((MODEL_MAGIC, "m.hsdbn"), (FEATURE_MAGIC, "f.bin")):
        data = (tmp_path / name).read_bytes()
        end = payload_offset(data, magic)
        raw = data[len(magic) + 4 : end]
        assert end % 64 == 0
        assert json.loads(raw) == headers[magic]
        assert raw.rstrip(b" ") == json.dumps(headers[magic]).encode()


def test_unpadded_model_loads_to_equal_aligned_arrays(tmp_path):
    # files written before the header padding have a payload the reader cannot map aligned, so it copies it
    p = tmp_path / "old.hsdbn"
    save_model(small_net(45, n_classes=23), p)
    data = p.read_bytes()
    end = payload_offset(data, MODEL_MAGIC)
    header, payload = json.loads(data[len(MODEL_MAGIC) + 4 : end]), data[end:]
    data = container_bytes(MODEL_MAGIC, header, payload)
    assert payload_offset(data, MODEL_MAGIC) % 8 != 0
    p.write_bytes(data)
    arrays = model_arrays(load_model(p))
    assert b"".join(a.tobytes() for a in arrays) == payload
    assert all(a.flags.aligned and a.flags.writeable for a in arrays)


def test_reading_a_file_does_not_copy_it(tmp_path):
    rng = np.random.default_rng(41)
    model, features = tmp_path / "big.hsdbn", tmp_path / "big.bin"
    save_model(Dbn([Rbm(4096, 256, rng=rng)], rng.normal(size=(256, 24)), rng.normal(size=24)), model)
    write_features(features, "combined", rng.random((512, 4096), dtype=np.float32))
    readers = {model: lambda p: load_model(p).rbm_layers[0].weights, features: lambda p: read_features(p)[1]}
    for path, read in readers.items():
        assert path.stat().st_size >= 8 * 2**20
        tracemalloc.start()
        try:
            array = read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, path.name
        assert array.flags.writeable


def test_overwriting_a_read_file_keeps_its_values(tmp_path):
    # the writer replaces the file, so a process that mapped the old one keeps reading it; writing the
    # mapped file in place would show the new values or, if it shrank, kill the process with SIGBUS
    p, f = tmp_path / "m.hsdbn", tmp_path / "f.bin"
    save_model(small_net(42), p)
    write_features(f, "raw", np.arange(12, dtype=np.float32).reshape(3, 4))
    code = (
        "import numpy as np\n"
        "from fingerspell.dbn import Dbn, load_model, save_model\n"
        "from fingerspell.features import read_features, write_features\n"
        f"p, f = {str(p)!r}, {str(f)!r}\n"
        "net = load_model(p)\n"
        "first = load_model(p).rbm_layers[0]\n"
        "first.weights += 1.0\n"
        "save_model(Dbn([first], np.zeros((3, 24)), np.zeros(24)), p)\n"
        "assert load_model(p).rbm_layers[0].weights[0, 0] != net.rbm_layers[0].weights[0, 0]\n"
        "_, x = read_features(f)\n"
        "write_features(f, 'raw', np.ones((1, 4), dtype=np.float32))\n"
        "assert read_features(f)[1].shape == (1, 4)\n"
        "arrays = [t for r in net.rbm_layers for t in (r.weights, r.visible_bias, r.hidden_bias)]\n"
        "print(b''.join(a.tobytes() for a in arrays + [net.translation_w, net.translation_b]).hex())\n"
        "print(x.tobytes().hex())\n"
    )
    pythonpath = os.pathsep.join([str(Path(fingerspell.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [b"".join(a.tobytes() for a in model_arrays(small_net(42))).hex(),
                                  np.arange(12, dtype=np.float32).tobytes().hex()]


def test_failed_save_leaves_the_old_file(tmp_path):
    class Unwritable:
        def __array__(self, dtype=None, copy=None):
            raise OSError("disk full")

    p = tmp_path / "m.hsdbn"
    save_model(small_net(43), p)
    saved = p.read_bytes()
    net = small_net(44)
    net.rbm_layers[0].visible_bias = Unwritable()  # the second tensor written
    with pytest.raises(OSError, match="disk full"):
        save_model(net, p)
    assert p.read_bytes() == saved
    assert os.listdir(tmp_path) == ["m.hsdbn"]


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
