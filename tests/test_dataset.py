import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.cli import FeatureRow
from fingerspell.dataset import (
    Sample,
    SplitSpec,
    dataset_counts,
    gen_synthetic,
    load_dataset,
    read_rows,
    split_dataset,
    write_dataset,
)
from fingerspell.errors import (
    FingerspellError,
    FormatError,
    MissingFileError,
    UnknownLetterError,
    UnknownUserError,
)
from fingerspell.features import extract_features
from fingerspell.pgm import read_pgm, write_pgm


class TestPgm:
    def test_8bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, (13, 9)).astype(np.uint8)
        p = tmp_path / "a.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert back.dtype == np.uint8 and np.array_equal(back, img)

    def test_16bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 65536, (7, 11)).astype(np.uint16)
        p = tmp_path / "d.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert back.dtype == np.uint16 and np.array_equal(back, img)

    def test_header_comments_allowed(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04")
        img = read_pgm(p)
        assert img.tolist() == [[1, 2], [3, 4]]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n")
        with pytest.raises(FormatError, match="binary PGM"):
            read_pgm(p)

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError, match="truncated"):
            read_pgm(p)

    def test_big_endian_16bit_on_disk(self, tmp_path):
        img = np.array([[258]], dtype=np.uint16)  # 0x0102
        p = tmp_path / "be.pgm"
        write_pgm(p, img)
        assert p.read_bytes().endswith(b"\x01\x02")


class TestLoadDataset:
    def write_minimal(self, tmp_path, n_users=2, per_class=1, letters=("A", "B")):
        samples = []
        for u in range(n_users):
            for letter in letters:
                for i in range(per_class):
                    rng = np.random.default_rng(u * 100 + i)
                    depth = rng.integers(500, 700, (40, 40)).astype(np.uint16)
                    inten = rng.integers(0, 256, (40, 40)).astype(np.uint8)
                    samples.append(Sample(f"u{u:02d}", letter, depth.astype(np.int32), inten))
        return write_dataset(tmp_path / "manifest.csv", samples)

    def test_empty_manifest(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("depth_path,intensity_path,user,letter\n")
        assert load_dataset(p) == []

    def test_round_trip_counts(self, tmp_path):
        samples = gen_synthetic(5, 2, rng_seed=1)
        manifest = write_dataset(tmp_path / "manifest.csv", samples)
        back = load_dataset(manifest)
        assert len(back) == 5 * 24 * 2
        counts = dataset_counts(back)
        assert len(counts) == 5
        for user in counts:
            assert set(counts[user]) == set(STATIC_LETTERS)
            assert all(c == 2 for c in counts[user].values())

    def test_images_survive_round_trip(self, tmp_path):
        samples = gen_synthetic(1, 1, rng_seed=2)
        manifest = write_dataset(tmp_path / "manifest.csv", samples)
        back = load_dataset(manifest)
        assert np.array_equal(back[0].depth, samples[0].depth)
        assert np.array_equal(back[0].intensity, samples[0].intensity)

    def test_unknown_letter_names_row(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        rows = manifest.read_text().splitlines()
        rows[1] = rows[1].rsplit(",", 1)[0] + ",J"
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(UnknownLetterError, match=":2"):
            load_dataset(manifest)

    def test_missing_file_names_row(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        rows = manifest.read_text().splitlines()
        parts = rows[2].split(",")
        parts[0] = "images/nope.pgm"
        rows[2] = ",".join(parts)
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(MissingFileError, match=":3"):
            load_dataset(manifest)

    def test_duplicate_path_rejected(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        rows = manifest.read_text().splitlines()
        rows.append(rows[1])
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_dataset(manifest)

    def test_order_follows_manifest(self, tmp_path):
        samples = gen_synthetic(2, 1, rng_seed=3)
        manifest = write_dataset(tmp_path / "manifest.csv", samples)
        back = load_dataset(manifest)
        assert [(s.user_id, s.letter) for s in back] == [(s.user_id, s.letter) for s in samples]

    def test_manifest_missing(self, tmp_path):
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path / "nothing.csv")

    def test_short_row_names_row(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        rows = manifest.read_text().splitlines()
        rows[2] = ",".join(rows[2].split(",")[:2])
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(FormatError, match=":3: row has fewer fields"):
            load_dataset(manifest)

    def test_directory_path_is_missing_file(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        rows = manifest.read_text().splitlines()
        rows[1] = "images," + rows[1].split(",", 1)[1]
        manifest.write_text("\n".join(rows) + "\n")
        with pytest.raises(MissingFileError, match=":2"):
            load_dataset(manifest)

    def test_invalid_utf8_is_format_error(self, tmp_path):
        manifest = self.write_minimal(tmp_path)
        manifest.write_bytes(manifest.read_bytes() + b"\xff\xfe,x,u0,A\n")
        with pytest.raises(FormatError, match="unreadable manifest"):
            load_dataset(manifest)

    def test_dimension_bounds_enforced(self, tmp_path):
        img = np.zeros((10, 10), dtype=np.uint16)
        write_pgm(tmp_path / "d.pgm", img)
        write_pgm(tmp_path / "i.pgm", img.astype(np.uint8))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("depth_path,intensity_path,user,letter\nd.pgm,i.pgm,u0,A\n")
        with pytest.raises(FormatError, match="outside"):
            load_dataset(manifest)


def fake_samples(n_users=5, per_class=4, letters=STATIC_LETTERS):
    samples = []
    for u in range(n_users):
        for letter in letters:
            for _ in range(per_class):
                samples.append(
                    Sample(f"u{u:02d}", letter, np.ones((32, 32), np.int32), np.ones((32, 32), np.uint8))
                )
    return samples


class TestSplitAllseen:
    def test_stratum_of_four(self):
        samples = fake_samples(1, 4, letters=("A",))
        train, valid, test = split_dataset(samples, SplitSpec(rng_seed=0))
        assert (len(train), len(valid), len(test)) == (2, 1, 1)

    def test_stratum_of_five_remainder_to_train(self):
        samples = fake_samples(1, 5, letters=("A",))
        train, valid, test = split_dataset(samples, SplitSpec(rng_seed=0))
        assert (len(train), len(valid), len(test)) == (3, 1, 1)

    def test_partition(self):
        samples = fake_samples(3, 5, letters=("A", "B", "C"))
        train, valid, test = split_dataset(samples, SplitSpec(rng_seed=1))
        ids = lambda part: {id(s) for s in part}
        assert ids(train) | ids(valid) | ids(test) == ids(samples)
        assert not (ids(train) & ids(valid)) and not (ids(train) & ids(test)) and not (ids(valid) & ids(test))

    def test_every_user_in_every_set(self):
        samples = fake_samples(5, 4, letters=("A", "B"))
        train, valid, test = split_dataset(samples, SplitSpec(rng_seed=2))
        for part in (train, valid, test):
            assert {s.user_id for s in part} == {f"u{u:02d}" for u in range(5)}

    def test_deterministic(self):
        samples = fake_samples(2, 6, letters=("A", "B"))
        a = split_dataset(samples, SplitSpec(rng_seed=9))
        b = split_dataset(samples, SplitSpec(rng_seed=9))
        assert [[id(s) for s in p] for p in a] == [[id(s) for s in p] for p in b]


class TestSplitUnseen:
    def test_test_user_isolated(self):
        samples = fake_samples(5, 4, letters=("A", "B"))
        spec = SplitSpec(mode="unseen", test_user="u02", rng_seed=0)
        train, valid, test = split_dataset(samples, spec)
        assert {s.user_id for s in test} == {"u02"}
        assert "u02" not in {s.user_id for s in train} | {s.user_id for s in valid}
        assert len(test) == 2 * 4

    def test_validation_is_about_a_tenth(self):
        samples = fake_samples(5, 10, letters=STATIC_LETTERS[:6])
        spec = SplitSpec(mode="unseen", test_user="u00", rng_seed=1)
        train, valid, test = split_dataset(samples, spec)
        non_test = len(train) + len(valid)
        assert abs(len(valid) - round(0.1 * non_test)) <= 4 * 6  # strata rounding slack

    def test_leave_one_out_covers_each_sample_once(self):
        samples = fake_samples(5, 3, letters=("A", "B"))
        seen = []
        for u in range(5):
            spec = SplitSpec(mode="unseen", test_user=f"u{u:02d}", rng_seed=2)
            _, _, test = split_dataset(samples, spec)
            seen.extend(id(s) for s in test)
        assert sorted(seen) == sorted(id(s) for s in samples)

    def test_unknown_user(self):
        samples = fake_samples(2, 2, letters=("A",))
        with pytest.raises(UnknownUserError):
            split_dataset(samples, SplitSpec(mode="unseen", test_user="nobody"))

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            SplitSpec(mode="bogus")


class TestGenSynthetic:
    def test_counts_and_invariants(self):
        samples = gen_synthetic(2, 2, rng_seed=5)
        assert len(samples) == 2 * 24 * 2
        for s in samples:
            assert s.letter in STATIC_LETTERS
            assert s.depth.shape == (100, 100) and s.intensity.shape == (100, 100)
            assert s.depth.min() >= 0
            assert (s.depth > 0).any()

    def test_deterministic(self):
        a = gen_synthetic(2, 2, rng_seed=6)
        b = gen_synthetic(2, 2, rng_seed=6)
        for x, y in zip(a, b):
            assert np.array_equal(x.depth, y.depth) and np.array_equal(x.intensity, y.intensity)

    def test_different_seeds_differ(self):
        a = gen_synthetic(1, 1, rng_seed=7)[0]
        b = gen_synthetic(1, 1, rng_seed=8)[0]
        assert not np.array_equal(a.depth, b.depth)

    def test_survives_full_pipeline(self):
        samples = gen_synthetic(1, 1, rng_seed=9)
        for s in samples:
            vec = extract_features(s.depth, s.intensity, "combined")
            assert vec.shape == (10240,)
            assert np.isfinite(vec).all()
            assert vec.sum() > 0   # a hand is present

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gen_synthetic(0, 1)
        with pytest.raises(ValueError):
            gen_synthetic(1, 0)


class TestSplitDatasetDispatch:
    def test_dispatch(self):
        samples = fake_samples(2, 4, letters=("A",))
        t1 = split_dataset(samples, SplitSpec(mode="allseen", rng_seed=0))
        t2 = split_dataset(samples, SplitSpec(mode="unseen", test_user="u00", rng_seed=0))
        assert len(t1[2]) == 2 and {s.user_id for s in t2[2]} == {"u00"}


class TestSplitPinned:
    """The exact partitions, in order, for one seed: recorded before both modes shared one stratum loop."""

    @staticmethod
    def rows():
        # strata of 1, 2, 3, 5, 6, 7, 9 and again 1, 2 samples, so every rounding case is cut
        sizes = [1, 2, 3, 5, 6, 7, 9]
        rows = []
        for u in range(3):
            for k, letter in enumerate("ABC"):
                for _ in range(sizes[(3 * u + k) % 7]):
                    rows.append(FeatureRow(f"u{u}", letter, len(rows)))
        return rows

    def parts(self, spec):
        return [[r.index for r in part] for part in split_dataset(self.rows(), spec)]

    def test_allseen(self):
        assert self.parts(SplitSpec(rng_seed=11)) == [
            [0, 3, 10, 6, 8, 15, 11, 18, 21, 23, 29, 31, 27, 30, 24, 33],
            [1, 4, 7, 12, 14, 22, 17, 32, 28, 34],
            [2, 5, 9, 16, 13, 19, 20, 25, 26, 35],
        ]

    def test_unseen(self):
        assert self.parts(SplitSpec(mode="unseen", test_user="u0", rng_seed=11)) == [
            [9, 10, 7, 6, 14, 11, 12, 15, 16, 19, 18, 23, 20, 17, 21, 29, 28, 32, 26, 25, 24, 31, 27, 33, 35, 34],
            [8, 13, 22, 30],
            [3, 1, 4, 5, 2, 0],
        ]


# ---------------------------------------------------------------------------
# fuzzing: every PGM and manifest either loads or raises a FingerspellError


def loads_or_package_error(read, path):
    try:
        read(path)
    except FingerspellError:
        pass


def pgm_bytes(fields, payload):
    return b"P5\n" + b" ".join(fields[:2]) + b"\n" + fields[2] + b"\n" + payload


VALID_PGMS = {
    "8-bit": ([b"5", b"3", b"255"], bytes(range(15))),
    "16-bit": ([b"4", b"2", b"65535"], bytes(range(16))),
}
header_tokens = st.one_of(
    st.integers(-(2**70), 2**70).map(lambda v: str(v).encode()),
    st.binary(max_size=6),
    st.sampled_from([b"", b"0", b"256", b"65536", b"1e3", b"+5", b"#", b"\x00"]),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """One file that every PGM fuzz example overwrites."""
    return tmp_path_factory.mktemp("pgm_fuzz") / "f.pgm"


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=300))
def test_fuzz_pgm_any_bytes_after_magic(fuzz_file, tail):
    fuzz_file.write_bytes(b"P5" + tail)
    loads_or_package_error(read_pgm, fuzz_file)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(VALID_PGMS)), st.integers(0, 2), header_tokens, st.integers(0, 40))
def test_fuzz_pgm_header_field_mutation(fuzz_file, which, field, token, payload_len):
    fields, _ = VALID_PGMS[which]
    fields = list(fields)
    fields[field] = token
    fuzz_file.write_bytes(pgm_bytes(fields, bytes(payload_len)))
    loads_or_package_error(read_pgm, fuzz_file)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALID_PGMS)), st.data())
def test_fuzz_pgm_truncation(fuzz_file, which, data):
    full = pgm_bytes(*VALID_PGMS[which])
    fuzz_file.write_bytes(full[: data.draw(st.integers(0, len(full) - 1))])
    with pytest.raises(FormatError):
        read_pgm(fuzz_file)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """A two-sample dataset; returns ``(directory, manifest text)``."""
    d = tmp_path_factory.mktemp("manifest_fuzz")
    rng = np.random.default_rng(5)
    samples = [
        Sample(u, "A", rng.integers(500, 700, (40, 40)).astype(np.int32), rng.integers(0, 256, (40, 40), np.uint8))
        for u in ("u0", "u1")
    ]
    manifest = write_dataset(d / "manifest.csv", samples)
    return d, manifest.read_text()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzz_mutated_manifest(manifest_dir, data):
    d, text = manifest_dir
    rows = [line.split(",") for line in text.splitlines()]
    action = data.draw(st.sampled_from(["cell", "drop_field", "duplicate_row", "truncate", "insert_bytes"]))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    if action == "cell":
        rows[i][j] = data.draw(st.one_of(st.text(max_size=12), st.sampled_from(["", "images", ".", "manifest.csv"])))
    elif action == "drop_field":
        del rows[i][j]
    elif action == "duplicate_row":
        rows.insert(i, list(rows[i]))
    raw = "\n".join(",".join(r) for r in rows).encode("utf-8") + b"\n"
    if action == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    elif action == "insert_bytes":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=8)) + raw[at:]
    (d / "manifest.csv").write_bytes(raw)
    loads_or_package_error(load_dataset, d / "manifest.csv")


@pytest.fixture(scope="module")
def labels_file(tmp_path_factory):
    """One labels file that every labels fuzz example overwrites."""
    return tmp_path_factory.mktemp("labels_fuzz") / "labels.csv"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzz_mutated_labels(labels_file, data):
    rows = [["user", "letter"], ["u00", "A"], ["u00", "B"], ["u01", "C"]]
    action = data.draw(st.sampled_from(["cell", "drop_field", "duplicate_row", "truncate", "insert_bytes"]))
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    if action == "cell":
        rows[i][j] = data.draw(st.one_of(st.text(max_size=12), st.sampled_from(["", " A ", "ZZ", '"', "letter"])))
    elif action == "drop_field":
        del rows[i][j]
    elif action == "duplicate_row":
        rows.insert(i, list(rows[i]))
    raw = "\n".join(",".join(r) for r in rows).encode("utf-8") + b"\n"
    if action == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw)))]
    elif action == "insert_bytes":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=8)) + raw[at:]
    labels_file.write_bytes(raw)
    loads_or_package_error(lambda p: list(read_rows(p, "labels file")), labels_file)
