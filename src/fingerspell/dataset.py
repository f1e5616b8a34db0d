"""Sample loading, train/valid/test splits and synthetic data generation.

On disk a dataset is a CSV manifest (header
``depth_path,intensity_path,user,letter``, paths relative to the manifest
location) pointing at 16-bit depth PGMs and 8-bit intensity PGMs.

Two split protocols are provided: ``allseen`` stratifies every
(user, letter) group into 1/2 train, 1/4 validation, 1/4 test (remainders
go to train), so every signer appears in all three sets; ``unseen`` holds
one signer out entirely as the test set and reserves a tenth of the
remaining samples (stratified) for validation.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fingerspell.alphabet import STATIC_LETTERS
from fingerspell.errors import (
    FormatError,
    MissingFileError,
    UnknownLetterError,
    UnknownUserError,
    check_fields,
)
from fingerspell.pgm import read_pgm, write_pgm

MIN_SIDE = 32
MAX_SIDE = 256

SYNTH_SIZE = 100          # generated images are 100x100


@dataclass
class Sample:
    user_id: str
    letter: str
    depth: np.ndarray       # int32 mm, 0 = no reading
    intensity: np.ndarray   # uint8


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "allseen"            # "allseen" | "unseen"
    test_user: str | None = None     # unseen mode only
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("allseen", "unseen"):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.test_user is not None:
            if self.mode != "unseen":
                raise ValueError("test_user is set only with split mode 'unseen'")
            check_fields(self, "a string without NUL", "test_user")
        check_fields(self, "an integer >= 0", "rng_seed")


def check_pair(depth: np.ndarray, intensity: np.ndarray, where: str) -> None:
    """Raise :class:`FormatError` (naming ``where``) unless the pair is loadable.

    The intensity image must be 8-bit, and every side of both images must
    lie in [``MIN_SIDE``, ``MAX_SIDE``].
    """
    if intensity.dtype != np.uint8:
        raise FormatError(f"{where}: intensity image must be an 8-bit PGM")
    for what, img in (("depth", depth), ("intensity", intensity)):
        h, w = img.shape
        if not (MIN_SIDE <= w <= MAX_SIDE and MIN_SIDE <= h <= MAX_SIDE):
            raise FormatError(f"{where}: {what} image {w}x{h} outside [{MIN_SIDE},{MAX_SIDE}]")


def read_rows(path, what: str, columns=()):
    """Yield ``(where, record)`` for each row of a CSV file with ``user``, ``letter`` and ``columns``.

    ``where`` is ``path:line``; ``user`` and ``letter`` come stripped.
    ``what`` names the file in errors: :class:`MissingFileError` when it is
    absent, :class:`FormatError` for text that is not UTF-8, malformed CSV, a
    header without every column, a row with fewer fields than the header or
    a user holding ``/``, ``\\`` or NUL (a user names model files), and
    :class:`UnknownLetterError` for a letter outside the static alphabet.
    The whole file is read before the first row is checked.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFileError(f"{what} not found: {path}")
    required = {"user", "letter", *columns}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fieldnames = reader.fieldnames
            records = list(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: unreadable {what}: {exc}") from exc
    if fieldnames is None or not required.issubset(fieldnames):
        raise FormatError(f"{path}: {what} header must contain {sorted(required)}")
    for lineno, rec in enumerate(records, start=2):
        where = f"{path}:{lineno}"
        if any(rec[key] is None for key in required):
            raise FormatError(f"{where}: row has fewer fields than the header")
        rec["user"], rec["letter"] = rec["user"].strip(), rec["letter"].strip()
        if any(c in rec["user"] for c in "/\\\0"):
            raise FormatError(f"{where}: user {rec['user']!r} holds '/', '\\' or NUL")
        if rec["letter"] not in STATIC_LETTERS:
            raise UnknownLetterError(f"{where}: letter {rec['letter']!r} is not a static alphabet letter")
        yield where, rec


def load_dataset(manifest_path) -> list:
    """Read every manifest row (:func:`read_rows`) into a validated :class:`Sample` list.

    Errors carry the offending row: besides the row checks of
    :func:`read_rows`, missing or unreadable files, bad PGMs and duplicate
    paths.  Sample order follows manifest row order.
    """
    base = Path(manifest_path).parent
    samples = []
    seen_paths = set()
    for row, rec in read_rows(manifest_path, "manifest", ("depth_path", "intensity_path")):
        pair = []
        for key in ("depth_path", "intensity_path"):
            rel = rec[key].strip()
            if rel in seen_paths:
                raise FormatError(f"{row}: duplicate path {rel!r} in manifest")
            seen_paths.add(rel)
            p = base / rel
            try:
                if not p.is_file():
                    raise MissingFileError(f"{row}: missing file {p}")
                pair.append(read_pgm(p))
            except OSError as exc:
                raise MissingFileError(f"{row}: cannot read {p}: {exc}") from exc
        depth, intensity = pair
        check_pair(depth, intensity, row)
        samples.append(Sample(rec["user"], rec["letter"], depth.astype(np.int32), intensity))
    return samples


def dataset_counts(samples) -> dict:
    """Nested {user: {letter: count}} table."""
    counts: dict = {}
    for s in samples:
        counts.setdefault(s.user_id, {}).setdefault(s.letter, 0)
        counts[s.user_id][s.letter] += 1
    return counts


# ---------------------------------------------------------------------------
# splits

def split_dataset(samples, spec: SplitSpec):
    """``(train, valid, test)``: a seeded, stratified split of ``samples`` by ``spec.mode``.

    ``allseen`` keeps every user in every set: test and validation each
    take a quarter (rounded half-up) of every (user, letter) stratum and
    train the rest, remainders included, so every share stays within one
    sample of its exact fraction.  ``unseen`` holds one signer out: the
    test set is exactly ``spec.test_user``'s samples, shuffled first, and a
    tenth (rounded half-up) of every remaining stratum goes to validation.
    Strata are shuffled in sorted (user, letter) order, each cut into
    ``[test | valid | train]``; the partition is deterministic.
    """
    rng = np.random.default_rng(spec.rng_seed)
    test, valid, train = [], [], []
    if spec.mode == "unseen":
        users = {s.user_id for s in samples}
        if spec.test_user not in users:
            raise UnknownUserError(f"test user {spec.test_user!r} not in dataset (users: {sorted(users)})")
        held_out = [i for i, s in enumerate(samples) if s.user_id == spec.test_user]
        test = [held_out[j] for j in rng.permutation(len(held_out))]
    groups: dict = {}
    for i, s in enumerate(samples):
        if s.user_id != spec.test_user:
            groups.setdefault((s.user_id, s.letter), []).append(i)
    for key in sorted(groups):
        idx = np.array(groups[key])[rng.permutation(len(groups[key]))]
        n = len(idx)
        q = int(n / 4 + 0.5)
        lo, hi = (q, 2 * q) if spec.mode == "allseen" else (0, int(n * 0.1 + 0.5))
        test.extend(idx[:lo])
        valid.extend(idx[lo:hi])
        train.extend(idx[hi:])
    return tuple([samples[i] for i in part] for part in (train, valid, test))


# ---------------------------------------------------------------------------
# synthetic generator
#
# Each letter has a fixed parametric hand template: a palm ellipse, 2-5
# finger capsules at letter-specific angles, and a thumb bar, every part
# sitting at a letter-specific depth slice inside the 120 mm envelope.
# Users differ by a global depth offset (removed by preprocessing - that
# is the point), a consistent scale/rotation and a per-slice depth skew;
# individual samples add small pose jitter, sensor noise and dropouts.

_TEMPLATE_SALT = 611953
_DEPTH_BINS = np.array([4.0, 24.0, 44.0, 64.0, 84.0])   # inside the 20 mm slices
_YY, _XX = np.mgrid[0:SYNTH_SIZE, 0:SYNTH_SIZE].astype(np.float64)  # pixel coordinates, read-only
_YY.flags.writeable = _XX.flags.writeable = False


def _letter_template(letter_idx: int) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence([_TEMPLATE_SALT, letter_idx]))
    n_fingers = 2 + letter_idx % 4
    spread = rng.uniform(1.6, 2.2)
    base_angle = -np.pi / 2 + rng.uniform(-0.25, 0.25)
    angles = base_angle + (np.arange(n_fingers) - (n_fingers - 1) / 2) * spread / max(n_fingers - 1, 1)
    bins = rng.permutation(len(_DEPTH_BINS))[:n_fingers]
    return {
        "palm_axes": (rng.uniform(17.0, 22.0), rng.uniform(13.0, 17.0)),
        "palm_depth": rng.uniform(55.0, 95.0),
        "palm_intensity": rng.uniform(90.0, 200.0),
        "finger_angles": angles,
        "finger_len": rng.uniform(16.0, 26.0, n_fingers),
        "finger_width": rng.uniform(3.5, 5.5, n_fingers),
        "finger_depth": _DEPTH_BINS[bins] + rng.uniform(0.0, 10.0, n_fingers),
        "finger_intensity": rng.uniform(70.0, 230.0, n_fingers),
        "thumb_angle": 2 * np.pi * letter_idx / 24 + rng.uniform(-0.2, 0.2),
        "thumb_len": rng.uniform(12.0, 18.0),
        "thumb_depth": float(_DEPTH_BINS[(letter_idx + 2) % len(_DEPTH_BINS)]) + rng.uniform(0.0, 10.0),
        "thumb_intensity": rng.uniform(70.0, 230.0),
    }


_TEMPLATES = [_letter_template(k) for k in range(len(STATIC_LETTERS))]


def _user_params(rng_seed: int, user_idx: int) -> dict:
    # users differ by a consistent pose bias (scale/rotation), a per-slice
    # depth skew and per-finger angle habits; the global depth_base offset
    # is removed by preprocessing by design
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 1000 + user_idx]))
    return {
        "scale": rng.uniform(0.88, 1.12),
        "rotation": rng.uniform(-0.17, 0.17),
        "depth_base": int(rng.integers(650, 1100)),
        "depth_skew": rng.uniform(-9.0, 9.0, len(_DEPTH_BINS) + 1),
        "angle_skew": rng.uniform(-0.09, 0.09, 6),
        "intensity_gain": rng.uniform(0.85, 1.15),
        "shift": rng.uniform(-3.0, 3.0, 2),
    }


def _window(cx, cy, reach):
    # the frame slice within `reach` + 1 px of (cx, cy), maybe empty.  A part (scale > 0) has no pixel
    # outside its window, and inside it each pixel gets a full-frame test's arithmetic: the same bytes
    cut = lambda v: min(max(int(v), 0), SYNTH_SIZE)
    return np.s_[cut(cy - reach - 1):cut(cy + reach + 2), cut(cx - reach - 1):cut(cx + reach + 2)]


def _capsule_mask(cx, cy, angle, length, width):
    # distance to the segment of given length through (cx, cy) at `angle`, within its window
    win = _window(cx, cy, length / 2 + width)
    dx, dy = _XX[win] - cx, _YY[win] - cy
    ux, uy = np.cos(angle), np.sin(angle)
    along = np.clip(dx * ux + dy * uy, -length / 2, length / 2)
    return win, (dx - along * ux) ** 2 + (dy - along * uy) ** 2 <= width ** 2


def _render_sample(letter_idx: int, user: dict, rng: np.random.Generator):
    tpl = _TEMPLATES[letter_idx]
    size = SYNTH_SIZE

    scale = user["scale"] * rng.uniform(0.96, 1.04)
    rot = user["rotation"] + rng.uniform(-0.05, 0.05)
    cx = size / 2 + user["shift"][0] + rng.uniform(-4.0, 4.0)
    cy = size / 2 + 4 + user["shift"][1] + rng.uniform(-4.0, 4.0)

    depth_off = np.full((size, size), np.inf)
    intensity = np.zeros((size, size))

    def paint(win, mask, d, value):
        closer = mask & (d < depth_off[win])
        depth_off[win][closer] = d
        intensity[win][closer] = value

    # palm
    pa, pb = tpl["palm_axes"]
    ca, sa = np.cos(rot), np.sin(rot)
    win = _window(cx, cy, max(pa, pb) * scale)
    xx, yy = _XX[win], _YY[win]
    rx = (xx - cx) * ca + (yy - cy) * sa
    ry = -(xx - cx) * sa + (yy - cy) * ca
    palm = (rx / (pa * scale)) ** 2 + (ry / (pb * scale)) ** 2 <= 1.0
    skew = user["depth_skew"]
    paint(win, palm, tpl["palm_depth"] + skew[-1] + rng.uniform(-3.0, 3.0), tpl["palm_intensity"])

    # fingers radiate from the palm edge
    for j, angle in enumerate(tpl["finger_angles"]):
        a = angle + rot + user["angle_skew"][j]
        dist = (pb * scale) + tpl["finger_len"][j] * scale / 2 - 2.0
        fx = cx + np.cos(a) * dist
        fy = cy + np.sin(a) * dist
        win, mask = _capsule_mask(fx, fy, a, tpl["finger_len"][j] * scale, tpl["finger_width"][j] * scale)
        bin_idx = int(np.argmin(np.abs(_DEPTH_BINS - tpl["finger_depth"][j])))
        d = tpl["finger_depth"][j] + skew[bin_idx] + rng.uniform(-3.0, 3.0)
        paint(win, mask, max(d, 1.0), tpl["finger_intensity"][j])

    # thumb bar
    a = tpl["thumb_angle"] + rot + user["angle_skew"][5]
    dist = (pa * scale) + tpl["thumb_len"] * scale / 2 - 2.0
    win, mask = _capsule_mask(cx + np.cos(a) * dist, cy + np.sin(a) * dist, a, tpl["thumb_len"] * scale, 4.5 * scale)
    paint(win, mask, max(tpl["thumb_depth"] + rng.uniform(-3.0, 3.0), 1.0), tpl["thumb_intensity"])

    hand = np.isfinite(depth_off)
    base = user["depth_base"]

    depth = np.full((size, size), base + 260.0)          # background plane beyond t + d
    depth[hand] = base + depth_off[hand]
    depth += rng.normal(0.0, 1.0, depth.shape)
    dropouts = rng.random(depth.shape) < 0.004           # sensor misses
    depth[dropouts] = 0
    depth = np.clip(np.rint(depth), 0, 65535).astype(np.int32)

    # background clutter the mask must remove: a row term plus a column term
    gx = 30 + 22 * np.sin(_XX[0] / 17.0 + rng.uniform(0, 6.28)) + 18 * np.cos(_YY[:, :1] / 23.0 + rng.uniform(0, 6.28))
    img = gx + rng.normal(0.0, 6.0, intensity.shape)
    img[hand] = intensity[hand] * user["intensity_gain"] + rng.normal(0.0, 7.0, int(hand.sum()))
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return depth, img


def gen_synthetic(n_users: int, per_class: int, rng_seed: int = 0) -> list:
    """Generate ``n_users x 24 x per_class`` deterministic synthetic samples.

    Every sample passes the :class:`Sample` invariants and flows through
    the full preprocessing pipeline; identical (seed, user, letter, index)
    always reproduces the identical pair.
    """
    if n_users < 1 or per_class < 1:
        raise ValueError("n_users and per_class must be >= 1")
    samples = []
    for u in range(n_users):
        user = _user_params(rng_seed, u)
        uid = f"u{u:02d}"
        for k, letter in enumerate(STATIC_LETTERS):
            for i in range(per_class):
                rng = np.random.default_rng(np.random.SeedSequence([rng_seed, u, k, i]))
                depth, intensity = _render_sample(k, user, rng)
                samples.append(Sample(user_id=uid, letter=letter, depth=depth, intensity=intensity))
    return samples


def write_dataset(manifest_path, samples) -> Path:
    """Write samples as PGM pairs plus a manifest CSV at ``manifest_path``.

    Images land in an ``images/`` directory next to the manifest; the
    manifest references them with relative paths.
    """
    manifest = Path(manifest_path)
    out_dir = manifest.parent
    images = out_dir / "images"
    images.mkdir(parents=True, exist_ok=True)
    counters: dict = {}
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth_path", "intensity_path", "user", "letter"])
        for s in samples:
            key = (s.user_id, s.letter)
            i = counters.get(key, 0)
            counters[key] = i + 1
            stem = f"{s.user_id}_{s.letter}_{i:03d}"
            dp = f"images/{stem}_depth.pgm"
            ip = f"images/{stem}_intensity.pgm"
            write_pgm(out_dir / dp, s.depth.astype(np.uint16))
            write_pgm(out_dir / ip, s.intensity)
            writer.writerow([dp, ip, s.user_id, s.letter])
    return manifest
