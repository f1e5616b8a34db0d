"""The windowed synthetic renderer gives the same bytes as the full-frame one.

``ref_render_sample`` below is the earlier ``dataset._render_sample``, which
tested the palm ellipse, every finger and thumb capsule and the
closer-than rule of ``paint`` over the whole 100x100 frame and built the
background clutter pixel by pixel.  It is kept here as the reference the
production renderer, which tests each part only inside its window and
builds the clutter from one row and one column, must match byte for byte.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fingerspell
from fingerspell import dataset
from fingerspell.dataset import _DEPTH_BINS, _TEMPLATES, SYNTH_SIZE, _render_sample, _user_params, gen_synthetic


def ref_capsule_mask(xx, yy, cx, cy, angle, length, width):
    dx, dy = xx - cx, yy - cy
    ux, uy = np.cos(angle), np.sin(angle)
    along = np.clip(dx * ux + dy * uy, -length / 2, length / 2)
    return (dx - along * ux) ** 2 + (dy - along * uy) ** 2 <= width ** 2


def ref_render_sample(letter_idx, user, rng):
    tpl = _TEMPLATES[letter_idx]
    size = SYNTH_SIZE
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)

    scale = user["scale"] * rng.uniform(0.96, 1.04)
    rot = user["rotation"] + rng.uniform(-0.05, 0.05)
    cx = size / 2 + user["shift"][0] + rng.uniform(-4.0, 4.0)
    cy = size / 2 + 4 + user["shift"][1] + rng.uniform(-4.0, 4.0)

    depth_off = np.full((size, size), np.inf)
    intensity = np.zeros((size, size))

    def paint(mask, d, value):
        closer = mask & (d < depth_off)
        depth_off[closer] = d
        intensity[closer] = value

    pa, pb = tpl["palm_axes"]
    ca, sa = np.cos(rot), np.sin(rot)
    rx = (xx - cx) * ca + (yy - cy) * sa
    ry = -(xx - cx) * sa + (yy - cy) * ca
    palm = (rx / (pa * scale)) ** 2 + (ry / (pb * scale)) ** 2 <= 1.0
    skew = user["depth_skew"]
    paint(palm, tpl["palm_depth"] + skew[-1] + rng.uniform(-3.0, 3.0), tpl["palm_intensity"])

    for j, angle in enumerate(tpl["finger_angles"]):
        a = angle + rot + user["angle_skew"][j]
        dist = (pb * scale) + tpl["finger_len"][j] * scale / 2 - 2.0
        fx = cx + np.cos(a) * dist
        fy = cy + np.sin(a) * dist
        mask = ref_capsule_mask(xx, yy, fx, fy, a, tpl["finger_len"][j] * scale, tpl["finger_width"][j] * scale)
        bin_idx = int(np.argmin(np.abs(_DEPTH_BINS - tpl["finger_depth"][j])))
        d = tpl["finger_depth"][j] + skew[bin_idx] + rng.uniform(-3.0, 3.0)
        paint(mask, max(d, 1.0), tpl["finger_intensity"][j])

    a = tpl["thumb_angle"] + rot + user["angle_skew"][5]
    dist = (pa * scale) + tpl["thumb_len"] * scale / 2 - 2.0
    mask = ref_capsule_mask(xx, yy, cx + np.cos(a) * dist, cy + np.sin(a) * dist, a, tpl["thumb_len"] * scale,
                            4.5 * scale)
    paint(mask, max(tpl["thumb_depth"] + rng.uniform(-3.0, 3.0), 1.0), tpl["thumb_intensity"])

    hand = np.isfinite(depth_off)
    base = user["depth_base"]

    depth = np.full((size, size), base + 260.0)
    depth[hand] = base + depth_off[hand]
    depth += rng.normal(0.0, 1.0, depth.shape)
    dropouts = rng.random(depth.shape) < 0.004
    depth[dropouts] = 0
    depth = np.clip(np.rint(depth), 0, 65535).astype(np.int32)

    gx = 30 + 22 * np.sin(xx / 17.0 + rng.uniform(0, 6.28)) + 18 * np.cos(yy / 23.0 + rng.uniform(0, 6.28))
    img = gx + rng.normal(0.0, 6.0, intensity.shape)
    img[hand] = intensity[hand] * user["intensity_gain"] + rng.normal(0.0, 7.0, int(hand.sum()))
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return depth, img


def assert_same_capture(letter_idx, user, seed_words):
    want = ref_render_sample(letter_idx, user, np.random.default_rng(np.random.SeedSequence(seed_words)))
    got = _render_sample(letter_idx, user, np.random.default_rng(np.random.SeedSequence(seed_words)))
    for w, g in zip(want, got):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes(), seed_words


@pytest.mark.parametrize("seed", [4242, 20150318, 7])
def test_generated_users_match_the_reference(seed):
    for u in range(3):
        user = _user_params(seed, u)
        for k in range(len(_TEMPLATES)):
            for i in range(2):
                assert_same_capture(k, user, [seed, u, k, i])


# Scale, rotation and shift past _user_params' ranges move parts across the frame edge or off the frame,
# so windows are clipped or empty; the first example puts the whole hand outside the frame.
@settings(max_examples=150, deadline=None)
@given(
    letter_idx=st.integers(0, len(_TEMPLATES) - 1),
    scale=st.floats(0.2, 3.0),
    rotation=st.floats(-np.pi, np.pi),
    shift=st.tuples(st.floats(-110.0, 110.0), st.floats(-110.0, 110.0)),
    depth_base=st.integers(0, 3000),
    depth_skew=st.lists(st.floats(-40.0, 40.0), min_size=6, max_size=6),
    angle_skew=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
    intensity_gain=st.floats(0.3, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(letter_idx=3, scale=0.5, rotation=0.0, shift=(-110.0, 0.0), depth_base=900, depth_skew=[0.0] * 6,
         angle_skew=[0.0] * 6, intensity_gain=1.0, seed=1)
@example(letter_idx=11, scale=3.0, rotation=1.0, shift=(45.0, -50.0), depth_base=900, depth_skew=[0.0] * 6,
         angle_skew=[0.0] * 6, intensity_gain=1.0, seed=2)
def test_users_past_the_generator_ranges_match_the_reference(letter_idx, scale, rotation, shift, depth_base,
                                                              depth_skew, angle_skew, intensity_gain, seed):
    user = {
        "scale": scale,
        "rotation": rotation,
        "depth_base": depth_base,
        "depth_skew": np.array(depth_skew),
        "angle_skew": np.array(angle_skew),
        "intensity_gain": intensity_gain,
        "shift": np.array(shift),
    }
    assert_same_capture(letter_idx, user, [seed, letter_idx])


def test_coordinate_grids_are_read_only():
    for grid in (dataset._XX, dataset._YY):
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
    assert dataset._XX[0, 99] == dataset._YY[99, 0] == 99.0


def _digest(samples):
    h = hashlib.sha256()
    for s in samples:
        h.update(f"{s.user_id},{s.letter},".encode())
        h.update(s.depth.tobytes())
        h.update(s.intensity.tobytes())
    return h.hexdigest()


def test_same_bytes_in_a_second_call_and_in_a_fresh_process():
    first = _digest(gen_synthetic(2, 1, rng_seed=4242))
    assert _digest(gen_synthetic(2, 1, rng_seed=4242)) == first
    pythonpath = os.pathsep.join([str(Path(fingerspell.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    code = ("import sys; sys.path.insert(0, sys.argv[1])\n"
            "from test_render_bytes import _digest\n"
            "from fingerspell.dataset import gen_synthetic\n"
            "print(_digest(gen_synthetic(2, 1, rng_seed=4242)))")
    for hash_seed in ("0", "12345"):
        run = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == first
