import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttckit
from ttckit.errors import DomainError
from ttckit.features import box_mean, hand_crafted_features
from ttckit.synth import noise_texture


def _running_mean_line(line: list[float], size: int) -> list[float]:
    """One line's box mean as a plain running sum, edge samples repeated."""
    n, half = len(line), size // 2

    def at(i: int) -> float:
        return line[min(max(i, 0), n - 1)]

    total = 0.0
    for j in range(size):
        total += at(j - half)
    out = [total / size]
    for step in range(1, n):
        total += at(step + size - half - 1) - at(step - half - 1)
        out.append(total / size)
    return out


def _reference_box_mean(a: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Every line of every axis with a size above 1, in axis order."""
    out = np.array(a, dtype=np.float64)
    for axis, size in enumerate(sizes):
        if size > 1:
            lines = np.moveaxis(out, axis, -1)
            done = np.empty_like(lines)
            for idx in np.ndindex(lines.shape[:-1]):
                done[idx] = _running_mean_line([float(v) for v in lines[idx]], size)
            out = np.ascontiguousarray(np.moveaxis(done, -1, axis))
    return out


def _values(draw, shape):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(0, 256, size=shape) / 255.0
    return rng.uniform(-1.0, 2.0, size=shape)


@st.composite
def _box_cases(draw):
    """Arrays of 1-40 x 1-40 x 1-3, u8/255 or uniform values, and sizes of
    1, 3 or 5 per image axis; many lines are shorter than their window."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 3)))
    sizes = (draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([1, 3, 5])), 1)
    return _values(draw, shape), sizes


@st.composite
def _images(draw):
    """(H, W, 3) images of 2-40 px a side; np.gradient needs two samples."""
    return _values(draw, (draw(st.integers(2, 40)), draw(st.integers(2, 40)), 3))


@settings(max_examples=120, deadline=None)
@given(case=_box_cases())
def test_box_mean_equals_a_running_sum_per_line(case):
    a, sizes = case
    got = box_mean(a, sizes)
    assert got.dtype == np.float64 and got.shape == a.shape
    assert np.array_equal(got, _reference_box_mean(a, sizes))


@settings(max_examples=120, deadline=None)
@given(case=_box_cases())
def test_box_mean_equals_the_nearest_edge_uniform_filter(case):
    ndimage = pytest.importorskip("scipy.ndimage")
    a, sizes = case
    assert np.array_equal(box_mean(a, sizes), ndimage.uniform_filter(a, size=sizes, mode="nearest"))


def test_box_mean_returns_a_new_array_and_checks_its_sizes():
    a = np.arange(12.0).reshape(2, 2, 3)
    out = box_mean(a, (1, 1, 1))
    assert np.array_equal(out, a) and not np.shares_memory(out, a)
    out = box_mean(a, (3, 3, 1))
    assert not np.shares_memory(out, a)
    assert np.array_equal(a, np.arange(12.0).reshape(2, 2, 3))
    with pytest.raises(DomainError):
        box_mean(a, (3, 3))


@settings(max_examples=40, deadline=None)
@given(img=_images())
def test_features_are_each_channel_rounded_once(img):
    want = np.concatenate([
        img,
        np.gradient(img, axis=1),
        np.gradient(img, axis=0),
        np.abs(img - box_mean(img, (5, 5, 1))),
    ], axis=2).astype(np.float32)
    got = hand_crafted_features(img)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.array_equal(got, want)


def _fixed_u8_image(h: int = 45, w: int = 61) -> np.ndarray:
    i = np.arange(h * w * 3, dtype=np.uint64)
    u8 = ((i * np.uint64(2654435761)) >> np.uint64(13)) % np.uint64(256)
    return u8.reshape(h, w, 3).astype(np.float64) / 255.0


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (7, "7d67410f3e1258fc96732fc9100ad7ba04bf3da7a193cf93995b2ba32cc0f129"),
    (1009, "463abedfdee9354ab12585d852c509f0cd631eb1207a188a0adddfdb2878578f"),
])
def test_noise_texture_bytes_are_pinned(seed, digest):
    tex = noise_texture(seed)
    assert tex.dtype == np.float64 and tex.shape == (64, 64, 3)
    assert _sha256(tex) == digest


def test_hand_crafted_feature_bytes_are_pinned():
    feats = hand_crafted_features(_fixed_u8_image())
    assert feats.dtype == np.float32 and feats.shape == (45, 61, 12)
    assert _sha256(feats) == "b215753474b2e640614f4ec3552c8e3dd85f893b4fdaf58a31969e04298f7174"


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(ttckit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, ttckit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
