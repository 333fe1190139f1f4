"""Renderer and sequence generator against brute-force pixel measurements."""

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttckit.boxes import box_drop_reason
from ttckit.errors import DomainError, SequenceInvalidError
from ttckit.scenarios import BUILTIN_TEMPLATES, constant_velocity_script, simulate_script
from ttckit.suites import textured_background
from ttckit.synth import (
    CameraModel,
    NoiseModel,
    PlanarTarget,
    checker_texture,
    generate_from_trajectory,
    generate_sequence,
    noise_texture,
    project_size,
    projected_box,
    render_frame,
    sequence_for_ttc,
    supersample_mean,
    window_drop_reason,
)
from ttckit.synth import _frame_noise


def _camera(f=1000.0, width=1024, height=576):
    return CameraModel(f, width=width, height=height)


def _target(size_m=2.0, seed=5):
    return PlanarTarget(size_m, size_m, noise_texture(seed, low=0.25, high=0.95))


def measure_box(image: np.ndarray, threshold: float = 0.12) -> tuple[float, float]:
    """Brute-force object extent: count rows/cols with any bright pixel."""
    mask = image.max(axis=2) > threshold
    cols = np.flatnonzero(mask.any(axis=0))
    rows = np.flatnonzero(mask.any(axis=1))
    if cols.size == 0:
        return 0.0, 0.0
    return float(cols.size), float(rows.size)


def test_project_size_hand_values():
    cam = _camera(f=1000.0)
    assert project_size(cam, 2.0, 50.0) == pytest.approx(40.0)
    assert project_size(cam, 2.0, 25.0) == pytest.approx(80.0)
    with pytest.raises(DomainError):
        project_size(cam, 2.0, 0.0)
    with pytest.raises(DomainError):
        CameraModel(0.0)


def test_rendered_size_matches_projection():
    from ttckit.synth import render_frame

    cam = _camera()
    # constant-albedo red channel: column maxima over black background read
    # back per-column coverage, so coverage sums measure size sub-pixel
    tex = noise_texture(5, low=0.25, high=0.95)
    tex[:, :, 0] = 0.8
    target = PlanarTarget(2.0, 2.0, tex)
    for y in (10.0, 25.0, 60.0, 150.0, 400.0):
        frame = render_frame(cam, target, y, background=0.0)
        red = frame.image[:, :, 0].astype(np.float64)
        w_meas = float((red.max(axis=0) / 0.8).sum())
        h_meas = float((red.max(axis=1) / 0.8).sum())
        w_pred = project_size(cam, 2.0, y)
        assert abs(w_meas - w_pred) <= 1.0
        assert abs(h_meas - w_pred) <= 1.0


def test_halved_depth_doubles_measured_box():
    from ttckit.synth import render_frame

    cam = _camera()
    target = _target()
    near = render_frame(cam, target, 20.0, background=0.0)
    far = render_frame(cam, target, 40.0, background=0.0)
    w_near, _ = measure_box(near.image)
    w_far, _ = measure_box(far.image)
    # exact box ratio is 2; pixel-count measurement may round each by half a px
    assert w_near / w_far == pytest.approx(2.0, abs=0.51 / w_far * 2.0)
    assert near.exact_box.w / far.exact_box.w == pytest.approx(2.0, rel=1e-12)


def test_render_deterministic():
    from ttckit.synth import render_frame

    cam = _camera()
    target = _target()
    a = render_frame(cam, target, 30.0)
    b = render_frame(cam, target, 30.0)
    assert np.array_equal(a.image, b.image)
    assert a.box == b.box


def test_gain_scales_mean_intensity():
    from ttckit.synth import render_frame

    cam = _camera()
    # keep values below 1/1.2 so clamping never engages
    target = PlanarTarget(2.0, 2.0, noise_texture(5, low=0.2, high=0.7))
    plain = render_frame(cam, target, 30.0, background=0.05)
    rng = np.random.default_rng(0)
    lit = render_frame(
        cam,
        target,
        30.0,
        background=0.05,
        noise=NoiseModel(gain_range=(1.2, 1.2)),
        rng=rng,
    )
    assert lit.image.mean() == pytest.approx(plain.image.mean() * 1.2, rel=1e-5)


def test_flags_small_and_truncated():
    cam = _camera()
    target = _target()
    tiny = projected_box(cam, target, 300.0)  # ~6.7 px
    assert box_drop_reason(tiny, cam.width, cam.height) == "box_below_min_size"
    assert tiny.inside_image(cam.width, cam.height)
    off = PlanarTarget(2.0, 2.0, noise_texture(5), lateral_offset_x=30.0)
    gone = projected_box(cam, off, 20.0)
    assert box_drop_reason(gone, cam.width, cam.height) == "truncated_box"


def test_render_frame_box_is_projected_box():
    from ttckit.synth import render_frame

    cam = _camera()
    target = PlanarTarget(2.0, 1.5, noise_texture(5), lateral_offset_x=0.4,
                          vertical_offset_z=-0.3)
    frame = render_frame(cam, target, 30.0, 1.2)
    assert frame.exact_box == frame.box == projected_box(cam, target, 30.0, 1.2)


def _mean_render(camera, target, depth_m, lateral_x, background, gain=1.0, bias=0.0):
    """render_frame as a whole float64 frame, averaging its 3 x 3 supersamples
    with .mean(axis=(1, 3)).

    The texture is pasted over a float64 copy of the background, then
    gain/bias act on the whole frame, which is clamped and cast.
    """
    from ttckit.sampling import bilinear_sample

    box = projected_box(camera, target, depth_m, lateral_x)
    if np.isscalar(background):
        img = np.full((camera.height, camera.width, 3), float(background))
    else:
        img = np.array(background, dtype=np.float64)
    x_lo = max(0, int(np.floor(box.x0)))
    x_hi = min(camera.width - 1, int(np.ceil(box.x1)) - 1)
    y_lo = max(0, int(np.floor(box.y0)))
    y_hi = min(camera.height - 1, int(np.ceil(box.y1)) - 1)
    if x_hi >= x_lo and y_hi >= y_lo:
        th, tw = target.texture.shape[:2]
        cols_i = np.arange(x_lo, x_hi + 1)
        rows_i = np.arange(y_lo, y_hi + 1)
        cov_x = np.clip(np.minimum(cols_i + 1.0, box.x1) - np.maximum(cols_i, box.x0), 0.0, 1.0)
        cov_y = np.clip(np.minimum(rows_i + 1.0, box.y1) - np.maximum(rows_i, box.y0), 0.0, 1.0)
        coverage = (cov_y[:, None] * cov_x[None, :])[:, :, None]
        supersample = 3
        sub = (np.arange(supersample) + 0.5) / supersample
        cols = (cols_i[:, None] + sub[None, :]).reshape(-1)
        rows = (rows_i[:, None] + sub[None, :]).reshape(-1)
        tx = (cols - box.x0) / box.w * tw - 0.5
        ty = (rows - box.y0) / box.h * th - 0.5
        dense = bilinear_sample(target.texture, ty[:, None], tx[None, :])
        tex_avg = dense.reshape(rows_i.size, supersample, cols_i.size, supersample, 3).mean(
            axis=(1, 3))
        patch = img[y_lo : y_hi + 1, x_lo : x_hi + 1]
        img[y_lo : y_hi + 1, x_lo : x_hi + 1] = patch + coverage * (tex_avg - patch)
    if gain != 1.0 or bias != 0.0:
        img = img * gain + bias
    np.clip(img, 0.0, 1.0, out=img)
    return img.astype(np.float32)


def _noisy_render(camera, target, depth, lateral, background, noisy, seed=0):
    """render_frame and _mean_render of one frame, with the same gain/bias draw."""
    noise = (NoiseModel(box_center_jitter_px=2, box_scale_jitter=0.03,
                        gain_range=(0.7, 1.3), bias_range=(-0.15, 0.15)) if noisy else None)
    rng = np.random.default_rng(seed) if noisy else None
    frame = render_frame(camera, target, depth, lateral, background=background,
                         noise=noise, rng=rng)
    _, _, _, gain, bias = _frame_noise(noise, np.random.default_rng(seed) if noisy else None)
    return frame, _mean_render(camera, target, depth, lateral, background, gain, bias)


@settings(max_examples=100, deadline=None)
@given(supersample=st.integers(1, 4), h=st.integers(1, 200), w=st.integers(1, 330),
       seed=st.integers(0, 2**32 - 1))
def test_supersample_mean_is_numpys_mean_bit_for_bit(supersample, h, w, seed):
    # float64 sums in another order differ in the last bits; these must not.
    # The lattice is plane-major in x; the reference is numpy's mean of the
    # same samples rearranged pixel-major, in a contiguous copy
    s = supersample
    dense = np.random.default_rng(seed).uniform(0.0, 1.0, (h * s, s * w, 3))
    pixel_major = np.ascontiguousarray(dense.reshape(h, s, s, w, 3).transpose(0, 1, 3, 2, 4))
    want = pixel_major.mean(axis=(1, 3))
    assert np.array_equal(supersample_mean(dense, s, out=np.full_like(want, np.nan)), want)
    out = np.empty_like(want)
    assert supersample_mean(dense, s, out=out) is out
    assert np.array_equal(out, want)


_SUITE_CAMERA = CameraModel(800.0, width=320, height=192)
_TEXTURED = textured_background(_SUITE_CAMERA, 3)


@settings(max_examples=80, deadline=None)
@given(
    camera=st.sampled_from((CameraModel(400.0, width=160, height=96), _SUITE_CAMERA)),
    depth=st.floats(3.0, 60.0),
    lateral=st.floats(-4.0, 4.0),
    vertical=st.floats(-2.0, 2.0),
    texture_seed=st.integers(0, 1000),
    background=st.floats(0.0, 1.0) | st.none(),
    noisy=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_render_matches_the_mean_of_its_supersamples(camera, depth, lateral, vertical,
                                                     texture_seed, background, noisy, seed):
    # row blocks averaged in place, and only the box finished, give the
    # bits of a whole-frame render that averages with numpy's mean: for
    # boxes inside the image and boxes running past its border, scalar and
    # textured backgrounds (None draws the textured one), with and without
    # gain/bias
    if background is None:
        background = textured_background(camera, texture_seed)
    target = PlanarTarget(2.0, 1.5, noise_texture(texture_seed), vertical_offset_z=vertical)
    frame, want = _noisy_render(camera, target, depth, lateral, background, noisy, seed)
    assert frame.image.dtype == np.float32
    assert np.array_equal(frame.image, want)


@pytest.mark.parametrize("background", [0.08, _TEXTURED], ids=["scalar", "textured"])
@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "gain_bias"])
@pytest.mark.parametrize("depth, lateral, n_rows", [
    (12.45, 0.0, 97),  # inside the image
    (11.7, 1.5, 103),  # past the right border
    (8.4, 0.0, 139),   # past the top and bottom
    (5.4, 0.0, 163),   # past every border
])
def test_render_in_row_blocks_matches_the_whole_lattice(monkeypatch, depth, lateral, n_rows,
                                                        background, noisy):
    # prime output row counts, so the last row block is padded and its
    # padded rows are dropped
    import ttckit.synth

    real, calls = ttckit.synth.lattice_row_blocks, []

    def recording_blocks(image, ys, xs, n):
        calls.append((len(ys), n))
        return real(image, ys, xs, n)

    monkeypatch.setattr(ttckit.synth, "lattice_row_blocks", recording_blocks)
    target = PlanarTarget(2.0, 1.5, noise_texture(4), vertical_offset_z=0.3)
    frame, want = _noisy_render(_SUITE_CAMERA, target, depth, lateral, background, noisy)
    ((lattice_rows, n_blocks),) = calls
    assert n_blocks > 1
    assert lattice_rows == 3 * n_blocks * -(-n_rows // n_blocks) > 3 * n_rows
    assert np.array_equal(frame.image, want)


def test_rendering_a_large_box_holds_no_dense_lattice():
    # a 192 px box samples a (576, 576, 3) float64 lattice, 8 MB, and
    # sampling it whole takes as much again in scratch; in row blocks the
    # render stays well under one lattice
    target = PlanarTarget(2.0, 2.0, noise_texture(3))
    depth = _SUITE_CAMERA.f * 2.0 / 192.0
    noise = NoiseModel(gain_range=(0.9, 1.1), bias_range=(-0.05, 0.05))
    render_frame(_SUITE_CAMERA, target, depth)  # first-call allocations
    tracemalloc.start()
    try:
        frame = render_frame(_SUITE_CAMERA, target, depth, noise=noise,
                             rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frame.exact_box.w == pytest.approx(192.0)
    assert peak < 0.6 * 576 * 576 * 3 * 8


_WINDOW_CAMERA = CameraModel(800.0, width=320, height=192)


@settings(max_examples=100, deadline=None)
@given(
    template=st.integers(1, 6),
    variant=st.integers(0, 10_000),
    start=st.floats(-0.5, 14.0) | st.integers(0, 140).map(lambda k: k / 10),
    lateral=st.floats(-6.0, 6.0),
    size=st.sampled_from((0.4, 1.0, 1.8, 3.0)),
)
def test_window_drop_reason_decides_generation(template, variant, start, lateral, size):
    # the one rule: a window renders exactly when window_drop_reason passes
    # it, and a dropped window raises that reason before rendering a frame
    grid = BUILTIN_TEMPLATES[template]
    script = grid.script(variant % len(grid), 1 + variant % len(grid))
    target = PlanarTarget(size, size, noise_texture(3, size=16), lateral_offset_x=lateral)
    traj = simulate_script(script, 14.0)
    reason = window_drop_reason(traj, _WINDOW_CAMERA, target, start, 10.0, 6)
    calls = []

    def counting_render(*args, **kwargs):
        calls.append(kwargs["timestamp_s"])
        return render_frame(*args, **kwargs)

    with patch("ttckit.synth.render_frame", counting_render):
        if reason is None:
            seq = generate_from_trajectory(traj, _WINDOW_CAMERA, target, start_time=start)
            assert calls == [f.timestamp_s for f in seq.frames]
            for f in seq.frames:
                assert box_drop_reason(f.exact_box, 320, 192) is None
        else:
            with pytest.raises(SequenceInvalidError) as info:
                generate_from_trajectory(traj, _WINDOW_CAMERA, target, start_time=start)
            assert str(info.value) == reason
            assert calls == []


def test_window_drop_reason_cases():
    cam = _camera()
    target = _target()
    traj = simulate_script(constant_velocity_script(60.0, 40.0, 30.0), horizon=3.0)
    assert window_drop_reason(traj, cam, target, 0.5, 10.0, 6) is None
    assert window_drop_reason(traj, cam, target, -0.1, 10.0, 6) == "start_before_trajectory"
    assert window_drop_reason(traj, cam, target, 2.7, 10.0, 6) == "contact_before_sequence_end"
    far = simulate_script(constant_velocity_script(60.0, 40.0, 200.0), horizon=3.0)
    assert window_drop_reason(far, cam, target, 0.0, 10.0, 6) == "box_below_min_size"
    crash = simulate_script(constant_velocity_script(80.0, 60.0, 3.0), horizon=3.0)
    assert window_drop_reason(crash, cam, target, 0.2, 10.0, 6) == "contact_before_sequence_end"
    aside = PlanarTarget(2.0, 2.0, noise_texture(5), lateral_offset_x=30.0)
    assert window_drop_reason(traj, cam, aside, 0.5, 10.0, 6) == "truncated_box"


def test_generate_sequence_constant_velocity_labels():
    cam = _camera()
    target = _target()
    # target-frame tau 4 s at closing 10 m/s
    seq = sequence_for_ttc(4.0, cam, target, closing_speed=10.0, sequence_id="s0")
    label = seq.label
    assert label.tau_s == pytest.approx(4.0, abs=1e-9)
    assert label.alpha_by_gap[5] == pytest.approx(4.0 / 4.5, rel=1e-12)
    assert label.alpha_by_gap[1] == pytest.approx(4.0 / 4.1, rel=1e-12)
    assert label.alpha_10hz == pytest.approx(4.0 / 4.1, rel=1e-12)
    assert label.velocity_mps == pytest.approx(10.0)
    # frame depths decrease by 1 m per 0.1 s step
    depths = [f.depth_m for f in seq.frames]
    diffs = np.diff(depths)
    assert np.allclose(diffs, -1.0)


def test_generate_sequence_tau2_gap1():
    cam = _camera()
    seq = sequence_for_ttc(2.0, cam, _target(), closing_speed=9.0, sequence_id="s1")
    assert seq.label.alpha_by_gap[1] == pytest.approx(2.0 / 2.1, rel=1e-12)


def test_generate_sequence_static_scene():
    cam = _camera()
    traj = simulate_script(constant_velocity_script(50.0, 50.0, 40.0), horizon=3.0)
    seq = generate_from_trajectory(traj, cam, _target(), start_time=0.7, sequence_id="s2")
    assert seq.label.tau_s == 20.0
    for g, alpha in seq.label.alpha_by_gap.items():
        assert alpha == pytest.approx(1.0)
    assert seq.label.alpha_10hz == pytest.approx(1.0)


def test_generate_sequence_receding():
    cam = _camera()
    seq = sequence_for_ttc(-5.0, cam, _target(), closing_speed=8.0, sequence_id="s3")
    assert seq.label.tau_s == pytest.approx(-5.0)
    assert seq.label.alpha_by_gap[5] > 1.0


def test_generate_sequence_rejects_contact():
    cam = _camera()
    script = constant_velocity_script(80.0, 60.0, 3.0)  # contact at 0.54 s
    with pytest.raises(SequenceInvalidError):
        generate_sequence(script, cam, _target(), start_time=0.2)


def test_generate_sequence_rejects_small_boxes():
    cam = _camera()
    script = constant_velocity_script(60.0, 40.0, 200.0)  # ~10 px box
    with pytest.raises(SequenceInvalidError, match="min_size"):
        generate_sequence(script, cam, _target(), start_time=0.0)


def test_sequence_determinism_with_noise():
    cam = _camera(f=400.0, width=256, height=160)
    target = _target()
    noise = NoiseModel(box_center_jitter_px=2, box_scale_jitter=0.03,
                       gain_range=(0.9, 1.1), bias_range=(-0.04, 0.04), seed=11)
    a = sequence_for_ttc(3.0, cam, target, closing_speed=8.0, noise=noise, sequence_id="d0")
    b = sequence_for_ttc(3.0, cam, target, closing_speed=8.0, noise=noise, sequence_id="d0")
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa.image, fb.image)
        assert fa.box == fb.box
    # a different sequence id draws an independent noise stream
    c = sequence_for_ttc(3.0, cam, target, closing_speed=8.0, noise=noise, sequence_id="d1")
    assert any(fa.box != fc.box for fa, fc in zip(a.frames, c.frames))


def test_depth_history_supports_long_fits():
    cam = _camera()
    seq = sequence_for_ttc(5.0, cam, _target(), sequence_id="h0", start_time=0.7)
    assert seq.depth_history is not None
    assert len(seq.depth_history) == 12
    times = [t for t, _ in seq.depth_history]
    assert times == sorted(times)
    assert times[-1] == pytest.approx(seq.frames[-1].timestamp_s)


def test_textures():
    tex = noise_texture(3)
    assert tex.shape == (64, 64, 3)
    assert tex.min() == pytest.approx(0.2, abs=1e-9)
    assert tex.max() == pytest.approx(0.95, abs=1e-9)
    chk = checker_texture()
    assert chk.max() > chk.min()
    with pytest.raises(DomainError):
        PlanarTarget(2.0, 2.0, np.full((8, 8, 3), 0.5))
