"""Estimators against the synthetic oracle and hand-built fixtures."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit import estimate, png, sampling
from ttckit.boxes import BoundingBox, expand_box
from ttckit.core import TTC_REFERENCE_MODES, ttc_from_scale_ratio
from ttckit.errors import DomainError, ManifestError, SequenceInvalidError
from ttckit.estimate import (
    ESTIMATOR_NAMES,
    ScaleSearchConfig,
    _pixel_mse_scores,
    alpha_to_10hz,
    candidate_patches_by_bin,
    detection_ratio_estimate,
    feature_scale_estimate,
    feature_scores,
    fuse_logits,
    head_logits,
    make_estimator,
    pixel_mse_estimate,
    pooled_cosine_scores,
    scaled_candidate_boxes,
    target_grid_patch,
)
from ttckit.features import hand_crafted_features
from ttckit.manifest import FrameSample, Sequence, load_dataset, write_index, write_sequence_dir
from ttckit.sampling import (
    bilinear_sample,
    crop_positions,
    crop_resize,
    grid_positions,
    shift_offsets,
)
from ttckit.synth import CameraModel, PlanarTarget, noise_texture, sequence_for_ttc

CAM = CameraModel.centered(800.0, 320, 192)


def _target(seed=9):
    return PlanarTarget(2.0, 2.0, noise_texture(seed, low=0.25, high=0.95))


def _oracle_sequence(tau=4.5, seed=9, noise=None, closing=10.0, seq_id="e0"):
    # tau 4.5 at closing 10 -> y_last 45 m -> box 800*2/45 = 35.6 px
    return sequence_for_ttc(
        tau, CAM, _target(seed), closing_speed=closing, noise=noise, sequence_id=seq_id
    )


def _identity_sequence(seed=0, size=(120, 160)):
    rng = np.random.default_rng(seed)
    img = rng.uniform(0.1, 0.9, size=(*size, 3)).astype(np.float32)
    box = BoundingBox(80.0, 60.0, 40.0, 30.0)
    frames = [
        FrameSample(timestamp_s=i * 0.1, box=box, image=img) for i in range(6)
    ]
    return Sequence(sequence_id="ident", fps=10.0, frames=frames)


def test_scale_search_config_validation():
    cfg = ScaleSearchConfig()
    assert cfg.n_bins == 125 and cfg.top_k == 3 and cfg.shift_c == 3
    assert cfg.bin_width == pytest.approx((1.5 - 0.65) / 124)
    feat = ScaleSearchConfig.feature_defaults()
    assert feat.n_bins == 20 and feat.top_k == 4 and feat.shift_c == 1
    assert feat.target_w == feat.target_h == 50
    with pytest.raises(Exception):
        ScaleSearchConfig(alpha_min=1.5, alpha_max=0.65)


def test_scaled_candidate_boxes_hand_values():
    cfg = ScaleSearchConfig(alpha_min=0.5, alpha_max=1.5, n_bins=3, top_k=1, shift_c=0)
    b0 = BoundingBox(200.0, 200.0, 70.0, 60.0)
    b1 = BoundingBox(210.0, 195.0, 100.0, 100.0)
    boxes = scaled_candidate_boxes(b0, b1, cfg)
    assert [b.w for b in boxes] == [50.0, 100.0, 150.0]
    assert all((b.cx, b.cy) == (200.0, 200.0) for b in boxes)
    # the alpha=1 candidate carries the target's dims at the reference center
    assert boxes[1].w == b1.w and boxes[1].h == b1.h


def test_pixel_mse_identity_pair():
    seq = _identity_sequence()
    cfg = ScaleSearchConfig(shift_c=1)
    est = pixel_mse_estimate(seq, cfg)
    assert abs(est.alpha_hat - 1.0) <= cfg.bin_width
    best_bin = int(np.argmin(est.profile.scores))
    assert est.profile.scores[best_bin] < 1e-4
    assert abs(cfg.bins()[best_bin] - 1.0) <= cfg.bin_width
    assert est.tau_hat > 19.0  # essentially no scale change


def test_pixel_mse_recovers_oracle_alpha():
    seq = _oracle_sequence(tau=4.5)  # alpha at gap 5 is exactly 0.9
    cfg = ScaleSearchConfig(shift_c=1)
    est = pixel_mse_estimate(seq, cfg)
    assert seq.label.alpha_by_gap[5] == pytest.approx(0.9, rel=1e-12)
    assert abs(est.alpha_hat - 0.9) <= cfg.bin_width
    assert not est.low_confidence


def test_pixel_mse_flat_profile_flagged():
    img = np.full((120, 160, 3), 0.5, dtype=np.float32)
    box = BoundingBox(80.0, 60.0, 40.0, 30.0)
    frames = [FrameSample(timestamp_s=i * 0.1, box=box, image=img) for i in range(6)]
    seq = Sequence(sequence_id="flat", fps=10.0, frames=frames)
    cfg = ScaleSearchConfig(shift_c=0)
    est = pixel_mse_estimate(seq, cfg)
    assert est.low_confidence
    assert np.isfinite(est.alpha_hat)
    # weighted mean of the stable-order top-k on an all-equal profile
    assert est.alpha_hat == pytest.approx(float(cfg.bins()[:3].mean()))


def test_pixel_mse_ranking_invariant_to_shared_gain():
    # dim texture/background leave headroom so a 2x gain never clips;
    # powers of two rescale IEEE floats exactly, so rankings must match
    dim = PlanarTarget(2.0, 2.0, noise_texture(11, low=0.12, high=0.45))
    seq = sequence_for_ttc(
        3.0, CAM, dim, closing_speed=10.0, sequence_id="g0", background=0.05
    )
    cfg = ScaleSearchConfig(shift_c=1, n_bins=40)
    base = pixel_mse_estimate(seq, cfg)
    for gain in (0.5, 2.0):
        scaled = Sequence(
            sequence_id=seq.sequence_id,
            fps=seq.fps,
            frames=[
                FrameSample(
                    timestamp_s=f.timestamp_s,
                    box=f.box,
                    image=f.image * gain,
                )
                for f in seq.frames
            ],
            label=seq.label,
        )
        est = pixel_mse_estimate(scaled, cfg)
        assert np.array_equal(
            np.argsort(est.profile.scores, kind="stable"),
            np.argsort(base.profile.scores, kind="stable"),
        )
        assert est.alpha_hat == pytest.approx(base.alpha_hat, rel=1e-9)


def test_pixel_mse_deterministic():
    seq = _oracle_sequence(tau=2.5, seed=3)
    cfg = ScaleSearchConfig(shift_c=1)
    a = pixel_mse_estimate(seq, cfg)
    b = pixel_mse_estimate(seq, cfg)
    assert a.alpha_hat == b.alpha_hat
    assert a.tau_hat == b.tau_hat
    assert np.array_equal(a.profile.scores, b.profile.scores)


def test_pixel_mse_missing_frames():
    seq = _identity_sequence()
    seq.frames = seq.frames[:3]
    with pytest.raises(SequenceInvalidError):
        pixel_mse_estimate(seq, ScaleSearchConfig())


def test_detection_identity_and_hand_ratio():
    seq = _identity_sequence()
    cfg = ScaleSearchConfig()
    est = detection_ratio_estimate(seq, cfg)
    assert est.alpha_hat == 1.0
    assert est.tau_hat == 20.0

    frames = list(seq.frames)
    frames[0] = FrameSample(
        timestamp_s=0.0, box=BoundingBox(80.0, 60.0, 100.0, 50.0), image=frames[0].image
    )
    frames[-1] = FrameSample(
        timestamp_s=0.5, box=BoundingBox(80.0, 60.0, 110.0, 55.0), image=frames[-1].image
    )
    seq2 = Sequence(sequence_id="d", fps=10.0, frames=frames)
    est2 = detection_ratio_estimate(seq2, cfg)
    assert est2.alpha_hat == pytest.approx(1.0 / 1.1, rel=1e-12)
    # raw area-ratio variant
    est3 = detection_ratio_estimate(seq2, ScaleSearchConfig(detection_sqrt=False))
    assert est3.alpha_hat == pytest.approx(1.0 / 1.21, rel=1e-12)


def test_detection_matches_oracle_with_exact_boxes():
    seq = _oracle_sequence(tau=4.5)
    est = detection_ratio_estimate(seq, ScaleSearchConfig())
    assert abs(est.alpha_hat - seq.label.alpha_by_gap[5]) <= 1e-3


def test_feature_scale_identity_pair():
    seq = _identity_sequence()
    cfg = ScaleSearchConfig.feature_defaults(shift_c=0)
    est = feature_scale_estimate(seq, cfg)
    bins = cfg.bins()
    nearest = int(np.argmin(np.abs(bins - 1.0)))
    assert int(np.argmax(est.profile.scores)) == nearest


def test_feature_scale_recovers_oracle_alpha():
    seq = _oracle_sequence(tau=4.5, seed=13)
    cfg = ScaleSearchConfig.feature_defaults()
    est = feature_scale_estimate(seq, cfg)
    assert abs(est.alpha_hat - 0.9) <= 2 * cfg.bin_width


def test_feature_scale_uniform_logits_tie_break():
    img = np.full((120, 160, 3), 0.6, dtype=np.float32)
    box = BoundingBox(80.0, 60.0, 40.0, 30.0)
    frames = [FrameSample(timestamp_s=i * 0.1, box=box, image=img) for i in range(6)]
    seq = Sequence(sequence_id="flat", fps=10.0, frames=frames)
    cfg = ScaleSearchConfig.feature_defaults(shift_c=0)
    est = feature_scale_estimate(seq, cfg)
    # constant features give equal logits everywhere: stable top-k keeps
    # the first k bins, and equal sigmoid weights average them
    assert est.alpha_hat == pytest.approx(float(cfg.bins()[: cfg.top_k].mean()))
    assert est.low_confidence


def test_feature_scale_head_shape_mismatch():
    seq = _identity_sequence()
    cfg = ScaleSearchConfig.feature_defaults()
    with pytest.raises(Exception):
        feature_scale_estimate(seq, cfg, fc_weight=np.eye(7), fc_bias=np.zeros(7))


def test_alpha_hat_always_in_range_and_tau_truncated():
    cfg = ScaleSearchConfig(shift_c=0, n_bins=20)
    for seed in range(4):
        for tau in (1.6, 5.0, -7.0):
            seq = _oracle_sequence(tau=tau, seed=seed, seq_id=f"r{seed}")
            for est_fn in (detection_ratio_estimate, pixel_mse_estimate):
                est = est_fn(seq, cfg)
                assert cfg.alpha_min <= est.alpha_hat <= cfg.alpha_max
                assert -20.0 <= est.tau_hat <= 20.0


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(ESTIMATOR_NAMES),
    seed=st.integers(0, 2**16),
    size0=st.tuples(st.floats(6.0, 40.0), st.floats(6.0, 40.0)),
    size1=st.tuples(st.floats(6.0, 40.0), st.floats(6.0, 40.0)),
    drift=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    ttc_reference=st.sampled_from(TTC_REFERENCE_MODES),
    multi_reference=st.booleans(),
)
def test_estimates_stay_in_the_search_range(
    name, seed, size0, size1, drift, ttc_reference, multi_reference
):
    # boxes from 6 to 40 px put the detection ratio far outside the search
    # range, and unrelated noise frames give the searches no true match
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(6):
        t = i / 5
        box = BoundingBox(
            40.0 + drift[0] * t, 32.0 + drift[1] * t,
            size0[0] + (size1[0] - size0[0]) * t, size0[1] + (size1[1] - size0[1]) * t,
        )
        image = rng.uniform(0.0, 1.0, size=(64, 80, 3)).astype(np.float32)
        frames.append(FrameSample(timestamp_s=i * 0.1, box=box, image=image))
    seq = Sequence(sequence_id="range", fps=10.0, frames=frames)
    if name == "feature_scale":
        base = ScaleSearchConfig.feature_defaults(shift_c=1, target_w=12, target_h=12)
    else:
        base = ScaleSearchConfig(n_bins=20, shift_c=1)
    cfg = replace(base, ttc_reference=ttc_reference, multi_reference=multi_reference)
    est = make_estimator(name, cfg)(seq)
    assert cfg.alpha_min <= est.alpha_hat <= cfg.alpha_max
    assert -20.0 <= est.tau_hat <= 20.0


@given(
    logits=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30),
    top_k=st.integers(1, 30),
)
@example(logits=[-1000.0] * 4, top_k=2)
@example(logits=[-1e308, -800.0, -801.0, -1e308], top_k=3)
def test_fuse_logits_stays_within_the_end_bins(logits, top_k):
    # any finite logits, also those whose sigmoid weights all round to 0
    cfg = ScaleSearchConfig.feature_defaults(n_bins=len(logits), top_k=min(top_k, len(logits)))
    bins = cfg.bins()
    assert bins[0] <= fuse_logits(np.array(logits), cfg) <= bins[-1]


def test_fuse_logits_weights_bins_in_log_space_when_the_sigmoids_underflow():
    # sigmoid(z) ~ exp(z) far below 0, so two logits 1 apart weigh e : 1
    cfg = ScaleSearchConfig.feature_defaults(n_bins=4, top_k=2)
    bins = cfg.bins()
    want = (np.e * bins[2] + bins[0]) / (np.e + 1.0)
    logits = np.array([-1001.0, -1003.0, -1000.0, -1004.0])
    assert fuse_logits(logits, cfg) == pytest.approx(want, rel=1e-12)


def test_make_estimator_dispatch():
    cfg = ScaleSearchConfig(shift_c=0)
    feat_cfg = ScaleSearchConfig.feature_defaults(shift_c=0)
    seq = _oracle_sequence(tau=4.0, seed=2, seq_id="m0")
    for name, c in (("detection", cfg), ("pixel_mse", cfg), ("feature_scale", feat_cfg)):
        est = make_estimator(name, c)(seq)
        assert est.estimator == name
    with pytest.raises(Exception):
        make_estimator("nope", cfg)


def test_pixel_mse_argmin_tracks_oracle_over_full_range():
    # noiseless pairs with approach and recede: the raw argmin bin sits on
    # the oracle ratio's bin or its direct neighbor (MSE valleys have
    # texture-dependent sub-bin asymmetry, so exact nearest-bin agreement
    # is not attainable at 125-bin granularity); the fused estimate is the
    # accurate quantity and stays within one bin width
    cfg = ScaleSearchConfig(shift_c=1)
    bins = cfg.bins()
    rng = np.random.default_rng(8)
    for i in range(25):
        alpha = float(rng.uniform(0.7, 1.4))
        if abs(alpha - 1.0) < 0.02:
            continue
        tau = 0.5 * alpha / (1.0 - alpha)  # target-frame tau at gap 5
        v = min(max(35.0 / abs(tau), 1.0), 26.0)
        seq = sequence_for_ttc(
            tau, CAM, _target(seed=200 + i), closing_speed=v, sequence_id=f"fr{i}"
        )
        truth = seq.label.alpha_by_gap[5]
        est = pixel_mse_estimate(seq, cfg)
        argmin_bin = int(np.argmin(est.profile.scores))
        nearest_bin = int(np.argmin(np.abs(bins - truth)))
        assert abs(argmin_bin - nearest_bin) <= 1
        assert abs(est.alpha_hat - truth) <= cfg.bin_width


def test_multi_reference_fusion():
    seq = _oracle_sequence(tau=5.0, seed=31, seq_id="mr0")
    single = pixel_mse_estimate(seq, ScaleSearchConfig(shift_c=1))
    fused = pixel_mse_estimate(seq, ScaleSearchConfig(shift_c=1, multi_reference=True))
    # per-gap estimates of the same constant-velocity pair agree at 10 Hz,
    # so their mean stays near the single-gap conversion
    assert fused.alpha_hat_10hz == pytest.approx(single.alpha_hat_10hz, abs=5e-3)
    assert fused.alpha_hat == single.alpha_hat  # reported alpha is the default gap's
    truth_10 = seq.label.alpha_10hz
    assert abs(fused.alpha_hat_10hz - truth_10) < 5e-3

    feat = feature_scale_estimate(seq, ScaleSearchConfig.feature_defaults(multi_reference=True))
    assert abs(feat.alpha_hat_10hz - truth_10) < 0.02


def test_center_shift_absorbs_box_offset():
    # jitter the reference box center; c=3 must find a better profile than c=0
    seq = _oracle_sequence(tau=3.5, seed=21, seq_id="cs0")
    ref = seq.frames[0]
    seq.frames[0] = FrameSample(
        timestamp_s=ref.timestamp_s,
        box=ref.box.shifted(2.0, -2.0),
        exact_box=ref.exact_box,
        depth_m=ref.depth_m,
        image=ref.image,
    )
    base_cfg = ScaleSearchConfig(shift_c=0)
    shift_cfg = ScaleSearchConfig(shift_c=3)
    est0 = pixel_mse_estimate(seq, base_cfg)
    est3 = pixel_mse_estimate(seq, shift_cfg)
    assert est3.profile.scores.min() < est0.profile.scores.min()
    truth = seq.label.alpha_by_gap[5]
    assert abs(est3.alpha_hat - truth) <= abs(est0.alpha_hat - truth)
    assert tuple(est3.profile.best_shift[int(np.argmin(est3.profile.scores))]) == (-2, 2)


def _bruteforce_pixel_mse(ref, tgt_crop, center, b1, cfg):
    """One crop_resize per (bin, dx, dy) candidate, offsets in lexicographic order."""
    out_h, out_w = tgt_crop.shape
    c = cfg.shift_c
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    mses = []
    for box in scaled_candidate_boxes(center_box, b1, cfg):
        row = []
        for dx in range(-c, c + 1):
            for dy in range(-c, c + 1):
                crop = crop_resize(ref, box.shifted(dx, dy), out_w, out_h)
                row.append(np.mean((crop - tgt_crop) ** 2))
        mses.append(row)
    offsets = [(dx, dy) for dx in range(-c, c + 1) for dy in range(-c, c + 1)]
    return np.array(mses), offsets


@pytest.mark.parametrize(
    "center, b1",
    [
        ((33.3, 27.8), BoundingBox(35.2, 29.6, 17.4, 12.6)),
        ((8.6, 50.1), BoundingBox(9.0, 49.0, 23.0, 19.0)),  # candidates past two edges
    ],
)
def test_pixel_mse_scores_match_bruteforce_crop_loop(center, b1):
    rng = np.random.default_rng(12)
    ref = rng.uniform(size=(60, 70))
    cfg = ScaleSearchConfig(n_bins=6, shift_c=2, alpha_min=0.8, alpha_max=1.3)
    out_w, out_h = int(round(b1.w)), int(round(b1.h))
    tgt_crop = crop_resize(ref, BoundingBox(center[0] + 1.3, center[1] - 0.6, 18.9, 13.1), out_w, out_h)
    mses, offsets = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg)
    want, want_offsets = _bruteforce_pixel_mse(ref, tgt_crop, center, b1, cfg)
    assert [tuple(o) for o in offsets.tolist()] == want_offsets
    np.testing.assert_allclose(mses, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(np.argmin(mses, axis=1), np.argmin(want, axis=1))
    assert np.argmin(mses) == np.argmin(want)


def test_pixel_mse_scores_recover_planted_offset():
    # dyadic geometry keeps every lattice coordinate exact, so the planted
    # candidate scores exactly 0 in the search and in the crop loop alike
    rng = np.random.default_rng(13)
    ref = rng.uniform(size=(64, 72))
    cfg = ScaleSearchConfig(n_bins=5, shift_c=3, alpha_min=0.75, alpha_max=1.25)
    center = (36.0, 30.0)
    b1 = BoundingBox(37.0, 31.0, 16.0, 12.0)
    bin_i, (dx, dy) = 3, (2, -1)
    planted = scaled_candidate_boxes(BoundingBox(*center, b1.w, b1.h), b1, cfg)[bin_i]
    tgt_crop = crop_resize(ref, planted.shifted(dx, dy), 16, 12)
    mses, offsets = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg)
    want, _ = _bruteforce_pixel_mse(ref, tgt_crop, center, b1, cfg)
    np.testing.assert_allclose(mses, want, rtol=1e-12, atol=0.0)
    best_bin, best_off = np.unravel_index(np.argmin(mses), mses.shape)
    assert (best_bin, tuple(offsets[best_off])) == (bin_i, (dx, dy))
    assert mses[best_bin, best_off] == 0.0
    assert np.array_equal(np.argmin(mses, axis=1), np.argmin(want, axis=1))


def _full_lattice_pixel_mse(ref, tgt_crop, center, b1, cfg):
    """The search over each bin's whole augmented lattice, sampled at once.

    Every (dx, dy) crop of a bin tiles one (2c+1) * out_h by
    (2c+1) * out_w lattice, reduced over its (row, column) axes in one
    mean; kept as the reference the blocked search must equal bit for bit.
    """
    out_h, out_w = tgt_crop.shape
    c = cfg.shift_c
    side = np.arange(-c, c + 1, dtype=np.float64)
    n_side = 2 * c + 1
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    mses = np.empty((cfg.n_bins, n_side * n_side))
    for i, box in enumerate(scaled_candidate_boxes(center_box, b1, cfg)):
        ys, xs = crop_positions(box, out_w, out_h)
        lattice_x = (side[:, None] + xs[None, :]).reshape(-1)
        lattice_y = (side[:, None] + ys[None, :]).reshape(-1)
        sampled = bilinear_sample(ref, lattice_y[:, None], lattice_x[None, :])
        diff = sampled.reshape(n_side, out_h, n_side, out_w)
        np.subtract(diff, tgt_crop[None, :, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        mses[i] = np.mean(diff, axis=(1, 3)).T.reshape(-1)
    return mses


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    shift_c=st.integers(0, 3),
    out_h=st.integers(2, 9),
    out_w=st.integers(2, 9),
    n_bins=st.integers(2, 4),
)
def test_pixel_mse_scores_equal_the_full_lattice_search(data, shift_c, out_h, out_w, n_bins):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    h, w = data.draw(st.integers(3, 30)), data.draw(st.integers(3, 30))
    ref = rng.uniform(size=(h, w))
    tgt_crop = rng.uniform(size=(out_h, out_w))
    # centers and boxes reach past every edge of the reference image
    center = (data.draw(st.floats(-8.0, w + 8.0)), data.draw(st.floats(-8.0, h + 8.0)))
    b1 = BoundingBox(
        data.draw(st.floats(-8.0, w + 8.0)),
        data.draw(st.floats(-8.0, h + 8.0)),
        data.draw(st.floats(1.0, 2.0 * w)),
        data.draw(st.floats(1.0, 2.0 * h)),
    )
    cfg = ScaleSearchConfig(n_bins=n_bins, top_k=1, shift_c=shift_c, alpha_min=0.7, alpha_max=1.4)
    mses, offsets = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg)
    assert offsets.shape == ((2 * shift_c + 1) ** 2, 2)
    assert np.array_equal(mses, _full_lattice_pixel_mse(ref, tgt_crop, center, b1, cfg))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift_c=st.integers(0, 3),
    # half the crops are 60-100 px a side, so large lattices are drawn too
    crop=st.one_of(st.tuples(st.integers(2, 100), st.integers(2, 100)),
                   st.tuples(st.integers(60, 100), st.integers(60, 100))),
    n_bins=st.integers(2, 5),
    size=st.tuples(st.integers(3, 120), st.integers(3, 120)),
    place=st.tuples(*[st.floats(-0.1, 1.1)] * 4, st.floats(0.05, 2.0), st.floats(0.05, 2.0)),
)
# 53 px at radius 3 is one block per lattice, 86 px one dy row group per
# block; three bins split into halves of two and one
@example(seed=1, shift_c=3, crop=(53, 53), n_bins=3, size=(90, 100),
         place=(0.5, 0.5, 0.45, 0.55, 0.6, 0.6))
@example(seed=2, shift_c=3, crop=(86, 86), n_bins=3, size=(120, 110),
         place=(-0.1, 1.1, 1.05, -0.05, 0.9, 0.8))
def test_pixel_mse_scores_equal_the_full_lattice_search_at_any_block_shape(
    seed, shift_c, crop, n_bins, size, place
):
    # crops up to 100 px fall on both sides of the one-block threshold, and
    # an odd bin count splits the search into unequal halves
    rng = np.random.default_rng(seed)
    out_h, out_w = crop
    h, w = size
    ref = rng.uniform(size=(h, w))
    tgt_crop = rng.uniform(size=(out_h, out_w))
    # centers and boxes reach past every edge of the reference image
    cx, cy, bx, by, bw, bh = place
    center = (cx * w, cy * h)
    b1 = BoundingBox(bx * w, by * h, bw * w, bh * h)
    cfg = ScaleSearchConfig(n_bins=n_bins, top_k=1, shift_c=shift_c, alpha_min=0.7, alpha_max=1.4)
    mses, _ = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg)
    assert np.array_equal(mses, _full_lattice_pixel_mse(ref, tgt_crop, center, b1, cfg))


def test_pixel_mse_estimate_leaves_no_thread():
    seq = _oracle_sequence()
    threads = threading.active_count()
    for multi_reference in (False, True):
        est = pixel_mse_estimate(seq, ScaleSearchConfig(shift_c=1, multi_reference=multi_reference))
        assert math.isfinite(est.tau_hat)
        assert threading.active_count() == threads


@pytest.mark.parametrize("bad_bin", [1, 3])
def test_pixel_mse_error_in_either_half_reaches_the_caller(monkeypatch, bad_bin):
    # five bins split into halves of three (calling thread) and two (the
    # worker); the first lattice at least as tall as bad_bin's fails, as
    # it would when one call sampled every bin in order
    real = estimate.lattice_row_blocks

    def failing_blocks(image, ys, xs, n):
        for b in range(len(ys)):
            if np.ptp(ys[b]) >= limit:
                raise DomainError(f"lattice {np.ptp(ys[b])!r} rows tall")
            yield from real(image, ys[b], xs[b], n)

    rng = np.random.default_rng(14)
    ref = rng.uniform(size=(60, 70))
    cfg = ScaleSearchConfig(n_bins=5, shift_c=2, alpha_min=0.8, alpha_max=1.3)
    center, b1 = (33.3, 27.8), BoundingBox(35.2, 29.6, 17.4, 12.6)
    tgt_crop = rng.uniform(size=(13, 17))
    ys, xs = estimate._bin_positions(crop_positions, center, b1, cfg, 17, 13)
    ys, xs = estimate._shift_lattice(ys, 2), estimate._shift_lattice(xs, 2)
    limit = np.ptp(ys[bad_bin])
    with pytest.raises(DomainError) as serial:
        for _ in failing_blocks(ref, ys, xs, 5):
            pass
    monkeypatch.setattr(estimate, "lattice_row_blocks", failing_blocks)
    threads = threading.active_count()
    with pytest.raises(DomainError) as split:
        _pixel_mse_scores(ref, tgt_crop, center, b1, cfg)
    assert type(split.value) is type(serial.value)
    assert str(split.value) == str(serial.value)
    assert threading.active_count() == threads


def test_concurrent_pixel_searches_equal_the_full_lattice_search():
    # six searches on three threads, each search with its own worker, and a
    # short switch interval: every half owns its buffers and its rows
    rng = np.random.default_rng(15)
    ref = rng.uniform(size=(90, 110))
    cfg = ScaleSearchConfig(n_bins=5, top_k=1, shift_c=3, alpha_min=0.8, alpha_max=1.3)
    cases = [
        (ref, rng.uniform(size=(40, 36)), (50.2, 41.7), BoundingBox(52.0, 44.5, 36.0, 40.0), cfg),
        (ref, rng.uniform(size=(70, 62)), (57.9, 46.3), BoundingBox(55.1, 43.8, 62.0, 70.0), cfg),
    ] * 3
    want = [_full_lattice_pixel_mse(*case) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(_pixel_mse_scores, *case) for case in cases]
            got = [future.result(timeout=120)[0] for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_pixel_search_layers_run_on_the_calling_thread(tmp_path, monkeypatch):
    # the functions a traced run wraps record one span stack for every
    # thread, so the pixel path must call them from the caller's thread only
    seq = _oracle_sequence()
    write_sequence_dir(seq, tmp_path)
    write_index(tmp_path, [seq.sequence_id], "test")
    (seq,) = load_dataset(tmp_path)
    seen = []

    def on_caller(fn):
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(estimate, "crop_resize", on_caller(estimate.crop_resize))
    monkeypatch.setattr(sampling, "bilinear_sample", on_caller(sampling.bilinear_sample))
    monkeypatch.setattr(FrameSample, "load_image", on_caller(FrameSample.load_image))
    monkeypatch.setattr(png, "decode_png", on_caller(png.decode_png))
    pixel_mse_estimate(seq, ScaleSearchConfig(shift_c=1, multi_reference=True))
    names = {name for name, _ in seen}
    assert names == {"crop_resize", "bilinear_sample", "load_image", "decode_png"}
    assert {ident for _, ident in seen} == {threading.get_ident()}


def _candidate_grid_patches(fmap0, center, b1, cfg):
    """Every (bin, shift) candidate patch in one bilinear call,
    (n_bins, n_off, out_h, out_w, C): the whole-stack reference that
    ``candidate_patches_by_bin`` and ``feature_scores`` must equal."""
    offsets = shift_offsets(cfg.shift_c).astype(np.float64)
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    grids = [grid_positions(box, cfg.target_w, cfg.target_h)
             for box in scaled_candidate_boxes(center_box, b1, cfg)]
    ys = np.array([y for y, _ in grids])[:, None, :, None] + offsets[None, :, 1, None, None]
    xs = np.array([x for _, x in grids])[:, None, None, :] + offsets[None, :, 0, None, None]
    return bilinear_sample(fmap0, ys, xs)


@settings(max_examples=25, deadline=None)
@given(
    cx=st.floats(-10.0, 50.0),
    cy=st.floats(-10.0, 40.0),
    bw=st.floats(2.0, 30.0),
    bh=st.floats(2.0, 30.0),
    n_bins=st.integers(2, 5),
    shift_c=st.integers(0, 2),
)
def test_feature_scores_equal_the_whole_stack_scores(cx, cy, bw, bh, n_bins, shift_c):
    # boxes reach past every edge of 30x40 feature maps
    rng = np.random.default_rng(1)
    fmap0, fmap1 = rng.normal(size=(2, 30, 40, 12))
    cfg = ScaleSearchConfig.feature_defaults(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=9, target_h=6
    )
    b1 = BoundingBox(20.0, 15.0, bw, bh)
    scores, _ = feature_scores(fmap0, fmap1, (cx, cy), b1, cfg)
    want = pooled_cosine_scores(
        _candidate_grid_patches(fmap0, (cx, cy), b1, cfg), target_grid_patch(fmap1, b1, cfg)
    )
    assert np.array_equal(scores, want)


@settings(max_examples=25, deadline=None)
@given(
    cx=st.floats(-10.0, 50.0),
    cy=st.floats(-10.0, 40.0),
    bw=st.floats(2.0, 30.0),
    bh=st.floats(2.0, 30.0),
    n_bins=st.integers(2, 5),
    shift_c=st.integers(0, 2),
)
def test_patches_by_bin_are_the_whole_stack_slices(cx, cy, bw, bh, n_bins, shift_c):
    # boxes reach past every edge of a 30x40 feature map
    fmap0 = np.random.default_rng(2).normal(size=(30, 40, 12))
    cfg = ScaleSearchConfig.feature_defaults(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=9, target_h=6
    )
    b1 = BoundingBox(20.0, 15.0, bw, bh)
    whole = _candidate_grid_patches(fmap0, (cx, cy), b1, cfg)
    count = 0
    for i, patches in enumerate(candidate_patches_by_bin(fmap0, (cx, cy), b1, cfg)):
        want = whole[i : i + 1]
        assert patches.shape == want.shape and patches.dtype == want.dtype
        assert np.array_equal(patches, want)
        count += 1
    assert count == n_bins


def _serial_feature_scores(fmap0, fmap1, center, b1, cfg):
    """One scale bin after another on the calling thread: the serial
    scoring that ``feature_scores``' two halves must equal."""
    target = target_grid_patch(fmap1, b1, cfg)
    scores = [
        pooled_cosine_scores(patches, target)
        for patches in candidate_patches_by_bin(fmap0, center, b1, cfg)
    ]
    return np.concatenate(scores)


@pytest.mark.parametrize("shift_c", [0, 1, 2])
@pytest.mark.parametrize("n_bins", [2, 3, 20, 21])
def test_feature_score_halves_equal_the_serial_scores(n_bins, shift_c):
    # float32 maps as hand_crafted_features makes them; candidate boxes
    # reach past the left and top edges of the reference map
    rng = np.random.default_rng(100 * n_bins + shift_c)
    fmap0, fmap1 = rng.normal(size=(2, 30, 40, 12)).astype(np.float32)
    cfg = ScaleSearchConfig.feature_defaults(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=9, target_h=6
    )
    center, b1 = (4.3, 3.1), BoundingBox(20.0, 15.0, 13.5, 9.25)
    threads = threading.active_count()
    scores, offsets = feature_scores(fmap0, fmap1, center, b1, cfg)
    assert threading.active_count() == threads
    assert scores.shape == (n_bins, (2 * shift_c + 1) ** 2) and scores.dtype == np.float64
    assert np.array_equal(scores, _serial_feature_scores(fmap0, fmap1, center, b1, cfg))
    assert np.array_equal(offsets, shift_offsets(shift_c))


def _serial_feature_estimate(seq, cfg, fc_weight, fc_bias):
    """A multi-reference feature-scale estimate computed serially from
    its definition: per-gap fused alphas averaged at 10 Hz."""
    last = len(seq.frames) - 1
    fmaps = [hand_crafted_features(frame.load_image()) for frame in seq.frames]
    h, w = seq.frames[last].load_image().shape[:2]
    b1 = expand_box(seq.frames[last].box, cfg.expand_cap, (w, h))

    def alpha_at(g):
        ref = seq.frames[last - g]
        scores = _serial_feature_scores(fmaps[last - g], fmaps[last], (ref.box.cx, ref.box.cy),
                                        b1, cfg)
        logits, best_idx = head_logits(scores, fc_weight, fc_bias)
        alpha = min(max(fuse_logits(logits, cfg), cfg.alpha_min), cfg.alpha_max)
        return alpha, logits, shift_offsets(cfg.shift_c)[best_idx]

    alpha, logits, best_shift = alpha_at(cfg.frame_gap)
    alpha_10 = float(np.mean([alpha_to_10hz(alpha_at(g)[0], seq.fps / g)
                              for g in range(1, last + 1)]))
    return alpha, alpha_10, ttc_from_scale_ratio(alpha_10, 0.1, cfg.ttc_reference), logits, best_shift


def test_multi_reference_feature_estimate_equals_its_serial_version():
    seq = _oracle_sequence(tau=5.0, seed=31, seq_id="mr1")
    cfg = ScaleSearchConfig.feature_defaults(multi_reference=True, shift_c=2)
    rng = np.random.default_rng(16)
    fc_weight = np.eye(cfg.n_bins) + rng.normal(scale=0.05, size=(cfg.n_bins, cfg.n_bins))
    fc_bias = rng.normal(scale=0.01, size=cfg.n_bins)
    threads = threading.active_count()
    est = feature_scale_estimate(seq, cfg, fc_weight, fc_bias)
    assert threading.active_count() == threads
    alpha, alpha_10, tau, logits, best_shift = _serial_feature_estimate(seq, cfg, fc_weight, fc_bias)
    assert (est.alpha_hat, est.alpha_hat_10hz, est.tau_hat) == (alpha, alpha_10, tau)
    assert np.array_equal(est.profile.scores, logits)
    assert np.array_equal(est.profile.best_shift, best_shift)


@pytest.mark.parametrize("failing", [("worker",), ("caller", "worker")])
def test_feature_score_error_in_either_half_reaches_the_caller(monkeypatch, failing):
    # twenty bins split into [0, 10) on the calling thread and [10, 20) on
    # the worker; with both halves failing, the calling half's error wins
    real = estimate.candidate_patches_by_bin
    main = threading.get_ident()

    def failing_patches(fmap0, center, b1, cfg, bins=slice(None)):
        side = "caller" if threading.get_ident() == main else "worker"
        if side in failing:
            raise DomainError(f"{side} half from bin {bins.start}")
        yield from real(fmap0, center, b1, cfg, bins)

    rng = np.random.default_rng(17)
    fmap0, fmap1 = rng.normal(size=(2, 30, 40, 12)).astype(np.float32)
    cfg = ScaleSearchConfig.feature_defaults(top_k=1, target_w=9, target_h=6)
    monkeypatch.setattr(estimate, "candidate_patches_by_bin", failing_patches)
    threads = threading.active_count()
    with pytest.raises(DomainError) as got:
        feature_scores(fmap0, fmap1, (20.0, 15.0), BoundingBox(20.0, 15.0, 12.0, 8.0), cfg)
    want = "caller half from bin 0" if "caller" in failing else "worker half from bin 10"
    assert str(got.value) == want
    assert threading.active_count() == threads


def test_feature_scale_errors_keep_the_serial_order(tmp_path):
    # the reference frame is read on a worker, but its error still comes
    # after the target frame's and after the pair's box check
    seq = _identity_sequence()
    missing = str(tmp_path / "missing.png")
    cfg = ScaleSearchConfig.feature_defaults()
    threads = threading.active_count()
    ref = replace(seq.frames[0], image=None, image_path=missing)
    with pytest.raises(ManifestError, match="frame image not found"):
        feature_scale_estimate(replace(seq, frames=[ref, *seq.frames[1:]]), cfg)
    unboxed = replace(seq.frames[-1], box=None)
    with pytest.raises(SequenceInvalidError, match="must carry boxes"):
        feature_scale_estimate(replace(seq, frames=[ref, *seq.frames[1:-1], unboxed]), cfg)
    target = replace(unboxed, image=None, image_path=str(tmp_path / "target.png"))
    with pytest.raises(ManifestError, match="target.png"):
        feature_scale_estimate(replace(seq, frames=[ref, *seq.frames[1:-1], target]), cfg)
    assert threading.active_count() == threads
