"""Estimators against the synthetic oracle and hand-built fixtures."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from feature_reference import (
    augmented_scores_out_of_place,
    candidate_grid_patches,
    ingredients,
    scaled_candidate_boxes,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit import estimate, png, sampling
from ttckit.boxes import BoundingBox, expand_box
from ttckit.core import ttc_from_scale_ratio
from ttckit.errors import DomainError, ManifestError, SequenceInvalidError
from ttckit.estimate import (
    ESTIMATOR_NAMES,
    IDENTITY_DRAW,
    FeatureSearchConfig,
    ScaleSearchConfig,
    _pixel_mse_scores,
    alpha_to_10hz,
    candidate_patches_by_bin,
    detection_ratio_estimate,
    feature_scale_estimate,
    fuse_logits,
    head_logits,
    make_estimator,
    pair_features,
    pixel_mse_estimate,
    pooled_cosine_scores,
)
from ttckit.evaluation import rte_metric
from ttckit.features import hand_crafted_features
from ttckit.manifest import FrameSample, Sequence, load_dataset, write_index, write_sequence_dir
from ttckit.sampling import (
    bilinear_sample,
    crop_positions,
    crop_resize,
    grid_positions,
    shift_offsets,
)
from ttckit.suites import DEFAULT_SUITE_CAMERA, constant_velocity_suite, mixed_interval_suite
from ttckit.synth import CameraModel, NoiseModel, PlanarTarget, noise_texture, sequence_for_ttc

CAM = CameraModel(800.0, width=320, height=192)


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
    feat = FeatureSearchConfig()
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


@pytest.mark.parametrize("gap", [1, 2, 3, 4, 5])
def test_an_exact_alpha_reports_the_label_ttc(gap):
    # the labels are target-frame TTC (alpha_10 = tau / (tau + 0.1)); an
    # exact alpha must give that TTC, not the reference frame's, gap / fps
    # earlier and so gap / fps larger: 18.8% too large at tau 2.66 s, gap 5
    cfg = ScaleSearchConfig(frame_gap=gap)
    for seq in constant_velocity_suite(4, seed=3):
        alpha = seq.label.alpha_by_gap[gap]
        assert cfg.alpha_min < alpha < cfg.alpha_max
        est = estimate._finish(alpha, cfg, seq.fps, gap, None, "oracle", False)
        assert rte_metric(est.tau_hat, seq.label.tau_s) <= 1e-9


def test_detection_matches_oracle_with_exact_boxes():
    seq = _oracle_sequence(tau=4.5)
    est = detection_ratio_estimate(seq, ScaleSearchConfig())
    assert abs(est.alpha_hat - seq.label.alpha_by_gap[5]) <= 1e-3


def test_feature_scale_identity_pair():
    seq = _identity_sequence()
    cfg = FeatureSearchConfig(shift_c=0)
    est = feature_scale_estimate(seq, cfg)
    bins = cfg.bins()
    nearest = int(np.argmin(np.abs(bins - 1.0)))
    assert int(np.argmax(est.profile.scores)) == nearest


def test_feature_scale_recovers_oracle_alpha():
    seq = _oracle_sequence(tau=4.5, seed=13)
    cfg = FeatureSearchConfig()
    est = feature_scale_estimate(seq, cfg)
    assert abs(est.alpha_hat - 0.9) <= 2 * cfg.bin_width


def test_feature_scale_uniform_logits_tie_break():
    img = np.full((120, 160, 3), 0.6, dtype=np.float32)
    box = BoundingBox(80.0, 60.0, 40.0, 30.0)
    frames = [FrameSample(timestamp_s=i * 0.1, box=box, image=img) for i in range(6)]
    seq = Sequence(sequence_id="flat", fps=10.0, frames=frames)
    cfg = FeatureSearchConfig(shift_c=0)
    est = feature_scale_estimate(seq, cfg)
    # constant features give equal logits everywhere: stable top-k keeps
    # the first k bins, and equal sigmoid weights average them
    assert est.alpha_hat == pytest.approx(float(cfg.bins()[: cfg.top_k].mean()))
    assert est.low_confidence


def test_feature_scale_head_shape_mismatch():
    seq = _identity_sequence()
    cfg = FeatureSearchConfig()
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
)
def test_estimates_stay_in_the_search_range(name, seed, size0, size1, drift):
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
        cfg = FeatureSearchConfig(shift_c=1, target_w=12, target_h=12)
    else:
        cfg = ScaleSearchConfig(n_bins=20, shift_c=1)
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
    cfg = FeatureSearchConfig(n_bins=len(logits), top_k=min(top_k, len(logits)))
    bins = cfg.bins()
    assert bins[0] <= fuse_logits(np.array(logits), cfg) <= bins[-1]


def test_fuse_logits_weights_bins_in_log_space_when_the_sigmoids_underflow():
    # sigmoid(z) ~ exp(z) far below 0, so two logits 1 apart weigh e : 1
    cfg = FeatureSearchConfig(n_bins=4, top_k=2)
    bins = cfg.bins()
    want = (np.e * bins[2] + bins[0]) / (np.e + 1.0)
    logits = np.array([-1001.0, -1003.0, -1000.0, -1004.0])
    assert fuse_logits(logits, cfg) == pytest.approx(want, rel=1e-12)


def test_make_estimator_dispatch():
    cfg = ScaleSearchConfig(shift_c=0)
    feat_cfg = FeatureSearchConfig(shift_c=0)
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
def test_pixel_mse_scores_match_bruteforce_crop_loop(center, b1, pool):
    rng = np.random.default_rng(12)
    ref = rng.uniform(size=(60, 70))
    cfg = ScaleSearchConfig(n_bins=6, shift_c=2, alpha_min=0.8, alpha_max=1.3)
    out_w, out_h = int(round(b1.w)), int(round(b1.h))
    tgt_crop = crop_resize(ref, BoundingBox(center[0] + 1.3, center[1] - 0.6, 18.9, 13.1), out_w, out_h)
    mses, offsets = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg, pool)
    want, want_offsets = _bruteforce_pixel_mse(ref, tgt_crop, center, b1, cfg)
    assert [tuple(o) for o in offsets.tolist()] == want_offsets
    np.testing.assert_allclose(mses, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(np.argmin(mses, axis=1), np.argmin(want, axis=1))
    assert np.argmin(mses) == np.argmin(want)


def test_pixel_mse_scores_recover_planted_offset(pool):
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
    mses, offsets = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg, pool)
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
def test_pixel_mse_scores_equal_the_full_lattice_search(pool, data, shift_c, out_h, out_w, n_bins):
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
    mses, offsets = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg, pool)
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
    pool, seed, shift_c, crop, n_bins, size, place
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
    mses, _ = _pixel_mse_scores(ref, tgt_crop, center, b1, cfg, pool)
    assert np.array_equal(mses, _full_lattice_pixel_mse(ref, tgt_crop, center, b1, cfg))


@settings(max_examples=150, deadline=None)
@given(
    cx=st.floats(-40.0, 360.0),
    cy=st.floats(-40.0, 230.0),
    bw=st.floats(2.0, 120.0),
    bh=st.floats(2.0, 120.0),
    n_bins=st.integers(2, 130),
    alpha_min=st.floats(0.2, 1.2),
    alpha_span=st.floats(0.01, 1.5),
    out_w=st.integers(2, 90),
    out_h=st.integers(2, 90),
)
def test_bin_positions_equal_the_per_box_positions(
    cx, cy, bw, bh, n_bins, alpha_min, alpha_span, out_w, out_h
):
    # every bin placed in one call equals its BoundingBox's crop or grid
    # positions, bit for bit
    cfg = ScaleSearchConfig(n_bins=n_bins, top_k=1, alpha_min=alpha_min,
                            alpha_max=alpha_min + alpha_span)
    b1 = BoundingBox(cx + 1.7, cy - 0.9, bw, bh)
    boxes = scaled_candidate_boxes(BoundingBox(cx, cy, bw, bh), b1, cfg)
    for positions in (crop_positions, grid_positions):
        ys, xs = estimate._bin_positions(positions, (cx, cy), b1, cfg, out_w, out_h)
        want = [positions(box, out_w, out_h) for box in boxes]
        assert np.array_equal(ys, np.stack([y for y, _ in want]))
        assert np.array_equal(xs, np.stack([x for _, x in want]))


def test_bin_positions_refuse_boxes_with_infinite_sides():
    cfg = ScaleSearchConfig(n_bins=3, top_k=1, alpha_min=1.0, alpha_max=1e308)
    with pytest.raises(DomainError):
        estimate._bin_positions(crop_positions, (10.0, 10.0), BoundingBox(10.0, 10.0, 20.0, 20.0),
                                cfg, 20, 20)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gray_equals_the_float64_channel_mean(dtype):
    rng = np.random.default_rng(21)
    images = [rng.uniform(-2.0, 3.0, size=(int(rng.integers(1, 40)), int(rng.integers(1, 40)), 3))
              for _ in range(30)]
    # frames as load_image decodes them: 8-bit levels over 255
    images.append(rng.integers(0, 256, size=(192, 320, 3)) / np.float32(255.0))
    for img in images:
        img = img.astype(dtype)
        got = estimate._gray(img)
        assert got.dtype == np.float64
        assert np.array_equal(got, np.asarray(img, np.float64).mean(axis=2))
    flat = rng.uniform(size=(7, 9)).astype(dtype)
    assert np.array_equal(estimate._gray(flat), np.asarray(flat, np.float64))


def _bound_pass_inputs():
    # a 31 px crop, the smallest pixel-search band, at the default 125 bins
    # and radius 3: its bound lattices are 77 x 77 samples
    rng = np.random.default_rng(22)
    ref = rng.uniform(size=(192, 320))
    tgt_crop = rng.uniform(size=(31, 31))
    return ref, tgt_crop, (160.3, 95.7), BoundingBox(161.0, 96.2, 31.0, 31.0), ScaleSearchConfig()


def test_pixel_mse_bounds_equal_one_lattice_sampling(monkeypatch):
    # at the real budget the bound pass samples its 77 x 77 lattices six
    # to a block, the last block of each half short (63 and 62 bins); its
    # bounds and shifts equal those of sampling every lattice alone
    real = estimate.lattice_row_blocks
    inputs = _bound_pass_inputs()
    shapes = []

    def recording_blocks(image, ys, xs, n):
        for block in real(image, ys, xs, n):
            shapes.append(block.shape)
            yield block

    def one_lattice_blocks(image, ys, xs, n):
        for b in range(len(ys)):
            yield from real(image, ys[b], xs[b], n)

    monkeypatch.setattr(estimate, "lattice_row_blocks", recording_blocks)
    with ThreadPoolExecutor(max_workers=1) as pool:
        bounds, shift_idx = estimate._pixel_mse_bounds(*inputs, pool)
    assert sorted(set(shapes)) == [(2, 77, 77), (3, 77, 77), (6, 77, 77)]
    assert sum(shape[0] for shape in shapes) == 125
    monkeypatch.setattr(estimate, "lattice_row_blocks", one_lattice_blocks)
    with ThreadPoolExecutor(max_workers=1) as pool:
        want_bounds, want_idx = estimate._pixel_mse_bounds(*inputs, pool)
    assert np.array_equal(bounds, want_bounds) and np.array_equal(shift_idx, want_idx)


def test_pixel_mse_bound_pass_peak_allocation_is_bounded():
    # the sampler's strip and block buffers are allocated once per call,
    # so one 125-bin bound pass with no pool, one call on this thread,
    # peaks at about 1.77 MB: the call's three buffers (a strip of at most
    # 53 rows x 462 columns, a 6 x 77 x 77 block and a right/bottom-term
    # buffer as large as the block, 0.77 MB), its corners and weights, and
    # the pass's bin positions.  Allocating the buffers once per block
    # instead peaks at about 2.46 MB, since each block's new buffers are
    # allocated while the last block is still held; 1.8 MB lies between
    import tracemalloc

    inputs = _bound_pass_inputs()
    estimate._pixel_mse_bounds(*inputs, None)
    tracemalloc.start()
    try:
        estimate._pixel_mse_bounds(*inputs, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_800_000, peak


def test_pixel_mse_estimate_runs_both_passes_on_both_threads(monkeypatch, pool):
    # both passes of every search run on the calling thread and the pool's
    # worker
    seq = _oracle_sequence()
    real = estimate.lattice_row_blocks
    seen = []

    def recording_blocks(image, ys, xs, n):
        seen.append((np.shape(ys)[-1], threading.get_ident()))
        return real(image, ys, xs, n)

    monkeypatch.setattr(estimate, "lattice_row_blocks", recording_blocks)
    est = pixel_mse_estimate(seq, ScaleSearchConfig(shift_c=1), pool)
    assert math.isfinite(est.tau_hat)
    # bound-pass lattices have a third of the exact pass's rows
    for rows in {rows for rows, _ in seen}:
        assert len({ident for r, ident in seen if r == rows}) == 2
    assert len({rows for rows, _ in seen}) == 2


def _search_inputs(seq, cfg):
    """The (ref_gray, tgt_crop, center, b1, cfg) of the pruned search at the
    configured gap, captured from one estimate."""
    captured = []
    real = estimate._pruned_pixel_search

    def capture(*args):
        captured.append(args[:5])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_pruned_pixel_search", capture)
        pixel_mse_estimate(seq, cfg)
    return captured[0]


@pytest.mark.parametrize("bad_bin", [1, 3])
def test_pixel_mse_error_in_either_half_reaches_the_caller(monkeypatch, pool, bad_bin):
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
        _pixel_mse_scores(ref, tgt_crop, center, b1, cfg, pool)
    assert type(split.value) is type(serial.value)
    assert str(split.value) == str(serial.value)
    assert threading.active_count() == threads


@pytest.mark.parametrize("pass_", ["bound", "exact"])
@pytest.mark.parametrize("side", ["caller", "worker"])
def test_pixel_mse_error_in_either_pass_reaches_the_caller(monkeypatch, pool, pass_, side):
    # nine bins: the bound pass splits them into halves of five (calling
    # thread) and four (the worker), the exact pass's first call its four
    # bins of lowest bound into two and two.  In the chosen pass, every
    # lattice at least as tall as the first bad one fails, from one in the
    # chosen half on, as it would when one call sampled the pass's bins in
    # order; the other pass runs as usual
    real = estimate.lattice_row_blocks
    seq = _identity_sequence(seed=3)
    cfg = ScaleSearchConfig(n_bins=9, top_k=3, shift_c=1, alpha_min=0.8, alpha_max=1.25)
    ref_gray, tgt_crop, center, b1, _ = _search_inputs(seq, cfg)
    out_h, out_w = tgt_crop.shape
    ys, xs = estimate._bin_positions(crop_positions, center, b1, cfg, out_w, out_h)
    if pass_ == "bound":
        ys, xs = ys[:, ::3], xs[:, ::3]
        batch = np.arange(cfg.n_bins)
    else:
        bounds, _ = estimate._pixel_mse_bounds(ref_gray, tgt_crop, center, b1, cfg, pool)
        batch = np.sort(np.argsort(bounds, kind="stable")[:4])
    ys, xs = estimate._shift_lattice(ys[batch], 1), estimate._shift_lattice(xs[batch], 1)
    # lattices grow with the bin, and the two passes' lattices differ in height
    rows, limit = ys.shape[1], np.ptp(ys[1 if side == "caller" else len(batch) - 1])

    def failing_blocks(image, ys, xs, n):
        for b in range(len(ys)):
            if ys.shape[1] == rows and np.ptp(ys[b]) >= limit:
                raise DomainError(f"lattice {np.ptp(ys[b])!r} rows tall")
            yield from real(image, ys[b], xs[b], n)

    with pytest.raises(DomainError) as serial:
        for _ in failing_blocks(ref_gray, ys, xs, 3):
            pass
    monkeypatch.setattr(estimate, "lattice_row_blocks", failing_blocks)
    threads = threading.active_count()
    with pytest.raises(DomainError) as split:
        pixel_mse_estimate(seq, cfg, pool)
    assert type(split.value) is type(serial.value)
    assert str(split.value) == str(serial.value)
    assert threading.active_count() == threads


def _full_search(ref_gray, tgt_crop, center, b1, cfg, pool):
    """``_pruned_pixel_search`` with nothing pruned: every bin's best MSE
    from the whole-lattice reference search."""
    mses = _full_lattice_pixel_mse(ref_gray, tgt_crop, center, b1, cfg)
    shift_idx = np.argmin(mses, axis=1)
    return mses[np.arange(cfg.n_bins), shift_idx], shift_idx, np.ones(cfg.n_bins, dtype=bool)


def _assert_pruning_is_exact(seq, cfg):
    """The pruned estimate against the full search: the same fused bits,
    the same exact bins, and bounds at or below the true best MSEs."""
    pruned = pixel_mse_estimate(seq, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimate, "_pruned_pixel_search", _full_search)
        full = pixel_mse_estimate(seq, cfg)
    assert (pruned.alpha_hat, pruned.alpha_hat_10hz) == (full.alpha_hat, full.alpha_hat_10hz)
    assert pruned.tau_hat == full.tau_hat
    assert type(pruned.low_confidence) is bool
    assert pruned.low_confidence == full.low_confidence
    got, want = pruned.profile, full.profile
    exact = np.ones(cfg.n_bins, dtype=bool) if got.exact is None else got.exact
    assert got.exact is None or not got.exact.all()
    assert np.array_equal(got.scores[exact], want.scores[exact])
    assert np.array_equal(got.best_shift[exact], want.best_shift[exact])
    assert np.all(got.scores[~exact] <= want.scores[~exact])
    return pruned


def _frames_sequence(images, boxes):
    frames = [FrameSample(timestamp_s=0.1 * i, box=box, image=image)
              for i, (image, box) in enumerate(zip(images, boxes))]
    return Sequence(sequence_id="pr", fps=10.0, frames=frames)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shift_c=st.integers(0, 3),
    # (n_bins, top_k), top_k up to n_bins but often small, which prunes more
    bins=st.integers(2, 24).flatmap(lambda n: st.tuples(
        st.just(n), st.one_of(st.integers(1, min(n, 3)), st.integers(1, n)))),
    gap=st.integers(1, 2),
    noise=st.sampled_from([0.0, 0.02, None]),
    inside=st.booleans(),
)
def test_pruned_pixel_search_is_exact(seed, shift_c, bins, gap, noise, inside):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(8, 41, size=2)
    # blocky images, so that the MSE varies with the scale; the target frame
    # is the reference, with noise added, or an unrelated image (None)
    block = rng.integers(1, 11)
    ref = np.kron(rng.uniform(size=(h // block + 1, w // block + 1)), np.ones((block, block)))[:h, :w]
    tgt = rng.uniform(size=ref.shape) if noise is None else ref + rng.normal(0.0, noise, ref.shape)
    # boxes well inside the image, or with centers past every edge
    # (expand_box leaves a box past the border as it is)
    lo, hi = (0.3, 0.7) if inside else (-8.0 / min(h, w), 1.0 + 8.0 / min(h, w))

    def box(cx, cy):
        top = 0.5 if inside else 1.2
        return BoundingBox(float(cx), float(cy), rng.uniform(2.0, top * w), rng.uniform(2.0, top * h))

    boxes = [box(rng.uniform(lo * w, hi * w), rng.uniform(lo * h, hi * h)) for _ in range(2)]
    # the target box within the shift radius of the reference box's center,
    # so that the bins near 1 score near 0 and the others can be pruned
    dx, dy = rng.integers(-shift_c, shift_c + 1, size=2)
    boxes.append(box(boxes[2 - gap].cx + dx, boxes[2 - gap].cy + dy))
    n_bins, top_k = bins
    cfg = ScaleSearchConfig(n_bins=n_bins, top_k=top_k, shift_c=shift_c, alpha_min=0.5, alpha_max=2.0,
                            frame_gap=gap)
    _assert_pruning_is_exact(_frames_sequence([ref, ref, tgt], boxes), cfg)


def test_pruned_pixel_search_ties_at_the_kth_bin():
    # zero reference but for a bright band that only the larger candidates
    # reach: every candidate inside the zero region scores mean(t^2) to the
    # bit, so bins 0-3 tie, the 3rd and 4th exact MSEs among them, and the
    # stable top-3 keeps bins 0-2; bins 5-11, whose crops cover more of the
    # band, are pruned
    rng = np.random.default_rng(21)
    ref = np.zeros((64, 96))
    ref[:, 52:] = 1.0
    tgt = np.zeros((64, 96))
    tgt[22:42, 30:50] = rng.uniform(0.0, 0.1, size=(20, 20))
    box = BoundingBox(40.0, 32.0, 20.0, 20.0)
    cfg = ScaleSearchConfig(n_bins=12, top_k=3, shift_c=1, alpha_min=0.6, alpha_max=2.8, expand_cap=1.0)
    est = _assert_pruning_is_exact(_frames_sequence([ref] * 5 + [tgt], [box] * 6), cfg)
    scores, exact = est.profile.scores, est.profile.exact
    assert np.all(scores[:4] == scores[0]) and np.all(scores[4:] > scores[0])
    assert exact.tolist() == [True] * 5 + [False] * 7
    assert est.alpha_hat == pytest.approx(float(cfg.bins()[:3].mean()))


def test_pruned_pixel_search_scores_a_constant_frame_fully():
    img = np.full((40, 60), 0.5)
    box = BoundingBox(30.0, 20.0, 16.0, 12.0)
    est = _assert_pruning_is_exact(_frames_sequence([img] * 6, [box] * 6), ScaleSearchConfig(shift_c=2))
    assert est.low_confidence and est.profile.exact is None


def test_pruned_pixel_search_scores_a_near_flat_profile_fully():
    # an identity pair whose texture is 1e-7 deep: the MSEs vary by far more
    # than the bound pass's factor of about nine, but their whole spread is
    # below the flat-profile tolerance, which the bounds cannot rule out, so
    # every bin is finished and the profile is flagged
    rng = np.random.default_rng(22)
    img = 0.5 + 1e-7 * np.kron(rng.uniform(size=(12, 16)), np.ones((4, 4)))
    box = BoundingBox(32.0, 24.0, 20.0, 16.0)
    cfg = ScaleSearchConfig(n_bins=25, shift_c=1, expand_cap=1.0)
    ref_gray, tgt_crop, center, b1, _ = _search_inputs(_frames_sequence([img] * 6, [box] * 6), cfg)
    with ThreadPoolExecutor(max_workers=1) as pool:
        bounds, _ = estimate._pixel_mse_bounds(ref_gray, tgt_crop, center, b1, cfg, pool)
    full, _, _ = _full_search(ref_gray, tgt_crop, center, b1, cfg, None)
    assert np.sum(bounds > np.sort(full)[cfg.top_k - 1]) > 0
    est = _assert_pruning_is_exact(_frames_sequence([img] * 6, [box] * 6), cfg)
    assert est.low_confidence and est.profile.exact is None


def test_pixel_search_finishes_few_bins_on_a_noisy_suite_sequence(monkeypatch):
    # one 48 px sequence with the pixel-search benchmark's box noise: the
    # full search scored all 125 bins exactly; the pruned one scores 13
    (seq,) = constant_velocity_suite(
        1, camera=DEFAULT_SUITE_CAMERA, seed=7, y_last=DEFAULT_SUITE_CAMERA.f * 2.0 / 48.0,
        noise=NoiseModel(box_center_jitter_px=2, box_scale_jitter=0.03, seed=7),
    )
    real = estimate._pixel_mse_scores
    scored = []

    def counting_scores(*args, **kwargs):
        mses, offsets = real(*args, **kwargs)
        scored.append(len(mses))
        return mses, offsets

    monkeypatch.setattr(estimate, "_pixel_mse_scores", counting_scores)
    est = pixel_mse_estimate(seq, ScaleSearchConfig())
    assert sum(scored) == int(est.profile.exact.sum()) < 32


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

    def search(*case):
        with ThreadPoolExecutor(max_workers=1) as own:
            return _pixel_mse_scores(*case, own)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(search, *case) for case in cases]
            got = [future.result(timeout=120)[0] for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_pixel_search_layers_run_on_the_calling_thread(tmp_path, monkeypatch, pool):
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
    pixel_mse_estimate(seq, ScaleSearchConfig(shift_c=1), pool)
    names = {name for name, _ in seen}
    assert names == {"crop_resize", "bilinear_sample", "load_image", "decode_png"}
    assert {ident for _, ident in seen} == {threading.get_ident()}


# (target_w, target_h): a small grid, the default grid, and a width of 3
# mod 4, since the bits of a BLAS product can depend on its row count and
# the scorer reduces one grid row of out_w positions per product
@pytest.mark.parametrize("grid", [(9, 6), (50, 50), (51, 50)], ids=["9x6", "50x50", "51x50"])
@settings(max_examples=25, deadline=None)
@given(
    cx=st.floats(-10.0, 50.0),
    cy=st.floats(-10.0, 40.0),
    bw=st.floats(2.0, 30.0),
    bh=st.floats(2.0, 30.0),
    n_bins=st.integers(2, 5),
    shift_c=st.integers(0, 2),
)
def test_feature_scores_equal_the_whole_stack_scores(pool, grid, cx, cy, bw, bh, n_bins, shift_c):
    # boxes reach past every edge of 30x40 feature maps
    rng = np.random.default_rng(1)
    fmap0, fmap1 = rng.normal(size=(2, 30, 40, 12))
    cfg = FeatureSearchConfig(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=grid[0], target_h=grid[1]
    )
    b1 = BoundingBox(20.0, 15.0, bw, bh)
    # a draw with biases, under which <p0, mask>, the scorer's matmul, enters
    # the scores; the identity draw multiplies it by 0
    draws = [IDENTITY_DRAW, (1.07, -0.02, 0.95, 0.03)]
    scores = pooled_cosine_scores(fmap0, fmap1, (cx, cy), b1, cfg, draws, pool)
    prep = ingredients(fmap0, fmap1, (cx, cy), b1, cfg)
    for got, draw in zip(scores, draws):
        assert np.array_equal(got, augmented_scores_out_of_place(prep, draw))


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
    cfg = FeatureSearchConfig(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=9, target_h=6
    )
    b1 = BoundingBox(20.0, 15.0, bw, bh)
    whole = candidate_grid_patches(fmap0, (cx, cy), b1, cfg)
    n_side = 2 * shift_c + 1
    count = 0
    for i, dy_groups in enumerate(candidate_patches_by_bin(fmap0, (cx, cy), b1, cfg)):
        # bin i's patches by (dx, dy), offsets lexicographic in (dx, dy)
        want = whole[i].reshape((n_side, n_side) + whole.shape[2:])
        groups = 0
        for dy, rows in enumerate(dy_groups):
            assert rows.shape == (cfg.target_h, n_side, cfg.target_w, 12)
            assert rows.dtype == want.dtype
            assert np.array_equal(np.swapaxes(rows, 0, 1), want[:, dy])
            groups += 1
        assert groups == n_side
        count += 1
    assert count == n_bins


@pytest.mark.parametrize("shift_c", [0, 1, 2])
@pytest.mark.parametrize("n_bins", [2, 3, 20, 21])
def test_feature_score_halves_equal_the_serial_scores(pool, n_bins, shift_c):
    # float32 values promoted to float64, as pair_features passes them;
    # candidate boxes reach past the left and top edges of the reference map
    rng = np.random.default_rng(100 * n_bins + shift_c)
    fmap0, fmap1 = rng.normal(size=(2, 30, 40, 12)).astype(np.float32).astype(np.float64)
    cfg = FeatureSearchConfig(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=9, target_h=6
    )
    center, b1 = (4.3, 3.1), BoundingBox(20.0, 15.0, 13.5, 9.25)
    threads = threading.active_count()
    scores = pooled_cosine_scores(fmap0, fmap1, center, b1, cfg, [IDENTITY_DRAW], pool)
    assert threading.active_count() == threads
    assert scores.shape == (1, n_bins, (2 * shift_c + 1) ** 2) and scores.dtype == np.float64
    prep = ingredients(fmap0, fmap1, center, b1, cfg)
    assert np.array_equal(scores[0], augmented_scores_out_of_place(prep, IDENTITY_DRAW))



@pytest.mark.parametrize("with_pool, bound", [(False, 8_000_000), (True, 14_000_000)])
def test_scoring_a_default_pair_holds_no_patch_buffer(pool, with_pool, bound):
    # each dy row group is reduced in the sampler's block buffer as it
    # comes, so no thread holds a bin's (n_off, h, w, C) patches, 2.16 MB
    # at the default 50 x 50 grid and shift radius 1.  Scoring one default
    # pair at 36 draws peaks at about 7.2 MB on the calling thread alone
    # and 11.8 MB with the worker scoring half of the bins; one patch
    # buffer per thread took these to about 9.5 and 16.3 MB
    import tracemalloc

    cfg = FeatureSearchConfig()
    inputs = pair_features(mixed_interval_suite(1, seed=77)[0], cfg)
    rng = np.random.default_rng(36)
    draws = [tuple(d) for d in rng.uniform((0.8, -0.1, 0.8, -0.1), (1.2, 0.1, 1.2, 0.1), (36, 4))]
    scorer = pool if with_pool else None
    pooled_cosine_scores(*inputs, cfg, draws, scorer)
    tracemalloc.start()
    try:
        pooled_cosine_scores(*inputs, cfg, draws, scorer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak

def _serial_feature_estimate(seq, cfg, fc_weight, fc_bias):
    """A feature-scale estimate computed serially from its definition, on
    the calling thread: the region-of-interest features' scores at the
    identity draw, written out of place, then the head, the fused alpha at
    the configured gap, its 10 Hz equivalent and its target-frame TTC."""
    gap = cfg.frame_gap
    prep = ingredients(*pair_features(seq, cfg), cfg)
    scores = augmented_scores_out_of_place(prep, IDENTITY_DRAW)
    logits, best_idx = head_logits(scores, fc_weight, fc_bias)
    alpha = min(max(fuse_logits(logits, cfg), cfg.alpha_min), cfg.alpha_max)
    tau = ttc_from_scale_ratio(alpha, gap / seq.fps)
    return alpha, alpha_to_10hz(alpha, seq.fps / gap), tau, logits, shift_offsets(cfg.shift_c)[best_idx]


def test_feature_estimate_equals_its_serial_version(pool):
    seq = _oracle_sequence(tau=5.0, seed=31, seq_id="mr1")
    cfg = FeatureSearchConfig(shift_c=2)
    rng = np.random.default_rng(16)
    fc_weight = np.eye(cfg.n_bins) + rng.normal(scale=0.05, size=(cfg.n_bins, cfg.n_bins))
    fc_bias = rng.normal(scale=0.01, size=cfg.n_bins)
    threads = threading.active_count()
    est = feature_scale_estimate(seq, cfg, fc_weight, fc_bias, pool)
    assert threading.active_count() == threads
    alpha, alpha_10, tau, logits, best_shift = _serial_feature_estimate(seq, cfg, fc_weight, fc_bias)
    assert (est.alpha_hat, est.alpha_hat_10hz, est.tau_hat) == (alpha, alpha_10, tau)
    assert np.array_equal(est.profile.scores, logits)
    assert np.array_equal(est.profile.best_shift, best_shift)


def _whole_frame_inputs(seq, cfg):
    """The feature search's inputs on whole frames: both frames' features,
    the reference box center and the expanded target box."""
    ref, tgt = seq.frames[-1 - cfg.frame_gap], seq.frames[-1]
    tgt_img = tgt.load_image()
    b1 = expand_box(tgt.box, cfg.expand_cap, tgt_img.shape[1::-1])
    f0, f1 = hand_crafted_features(ref.load_image()), hand_crafted_features(tgt_img)
    return f0, f1, (ref.box.cx, ref.box.cy), b1


def _moved_boxes(seq, ref_box, tgt_box):
    frames = [replace(f, box=ref_box) for f in seq.frames[:-1]]
    return replace(seq, frames=[*frames, replace(seq.frames[-1], box=tgt_box)])


def test_region_of_interest_scores_equal_the_whole_frame_scores(pool):
    # the region keeps every pixel whose features the search reads, so
    # its scores are the whole frame's up to box_mean's rounding
    seqs = mixed_interval_suite(4, seed=5)
    h, w = seqs[0].frames[-1].load_image().shape[:2]
    moves = [  # (reference box, target box), each (cx, cy, w, h)
        ((w - 4.0, 40.0, 30.0, 24.0), (w - 6.0, 41.0, 28.0, 22.0)),  # across the right border
        ((30.0, 3.0, 26.0, 20.0), (31.0, 2.0, 24.0, 19.0)),  # across the top border
        ((8.0, h - 9.0, 20.0, 20.0), (9.0, h - 8.0, 18.0, 18.0)),  # in a corner
        # wholly past the right edge, where every sample is edge-clamped
        ((w + 30.0, 50.0, 20.0, 20.0), (w + 29.0, 50.0, 19.0, 19.0)),
    ]
    seqs += [_moved_boxes(seq, BoundingBox(*ref), BoundingBox(*tgt))
             for seq, (ref, tgt) in zip(seqs, moves)]
    for shift_c in range(4):
        cfg = FeatureSearchConfig(shift_c=shift_c, target_w=24, target_h=24)
        for seq in seqs:
            roi = pair_features(seq, cfg)
            assert roi[0].shape[0] < h or roi[0].shape[1] < w
            (got,) = pooled_cosine_scores(*roi, cfg, [IDENTITY_DRAW], pool)
            whole = _whole_frame_inputs(seq, cfg)
            (want,) = pooled_cosine_scores(*whole, cfg, [IDENTITY_DRAW], pool)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_pair_features_take_the_estimator_frame_pair():
    # gap g pairs frame len-1-g with the last frame, as the estimators do;
    # the reference features are those of that frame's region of interest,
    # and a gap the sequence cannot hold is refused, never wrapped around
    seq = mixed_interval_suite(1, seed=77)[0]
    for gap in (1, 5):
        f0, _, center, _ = pair_features(seq, FeatureSearchConfig(frame_gap=gap))
        ref = seq.frames[len(seq.frames) - 1 - gap]
        x0, y0 = round(ref.box.cx - center[0]), round(ref.box.cy - center[1])
        assert center == (ref.box.cx - x0, ref.box.cy - y0)
        region = ref.load_image()[y0 : y0 + f0.shape[0], x0 : x0 + f0.shape[1]]
        assert np.array_equal(f0, hand_crafted_features(region))
    for gap in (6, 9):
        with pytest.raises(SequenceInvalidError, match=f"gap {gap} needs"):
            pair_features(seq, FeatureSearchConfig(frame_gap=gap))


def test_pair_features_are_the_float32_features_promoted_once():
    # the sampler reads float64 only, so both maps come as float64, with
    # the values of the float32 features of the region of interest
    seq = mixed_interval_suite(1, seed=77)[0]
    f0, f1, center, _ = pair_features(seq, FeatureSearchConfig(frame_gap=1))
    ref, tgt = seq.frames[-2], seq.frames[-1]
    x0, y0 = round(ref.box.cx - center[0]), round(ref.box.cy - center[1])
    region = np.s_[y0 : y0 + f0.shape[0], x0 : x0 + f0.shape[1]]
    for got, frame in ((f0, ref), (f1, tgt)):
        want = hand_crafted_features(frame.load_image()[region])
        assert want.dtype == np.float32
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("failing", [("worker",), ("caller", "worker")])
def test_feature_score_error_in_either_half_reaches_the_caller(monkeypatch, pool, failing):
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
    cfg = FeatureSearchConfig(top_k=1, target_w=9, target_h=6)
    monkeypatch.setattr(estimate, "candidate_patches_by_bin", failing_patches)
    threads = threading.active_count()
    with pytest.raises(DomainError) as got:
        pooled_cosine_scores(fmap0, fmap1, (20.0, 15.0), BoundingBox(20.0, 15.0, 12.0, 8.0), cfg,
                             [IDENTITY_DRAW], pool)
    want = "caller half from bin 0" if "caller" in failing else "worker half from bin 10"
    assert str(got.value) == want
    assert threading.active_count() == threads


def test_feature_scale_errors_keep_the_serial_order(tmp_path):
    # the target frame is read first, so its error comes before the
    # pair's box check, and the reference frame's after both
    seq = _identity_sequence()
    missing = str(tmp_path / "missing.png")
    cfg = FeatureSearchConfig()
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
