"""Annotation pipeline: corner depth, RANSAC velocity, multi-window labels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit.annotate import (
    DepthTrack,
    arbitrate_multi_q,
    annotate_sequence,
    cuboid_corners,
    nearest_corner_depth,
    ransac_fit_velocity,
    rebalance_sample,
    ttc_label,
    uniform_interval_target,
)
from ttckit.core import TtcInterval
from ttckit.errors import DomainError, FitFailedError
from ttckit.manifest import Sequence, SequenceLabel


def test_nearest_corner_axis_aligned():
    corners = cuboid_corners([1.0, 3.0], [27.5, 32.5], [0.0, 2.0])
    assert nearest_corner_depth(corners) == 27.5


def test_nearest_corner_symmetric_tie():
    # symmetric about x=0: (-1, 40, 0) and (1, 40, 0) tie; lowest index wins
    corners = cuboid_corners([-1.0, 1.0], [40.0, 45.0], [0.0, 2.0])
    assert nearest_corner_depth(corners) == 40.0


def test_nearest_corner_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        center = rng.uniform([-10, 5, -2], [10, 80, 2])
        dims = rng.uniform(0.5, 4.0, size=3)
        corners = cuboid_corners(
            [center[0] - dims[0] / 2, center[0] + dims[0] / 2],
            [center[1] - dims[1] / 2, center[1] + dims[1] / 2],
            [center[2] - dims[2] / 2, center[2] + dims[2] / 2],
        )
        perm = rng.permutation(8)
        shuffled = corners[perm]
        expected = min(
            range(8), key=lambda j: float(np.linalg.norm(shuffled[j]))
        )
        assert nearest_corner_depth(shuffled) == shuffled[expected, 1]


def test_nearest_corner_degenerate():
    flat = cuboid_corners([0.0, 1.0], [10.0, 12.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        nearest_corner_depth(flat)


def _linear_track(y0=50.0, v=10.0, n=10, dt=0.1):
    t = np.arange(n) * dt
    return DepthTrack(t, y0 - v * t)


def test_ransac_exact_linear_matches_ols():
    track = _linear_track()
    v, mask = ransac_fit_velocity(track, 10)
    assert v == pytest.approx(10.0, abs=1e-9)
    assert mask.all()
    # explicit least-squares oracle
    slope, _ = np.polyfit(track.times, track.depths, 1)
    assert v == pytest.approx(-slope, abs=1e-9)


def test_ransac_rejects_outliers():
    track = _linear_track()
    depths = track.depths.copy()
    depths[[2, 5, 7]] += 5.0
    noisy = DepthTrack(track.times, depths)
    v, mask = ransac_fit_velocity(noisy, 10, seed=1)
    assert v == pytest.approx(10.0, abs=1e-9)
    assert not mask[[2, 5, 7]].any()
    assert mask.sum() == 7


def test_ransac_static_object():
    track = DepthTrack(np.arange(10) * 0.1, np.full(10, 60.0))
    v, _ = ransac_fit_velocity(track, 10)
    assert v == pytest.approx(0.0, abs=1e-12)
    assert ttc_label(60.0, v).tau_s == 20.0


def test_ransac_outlier_tolerance_property():
    # 30% outliers far beyond the inlier band: fitted v within 1% of truth
    rng = np.random.default_rng(7)
    for trial in range(20):
        v_true = rng.uniform(3.0, 15.0)
        t = np.arange(20) * 0.1
        depths = 80.0 - v_true * t + rng.normal(0, 0.02, size=20)
        k = 6  # 30%
        idx = rng.choice(20, size=k, replace=False)
        depths[idx] += rng.choice([-1, 1], size=k) * rng.uniform(2.0, 6.0, size=k)
        v, mask = ransac_fit_velocity(DepthTrack(t, np.maximum(depths, 0.1)), 20, seed=trial)
        assert abs(v - v_true) / v_true < 0.01
        assert not mask[idx].any()


def test_ransac_needs_two_points():
    with pytest.raises(FitFailedError):
        ransac_fit_velocity(DepthTrack(np.array([0.0]), np.array([10.0])), 5)


def _loop_ransac(track, q, seed, n_iters, inlier_threshold):
    """RANSAC scored one hypothesis at a time, as ransac_fit_velocity once did."""
    t = track.times[-q:]
    y = track.depths[-q:]
    m = len(t)
    if m == 2:
        return -float((y[1] - y[0]) / (t[1] - t[0])), np.ones(2, dtype=bool)
    rng = np.random.Generator(np.random.PCG64(seed))
    best_mask, best_count, best_sse = None, 0, np.inf
    for _ in range(n_iters):
        i, j = rng.choice(m, size=2, replace=False)
        slope = (y[j] - y[i]) / (t[j] - t[i])
        intercept = y[i] - slope * t[i]
        resid = y - (intercept + slope * t)
        mask = np.abs(resid) <= inlier_threshold
        count = int(mask.sum())
        sse = float(np.sum(resid[mask] ** 2))
        if count > best_count or (count == best_count and sse < best_sse):
            best_mask, best_count, best_sse = mask, count, sse
    if best_mask is None or best_count < 2:
        raise FitFailedError("no consensus set with >= 2 inliers")
    slope, _ = np.polyfit(t[best_mask], y[best_mask], 1)
    return -float(slope), best_mask


def _fit_or_error(fit):
    try:
        return fit()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(
    track_seed=st.integers(0, 2**32 - 1),
    length=st.integers(2, 24),
    q=st.integers(2, 20),
    seed=st.integers(0, 2**20),
    kind=st.sampled_from(["outliers", "exact_outliers", "clean", "all_inlier", "ties", "flat"]),
    n_iters=st.sampled_from([100, 100, 100, 7, 1, 0]),
    inlier_threshold=st.sampled_from([0.5, 0.5, 0.05, 3.0, 0.0]),
)
@example(track_seed=0, length=10, q=10, seed=0, kind="clean", n_iters=0, inlier_threshold=0.5)
def test_ransac_matches_the_one_at_a_time_loop(track_seed, length, q, seed, kind, n_iters,
                                               inlier_threshold):
    # hypotheses drawn once and scored together pick the same consensus set,
    # bit for bit, as scoring each draw in turn
    rng = np.random.default_rng(track_seed)
    t = np.cumsum(rng.uniform(0.05, 0.2, length))
    depths = 40.0 - rng.uniform(-5.0, 15.0) * t
    if kind == "flat":
        depths = np.full(length, 25.0)
    elif kind in ("clean", "outliers"):
        depths = depths + rng.normal(0.0, 0.2, length)
    if kind in ("outliers", "exact_outliers"):
        # on an exact line many hypotheses share one inlier set, and their
        # SSEs differ by rounding alone
        idx = rng.choice(length, size=int(rng.integers(0, length // 2 + 1)), replace=False)
        depths[idx] += rng.choice([-1.0, 1.0], idx.size) * rng.uniform(1.0, 8.0, idx.size)
    elif kind == "ties":
        depths = np.round(depths * 2.0) / 2.0
    track = DepthTrack(t, np.maximum(depths, 0.1))
    want = _fit_or_error(lambda: _loop_ransac(track, q, seed, n_iters, inlier_threshold))
    got = _fit_or_error(lambda: ransac_fit_velocity(
        track, q, seed=seed, n_iters=n_iters, inlier_threshold=inlier_threshold))
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


def test_ttc_label_hand_values():
    assert ttc_label(46.0, 10.0).tau_s == pytest.approx(4.6)
    assert ttc_label(46.0, 10.0).interval is TtcInterval.SMALL
    lab = ttc_label(18.0, 9.0)
    assert lab.tau_s == pytest.approx(2.0)
    assert lab.interval is TtcInterval.CRUCIAL
    lab = ttc_label(30.0, -5.0)
    assert lab.tau_s == pytest.approx(-6.0)
    assert lab.interval is TtcInterval.NEGATIVE


def test_arbitrate_constant_velocity():
    label = arbitrate_multi_q(_linear_track(n=12))
    assert label.q_used == 10
    assert not label.accelerating
    assert label.tau_s == pytest.approx((50.0 - 10.0 * 1.1) / 10.0)


def _decelerating_track(y0=60.0, v0=5.0, a=3.0, n=12, dt=0.1):
    # closing rate grows: y(t) = y0 - v0 t - a t^2 / 2
    t = np.arange(n) * dt
    return t, y0 - v0 * t - 0.5 * a * t * t


def test_arbitrate_accelerating_with_reference():
    t, y = _decelerating_track()
    track = DepthTrack(t, y)
    v_truth = 5.0 + 3.0 * t[-1]  # instantaneous closing rate at last frame
    label = arbitrate_multi_q(track, reference_v=v_truth)
    assert label.accelerating
    # brute force: candidate taus for q in (3, 5, 10), pick nearest to truth
    tau_ref = y[-1] / v_truth
    taus = {}
    for q in (3, 5, 10):
        v, _ = ransac_fit_velocity(track, q)
        taus[q] = y[-1] / v
    best_q = min(taus, key=lambda q: abs(taus[q] - tau_ref))
    assert label.q_used == best_q
    assert label.tau_s == pytest.approx(taus[best_q])
    # short windows see the fresher (higher) closing rate
    assert best_q == 3


def test_arbitrate_accelerating_without_reference():
    t, y = _decelerating_track()
    label = arbitrate_multi_q(DepthTrack(t, y))
    assert label.accelerating
    assert label.q_used == 3


def test_rebalance_all_crucial():
    seqs = []
    for i in range(1000):
        seqs.append(
            Sequence(
                sequence_id=f"s{i:04d}",
                fps=10.0,
                frames=[],
                label=SequenceLabel(tau_s=1.5, alpha_10hz=0.94, velocity_mps=10.0),
            )
        )
    subset, warnings = rebalance_sample(seqs, uniform_interval_target(), seed=3)
    assert len(subset) == 250
    assert len(warnings) == 3


def test_rebalance_empirical_target_is_identity():
    rng = np.random.default_rng(1)
    seqs = []
    taus = list(rng.uniform(0.5, 2.9, 40)) + list(rng.uniform(3.1, 5.9, 60))
    for i, tau in enumerate(taus):
        seqs.append(
            Sequence(
                sequence_id=f"s{i:04d}",
                fps=10.0,
                frames=[],
                label=SequenceLabel(tau_s=float(tau), alpha_10hz=0.95, velocity_mps=9.0),
            )
        )
    target = [(-20.0, 0.0, 0.0), (0.0, 3.0, 0.4), (3.0, 6.0, 0.6), (6.0, 20.0, 0.0)]
    subset, warnings = rebalance_sample(seqs, target, seed=0)
    assert [s.sequence_id for s in subset] == [s.sequence_id for s in seqs]
    assert not warnings


def test_rebalance_two_bin_proportions():
    seqs = []
    for i in range(60):
        tau = 1.0 if i < 40 else 10.0
        seqs.append(
            Sequence(
                sequence_id=f"s{i:04d}",
                fps=10.0,
                frames=[],
                label=SequenceLabel(tau_s=tau, alpha_10hz=0.95, velocity_mps=9.0),
            )
        )
    target = [(-20.0, 3.0, 0.5), (3.0, 20.0, 0.5)]
    subset, warnings = rebalance_sample(seqs, target, seed=5, total=40)
    low = sum(1 for s in subset if s.label.tau_s < 3.0)
    high = len(subset) - low
    assert abs(low - high) <= 1
    assert not warnings


def test_rebalance_is_deterministic():
    seqs = [
        Sequence(
            sequence_id=f"s{i:03d}",
            fps=10.0,
            frames=[],
            label=SequenceLabel(tau_s=float(1 + (i % 18)), alpha_10hz=0.95, velocity_mps=9.0),
        )
        for i in range(90)
    ]
    a, _ = rebalance_sample(seqs, uniform_interval_target(), seed=9, total=40)
    b, _ = rebalance_sample(seqs, uniform_interval_target(), seed=9, total=40)
    assert [s.sequence_id for s in a] == [s.sequence_id for s in b]


def test_annotate_matches_oracle_on_constant_velocity():
    from ttckit.synth import CameraModel, PlanarTarget, noise_texture, sequence_for_ttc

    cam = CameraModel(900.0)
    target = PlanarTarget(2.0, 2.0, noise_texture(4))
    seq = sequence_for_ttc(4.6, cam, target, closing_speed=10.0, sequence_id="cv0")
    relabeled = annotate_sequence(seq)
    assert relabeled.tau_s == pytest.approx(seq.label.tau_s, abs=1e-6)
    assert relabeled.velocity_mps == pytest.approx(10.0, abs=1e-9)
    assert relabeled.q_used == 10
    assert relabeled.alpha_10hz == pytest.approx(seq.label.alpha_10hz, rel=1e-9)
    assert "annotated" in relabeled.flags
