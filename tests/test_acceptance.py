"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s or -v to see them).

The suites here are deterministic; every tolerance is stated inline.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from feature_reference import finite_diff_gradcheck

from ttckit.annotate import DepthTrack, annotate_sequence, ransac_fit_velocity
from ttckit.boxes import BoundingBox
from ttckit.core import convert_scale_ratio_fps, scale_ratio_from_ttc, ttc_from_scale_ratio
from ttckit.estimate import (
    IDENTITY_DRAW,
    FeatureSearchConfig,
    ScaleSearchConfig,
    detection_ratio_estimate,
    pixel_mse_estimate,
    pooled_cosine_scores,
)
from ttckit.features import hand_crafted_features
from ttckit.learn import (
    TrainConfig,
    soft_label,
    train_loop,
)
from ttckit.suites import DEFAULT_SUITE_CAMERA, constant_velocity_suite, uniform_alpha_suite
from ttckit.synth import (
    CameraModel,
    NoiseModel,
    PlanarTarget,
    noise_texture,
    render_frame,
    sequence_for_ttc,
)


def _report(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion:2d}] PASS  {message}")


# -- criterion 1: oracle fidelity ------------------------------------------


def test_criterion_01_oracle_fidelity():
    start = time.time()
    camera = CameraModel(1000.0)
    # red channel has constant albedo so, over a black background, column
    # maxima divided by it read back each column's exact coverage; summing
    # coverages measures the silhouette width sub-pixel from raw pixels
    tex = noise_texture(3, low=0.3, high=0.95)
    tex[:, :, 0] = 0.8
    target = PlanarTarget(2.0, 2.0, tex)
    worst = 0.0
    for y in np.linspace(10.0, 400.0, 24):
        frame = render_frame(camera, target, float(y), background=0.0)
        red = frame.image[:, :, 0].astype(np.float64)
        width = float((red.max(axis=0) / 0.8).sum())
        height = float((red.max(axis=1) / 0.8).sum())
        predicted = 1000.0 * 2.0 / y
        worst = max(worst, abs(width - predicted), abs(height - predicted))
        assert abs(width - predicted) <= 1.0
        assert abs(height - predicted) <= 1.0

    # depth-ratio scale ratios compose multiplicatively
    from ttckit.scenarios import Phase, ScenarioScript, simulate_script

    script = ScenarioScript(
        script_id=1, v_ego0=72.0, v_target0=54.0, y0=60.0,
        phases=(Phase(target_accel=-2.0, duration=2.0), Phase(ego_accel=-1.0, duration=4.0)),
    )
    traj = simulate_script(script, horizon=8.0)
    rng = np.random.default_rng(0)
    worst_comp = 0.0
    for _ in range(200):
        t0, t1, t2 = np.sort(rng.uniform(0.1, 7.5, size=3))
        a01 = traj.depth(t1) / traj.depth(t0)
        a12 = traj.depth(t2) / traj.depth(t1)
        a02 = traj.depth(t2) / traj.depth(t0)
        err = abs(a02 - a01 * a12) / a02
        worst_comp = max(worst_comp, err)
        assert err <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(1, f"box size within {worst:.2f} px of f*S/y over y in [10,400]; "
               f"ratio composition err {worst_comp:.1e}; {elapsed:.1f}s")


# -- criterion 2: algebra round trips ---------------------------------------


def test_criterion_02_algebra_round_trips():
    start = time.time()
    worst = 0.0
    for alpha in np.linspace(0.65, 1.5, 400):
        if abs(alpha - 1.0) < 1e-6:
            continue
        tau = ttc_from_scale_ratio(float(alpha), 0.1)
        if abs(tau) >= 20.0:
            continue
        back = scale_ratio_from_ttc(tau, 0.1)
        worst = max(worst, abs(back - alpha) / alpha)
        assert abs(back - alpha) / alpha <= 1e-12
    worst_fps = 0.0
    for alpha in np.linspace(0.8, 1.2, 100):
        down = convert_scale_ratio_fps(float(alpha), 10.0, 2.0)
        back = convert_scale_ratio_fps(down, 2.0, 10.0)
        worst_fps = max(worst_fps, abs(back - alpha) / alpha)
        assert abs(back - alpha) / alpha <= 1e-12
    assert convert_scale_ratio_fps(0.95, 10.0, 2.0) == pytest.approx(19.0 / 24.0, abs=1e-15)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(2, f"inversion err {worst:.1e}, fps round-trip err {worst_fps:.1e}, "
               f"alpha(10->2Hz, 0.95) = 19/24; {elapsed:.2f}s")


# -- shared suites -----------------------------------------------------------


@pytest.fixture(scope="module")
def noiseless_suite():
    return constant_velocity_suite(100, tau_range=(1.5, 15.0), seed=42)


def _suite_mids(suite, cfg):
    mids, alpha_errs = [], []
    for seq in suite:
        est = pixel_mse_estimate(seq, cfg)
        truth = seq.label.alpha_by_gap[cfg.frame_gap]
        alpha_errs.append(abs(est.alpha_hat - truth))
        mids.append(
            abs(np.log(seq.label.alpha_10hz) - np.log(est.alpha_hat_10hz)) * 1e4
        )
    return np.array(mids), np.array(alpha_errs)


# -- criterion 3: pixel MSE accuracy ----------------------------------------


def test_criterion_03_pixel_mse_accuracy(noiseless_suite):
    start = time.time()
    cfg = ScaleSearchConfig()  # n=125, k=3, c=3
    mids, alpha_errs = _suite_mids(noiseless_suite, cfg)
    frac_within = float(np.mean(alpha_errs <= cfg.bin_width))
    median_mid = float(np.median(mids))
    elapsed = time.time() - start
    assert frac_within >= 0.95
    assert median_mid <= 100.0
    assert elapsed < 120.0
    _report(3, f"{100*frac_within:.0f}% of 100 noiseless sequences within one bin "
               f"({cfg.bin_width:.5f}); median MiD {median_mid:.1f}; {elapsed:.0f}s")


# -- criterion 4: center-shift ablation direction ----------------------------


def test_criterion_04_center_shift_direction():
    noise = NoiseModel(box_center_jitter_px=2, seed=9)
    suite = constant_velocity_suite(100, tau_range=(1.5, 15.0), seed=43, noise=noise)
    with_shift, _ = _suite_mids(suite, ScaleSearchConfig(shift_c=3))
    without, _ = _suite_mids(suite, ScaleSearchConfig(shift_c=0))
    assert with_shift.mean() < without.mean()
    _report(4, f"mean MiD with +/-2 px box jitter: c=3 {with_shift.mean():.1f} "
               f"< c=0 {without.mean():.1f}")


# -- criterion 5: frame-gap ablation direction -------------------------------


def test_criterion_05_frame_gap_direction(noiseless_suite):
    cfg = ScaleSearchConfig(shift_c=1)
    means = {}
    for gap in range(1, 6):
        mids, _ = _suite_mids(noiseless_suite, cfg.with_gap(gap))
        means[gap] = float(mids.mean())
    steps = [means[g] - means[g + 1] for g in range(1, 5)]
    decreasing = sum(1 for s in steps if s > 0)
    assert decreasing >= 3  # monotone direction, one tie/step allowed
    assert means[1] > means[5]
    _report(5, "mean MiD by gap: " + ", ".join(f"{g}: {means[g]:.1f}" for g in range(1, 6)))


# -- criterion 6: baseline ordering ------------------------------------------


def test_criterion_06_baseline_ordering(noiseless_suite):
    # exact boxes: the box-ratio baseline is near-perfect
    cfg = ScaleSearchConfig()
    det_exact = []
    for seq in noiseless_suite:
        est = detection_ratio_estimate(seq, cfg)
        det_exact.append(
            abs(np.log(seq.label.alpha_10hz) - np.log(est.alpha_hat_10hz)) * 1e4
        )
    det_exact = float(np.mean(det_exact))
    assert det_exact < 10.0

    # 5% box noise: pixel search beats the box-ratio baseline
    noise = NoiseModel(box_scale_jitter=0.05, seed=17)
    noisy = constant_velocity_suite(60, tau_range=(1.5, 15.0), seed=44, noise=noise)
    det_noisy = []
    for seq in noisy:
        est = detection_ratio_estimate(seq, cfg)
        det_noisy.append(
            abs(np.log(seq.label.alpha_10hz) - np.log(est.alpha_hat_10hz)) * 1e4
        )
    det_noisy = float(np.mean(det_noisy))
    pix_mids, _ = _suite_mids(noisy, ScaleSearchConfig(shift_c=1))
    assert det_noisy > pix_mids.mean()
    _report(6, f"exact-box detection MiD {det_exact:.2f} < 10; with 5% box noise "
               f"detection {det_noisy:.1f} > pixel_mse {pix_mids.mean():.1f}")


# -- criterion 7: annotation pipeline ----------------------------------------


def test_criterion_07_annotation_pipeline():
    # noiseless linear track: RANSAC == least squares to 1e-9
    t = np.arange(12) * 0.1
    track = DepthTrack(t, 50.0 - 7.5 * t)
    v, _ = ransac_fit_velocity(track, 12)
    slope, _ = np.polyfit(t, 50.0 - 7.5 * t, 1)
    assert abs(v - (-slope)) <= 1e-9

    # 30% outliers far beyond the inlier band: velocity within 1%
    rng = np.random.default_rng(5)
    worst_rel = 0.0
    for trial in range(20):
        v_true = rng.uniform(3.0, 15.0)
        tt = np.arange(20) * 0.1
        depths = 80.0 - v_true * tt + rng.normal(0, 0.02, size=20)
        idx = rng.choice(20, size=6, replace=False)
        depths[idx] += rng.choice([-1, 1], size=6) * rng.uniform(2.0, 6.0, size=6)
        v_fit, _ = ransac_fit_velocity(DepthTrack(tt, depths), 20, seed=trial)
        worst_rel = max(worst_rel, abs(v_fit - v_true) / v_true)
        assert abs(v_fit - v_true) / v_true < 0.01

    # re-annotation agrees with the generator's exact labels
    camera = DEFAULT_SUITE_CAMERA
    worst_tau = 0.0
    for i, tau in enumerate((2.2, 4.6, 9.0, -6.0)):
        seq = sequence_for_ttc(
            tau, camera, PlanarTarget(2.0, 2.0, noise_texture(60 + i)),
            closing_speed=35.0 / abs(tau), sequence_id=f"an{i}",
        )
        relabeled = annotate_sequence(seq)
        worst_tau = max(worst_tau, abs(relabeled.tau_s - seq.label.tau_s))
        assert abs(relabeled.tau_s - seq.label.tau_s) <= 1e-6
    _report(7, f"RANSAC==OLS to 1e-9; outlier velocity err <= {100*worst_rel:.2f}%; "
               f"re-annotated tau err <= {worst_tau:.1e} s")


# -- criterion 8: gradient checks --------------------------------------------


def _gradcheck_sample(seed: int, size: int) -> SimpleNamespace:
    """A random frame pair, its reference center, expanded target box and
    ground-truth ratio."""
    rng = np.random.default_rng(seed)
    return SimpleNamespace(
        image0=rng.uniform(0.1, 0.9, size=(size, size, 3)),
        image1=rng.uniform(0.1, 0.9, size=(size, size, 3)),
        center0=(size / 2.0 + rng.uniform(-2, 2), size / 2.0 + rng.uniform(-2, 2)),
        box1=BoundingBox(size / 2.0, size / 2.0, size * 0.45, size * 0.4),
        alpha_gt=float(rng.uniform(0.7, 1.3)),
    )


def test_criterion_08_gradient_checks():
    # the head step's gradient on each sample's fixed pooled cosine scores,
    # which do not depend on the head
    fc_cfg = FeatureSearchConfig(
        n_bins=6, top_k=4, shift_c=0, target_w=8, target_h=8
    )
    worst_fc = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        sample = _gradcheck_sample(seed, 24)
        fmap0 = hand_crafted_features(sample.image0).astype(np.float64)
        fmap1 = hand_crafted_features(sample.image1).astype(np.float64)
        (scores,) = pooled_cosine_scores(fmap0, fmap1, sample.center0, sample.box1, fc_cfg,
                                         [IDENTITY_DRAW], None)
        err = finite_diff_gradcheck(
            scores,
            np.eye(6) + rng.normal(0, 0.1, size=(6, 6)),
            rng.normal(0, 0.1, size=6),
            soft_label(sample.alpha_gt, fc_cfg),
            epsilon=1e-3,
        )
        worst_fc = max(worst_fc, err)
        assert err <= 1e-4
    _report(8, f"20-seed gradchecks of the head step: <= {worst_fc:.3e} (tol 1e-4)")


# -- criterion 9: training signal --------------------------------------------


def test_criterion_09_training_signal():
    start = time.time()
    cfg = FeatureSearchConfig(target_w=25, target_h=25)

    def suite_noise(seed):
        return NoiseModel(
            box_center_jitter_px=1, box_scale_jitter=0.02,
            gain_range=(0.9, 1.1), bias_range=(-0.04, 0.04), seed=seed,
        )

    train_seqs = uniform_alpha_suite(200, seed=100, noise=suite_noise(100), prefix="tr")
    val_seqs = uniform_alpha_suite(40, seed=101, noise=suite_noise(101), prefix="va")
    result = train_loop(train_seqs, val_seqs, cfg, TrainConfig(epochs=36, batch_size=16, seed=0))
    trained_mid = result.history[-1][2]
    losses = [h[1] for h in result.history]
    elapsed = time.time() - start
    assert len(result.history) == 36
    assert losses[-1] < losses[0]  # training loss strictly decreases end to end
    assert trained_mid < result.val_mid_untrained
    assert elapsed < 900.0
    _report(9, f"36-epoch run on 200 sequences: val MiD untrained "
               f"{result.val_mid_untrained:.1f} -> trained {trained_mid:.1f}; "
               f"loss {losses[0]:.3f} -> {losses[-1]:.3f}; {elapsed:.0f}s")


# -- criterion 10: pipeline determinism --------------------------------------


def test_criterion_10_pipeline_determinism(tmp_path):
    import json

    from ttckit.cli import main

    cfg = {
        "camera": {"f": 800.0, "width": 320, "height": 192},
        "synth": {"templates": [1, 4], "variants_per_template": 2,
                  "sequences_per_variant": 1},
        "search_pixel": {"n_bins": 40, "shift_c": 1},
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def pipeline(tag: str) -> bytes:
        out = tmp_path / tag
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["annotate", "--dataset", str(out)]) == 0
        report = out / "report.json"
        assert main([
            "eval", "--dataset", str(out), "--estimator", "pixel_mse",
            "--config", str(cfg_path), "--out", str(report),
        ]) == 0
        return report.read_bytes()

    first = pipeline("run_a")
    second = pipeline("run_b")
    assert first == second
    _report(10, f"synth -> annotate -> eval rerun byte-identical "
                f"({len(first)} report bytes)")
