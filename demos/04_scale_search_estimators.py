"""The three estimators on one sequence, inside out.

All share the same move: place candidate boxes at the reference-frame
center with the target box's dims scaled by each bin, score how well the
rescaled reference content matches the target crop, and fuse the best
bins.  This script shows one pixel-MSE profile in detail, then compares
the estimators with exact and jittered boxes.
"""

import numpy as np

from ttckit.estimate import (
    FeatureSearchConfig,
    ScaleSearchConfig,
    detection_ratio_estimate,
    feature_scale_estimate,
    pixel_mse_estimate,
)
from ttckit.suites import DEFAULT_SUITE_CAMERA, constant_velocity_suite
from ttckit.synth import NoiseModel, PlanarTarget, noise_texture, sequence_for_ttc

camera = DEFAULT_SUITE_CAMERA
target = PlanarTarget(2.0, 2.0, noise_texture(11, low=0.3, high=0.95))
seq = sequence_for_ttc(4.5, camera, target, closing_speed=10.0, sequence_id="demo")
truth = seq.label.alpha_by_gap[5]
print(f"ground truth: alpha(gap 5) = {truth:.5f}, tau = {seq.label.tau_s:.2f} s")

cfg = ScaleSearchConfig(shift_c=1)  # pixel defaults otherwise: 125 bins, top-3
est = pixel_mse_estimate(seq, cfg)
print(f"\npixel MSE estimate: alpha {est.alpha_hat:.5f}, tau {est.tau_hat:.3f} s")
# the search finishes exactly only the bins a cheap lower bound cannot
# rule out of the top-3; the others keep that bound, marked with ≥
exact = est.profile.exact
n_exact = cfg.n_bins if exact is None else int(exact.sum())
print(f"{n_exact} of {cfg.n_bins} bins scored exactly, the rest bounded from below")
print("similarity valley around the truth (MSE per bin, lower = better):")
bins = cfg.bins()
best = int(np.argmin(est.profile.scores))
for i in range(max(0, best - 3), min(cfg.n_bins, best + 4)):
    marker = " <- best" if i == best else ""
    sign = "≥" if exact is not None and not exact[i] else " "
    print(f"  alpha {bins[i]:.4f}  mse {sign}{est.profile.scores[i]:.6f}{marker}")

print("\n=== estimator comparison ===")
noise = NoiseModel(box_center_jitter_px=2, box_scale_jitter=0.04, seed=5)
suites = {
    "exact boxes": constant_velocity_suite(25, seed=1),
    "jittered boxes": constant_velocity_suite(25, seed=2, noise=noise),
}
feat_cfg = FeatureSearchConfig()
for name, suite in suites.items():
    rows = {}
    for est_name, runner, c in (
        ("detection", detection_ratio_estimate, cfg),
        ("pixel_mse", pixel_mse_estimate, ScaleSearchConfig(shift_c=3)),
        ("feature_scale", feature_scale_estimate, feat_cfg),
    ):
        mids = []
        for s in suite:
            e = runner(s, c)
            mids.append(abs(np.log(s.label.alpha_10hz) - np.log(e.alpha_hat_10hz)) * 1e4)
        rows[est_name] = float(np.mean(mids))
    print(f"\n{name}: mean MiD over {len(suite)} sequences")
    for est_name, mid in rows.items():
        print(f"  {est_name:14s} {mid:8.2f}")
print("\nbox geometry alone collapses under jitter; content matching holds up")
print("when the center-shift radius covers the misalignment (pixel config uses")
print("c=3; the feature config's default c=1 only absorbs 1 px of the 2 px")
print("jitter, so widen shift_c or train the head when detections are loose).")
