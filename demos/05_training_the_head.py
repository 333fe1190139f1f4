"""Desk-scale training of the feature-space head.

The feature estimator pools cosine similarity between grid-sampled
feature patches into one score per scale bin, then a small linear head
turns scores into per-bin logits.  Training fits that head with binary
cross-entropy against Gaussian soft labels over the bins.  This demo
runs a short training job and shows the loss curve, the validation
error, and the learned weights' structure.
"""

import numpy as np

from ttckit.estimate import FeatureSearchConfig
from ttckit.learn import TrainConfig, soft_label, train_loop
from ttckit.suites import uniform_alpha_suite
from ttckit.synth import NoiseModel

cfg = FeatureSearchConfig(target_w=25, target_h=25)

print("=== soft labels: Gaussian bumps over the scale bins ===")
label = soft_label(0.9, cfg)
peak = int(np.argmax(label))
print(f"alpha_gt = 0.9 peaks at bin {peak} (alpha {cfg.bins()[peak]:.4f}):")
print("  " + " ".join(f"{v:.2f}" for v in label))

print("\n=== training on 80 sequences (shortened demo run) ===")
noise = NoiseModel(box_center_jitter_px=1, box_scale_jitter=0.02,
                   gain_range=(0.9, 1.1), bias_range=(-0.04, 0.04), seed=5)
train_seqs = uniform_alpha_suite(80, seed=100, noise=noise, prefix="tr")
val_seqs = uniform_alpha_suite(24, seed=101, noise=noise, prefix="va")
result = train_loop(train_seqs, val_seqs, cfg, TrainConfig(epochs=12, batch_size=16, seed=0))

def mid_text(mid, width=0):
    # no validation sequences means no val MiD, which 0.0 would misreport
    return "not measured" if mid is None else f"{mid:{width}.1f}"


print(f"untrained (identity head) validation MiD: {mid_text(result.val_mid_untrained)}")
print("epoch  train_loss  val_MiD")
for epoch, loss, vm in result.history:
    bar = "#" * int(loss * 40)
    print(f"{epoch:5d}  {loss:9.4f}  {mid_text(vm, 7)}  {bar}")

W = result.params["fc.weight"]
print("\nlearned head diagonal (per-bin gain):")
print("  " + " ".join(f"{v:.1f}" for v in np.diag(W)))
print("off-diagonal mean (common-mode subtraction):", f"{(W - np.diag(np.diag(W))).mean():.2f}")
print("\nthe head amplifies each bin's own score against the shared baseline;")
print("photometric gain/bias augmentation is applied in feature space, which")
print("is exact for the hand-crafted extractor (features are affine in light).")
