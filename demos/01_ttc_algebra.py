"""Time-to-contact algebra in five minutes.

A monocular camera cannot tell depth or speed on its own, but the RATIO
of an object's image size between two frames pins down the time to
contact.  This script walks the conversions: depth/velocity -> TTC,
scale ratio <-> TTC, frame-rate re-expression, truncation, intervals.
"""

import numpy as np

from ttckit.core import (
    TtcInterval,
    convert_scale_ratio_fps,
    scale_ratio_from_ttc,
    truncate_ttc,
    ttc_from_depth_velocity,
    ttc_from_scale_ratio,
    ttc_interval,
)

print("=== from geometry ===")
print("46 m away, closing at 10 m/s   ->", ttc_from_depth_velocity(46.0, 10.0), "s")
print("50 m away, not moving          ->", ttc_from_depth_velocity(50.0, 0.0), "s (truncated: never contacts)")
print("30 m away, receding at 6 m/s   ->", ttc_from_depth_velocity(30.0, -6.0), "s")

print("\n=== from image scale ratios (alpha = size_ref / size_target) ===")
for alpha in (0.95, 0.999, 1.0, 1.05):
    tau = ttc_from_scale_ratio(alpha, dt=0.1)
    print(f"alpha {alpha:6.3f} over 0.1 s -> tau {tau:7.2f} s -> interval {ttc_interval(tau).value}")

# a ratio spans two frames, so its TTC can be read at either one of them
print("\nan object at tau = 2.0 s shows, per 0.1 s step:")
print(f"  alpha {1.0 - 0.1 / 2.0:.4f} if tau is read at the reference frame (1 - 0.1/2.0)")
print(f"  alpha {scale_ratio_from_ttc(2.0, 0.1):.4f} if tau is read at the target frame (2.0/2.1)")
print("labels, estimates and ttckit.core read TTC at the target frame, the later one")

print("\n=== the same motion at different frame rates ===")
alpha_10hz = 0.95
alpha_2hz = convert_scale_ratio_fps(alpha_10hz, 10.0, 2.0)
print(f"alpha {alpha_10hz} at 10 Hz is alpha {alpha_2hz:.6f} at 2 Hz (exactly 19/24)")
print("round trip:", convert_scale_ratio_fps(alpha_2hz, 2.0, 10.0))

print("\n=== truncation keeps every prediction scoreable ===")
for tau in (25.0, -33.0, 4.2):
    print(f"tau {tau:6.1f} -> {truncate_ttc(tau):6.1f}")

print("\n=== interval breakdown used by the benchmark ===")
for iv in TtcInterval:
    lo, hi = iv.bounds
    print(f"{iv.value:>8s}: [{lo:6.1f}, {hi:6.1f})")

print("\na gap-5 ratio and its 10 Hz re-expression describe the same approach:")
for a in np.linspace(0.7, 0.97, 4):
    a10 = convert_scale_ratio_fps(float(a), 2.0, 10.0)
    print(f"  alpha(2 Hz) {a:.3f} <-> alpha(10 Hz) {a10:.5f}")
