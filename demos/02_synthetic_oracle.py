"""The synthetic ground-truth oracle.

A pinhole camera images a textured planar quad under scripted
kinematics.  Because image size is exactly f*S/y, every sequence comes
with analytic labels: TTC at the target frame, per-gap scale ratios,
and the full depth history.  This script renders a braking-lead
scenario, prints its labels, and saves a filmstrip PNG.
"""

import numpy as np

from ttckit.png import write_png
from ttckit.scenarios import Phase, ScenarioScript, run_script, simulate_script
from ttckit.synth import CameraModel, PlanarTarget, generate_sequence, noise_texture

camera = CameraModel(800.0, width=320, height=192)
target = PlanarTarget(2.0, 2.0, noise_texture(21, low=0.3, high=0.95))

script = ScenarioScript(
    script_id=1,
    v_ego0=60.0,
    v_target0=60.0,
    y0=50.0,
    phases=(
        Phase(target_accel=-3.0, duration=3.0),          # lead brakes
        Phase(ego_accel=-4.0, until_speed_matched=True),  # ego reacts
    ),
    description="lead brakes at -3 m/s^2 for 3 s, ego matches speed",
)

print("=== scripted kinematics, sampled at 10 Hz ===")
for t, y, v, lat in run_script(script, fps=10.0, horizon=6.0)[::10]:
    print(f"t={t:4.1f}s  depth={y:6.2f} m  closing={v:5.2f} m/s")

traj = simulate_script(script, horizon=6.0)
print("\nclosing speed after the 3 s braking phase:", traj.closing_speed(3.0), "m/s")

print("\n=== a labeled six-frame sequence starting at t=2.0 s ===")
seq = generate_sequence(script, camera, target, start_time=2.0, sequence_id="demo")
label = seq.label
print(f"target-frame TTC: {label.tau_s:.4f} s  (closing {label.velocity_mps:.2f} m/s at {label.depth_m:.2f} m)")
print("exact scale ratio per frame gap:")
for gap, alpha in sorted(label.alpha_by_gap.items()):
    print(f"  gap {gap}: alpha = {alpha:.6f}")
print(f"10 Hz-equivalent ratio: {label.alpha_10hz:.6f}")

print("\nper-frame exact boxes (cx, cy, w, h):")
for frame in seq.frames:
    b = frame.exact_box
    print(f"  t={frame.timestamp_s:.1f}s  [{b.cx:6.1f}, {b.cy:6.1f}, {b.w:5.1f}, {b.h:5.1f}]  depth {frame.depth_m:6.2f} m")

strip = np.concatenate([f.image for f in seq.frames], axis=1)
write_png("demo_sequence_strip.png", np.clip(np.rint(strip * 255), 0, 255).astype(np.uint8))
print("\nwrote demo_sequence_strip.png (six frames side by side; the quad grows as TTC shrinks)")

# scale ratios from depth compose multiplicatively -- the oracle identity
a13 = traj.depth(1.3) / traj.depth(1.0)
a16 = traj.depth(1.6) / traj.depth(1.3)
a_full = traj.depth(1.6) / traj.depth(1.0)
print(f"\ncomposition check: {a13:.6f} * {a16:.6f} = {a13 * a16:.6f} vs direct {a_full:.6f}")
