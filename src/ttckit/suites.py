"""Ready-made synthetic sequence suites for benchmarks and training.

Object image size is pinned by choosing the closing speed per sequence
(y = tau * v), so scale resolution stays comparable across the whole TTC
range instead of collapsing for far, slow cases.
"""

from __future__ import annotations

import numpy as np

from .manifest import Sequence
from .synth import CameraModel, NoiseModel, PlanarTarget, noise_texture, sequence_for_ttc

DEFAULT_SUITE_CAMERA = CameraModel(800.0, width=320, height=192)

_V_MIN, _V_MAX = 1.0, 26.0


def textured_background(camera: CameraModel, seed: int,
                        low: float = 0.05, high: float = 0.35) -> np.ndarray:
    """Static low-intensity clutter filling the frame (background at infinity)."""
    tile = noise_texture(seed, size=64, low=low, high=high)
    reps = (camera.height // 64 + 1, camera.width // 64 + 1, 1)
    return np.tile(tile, reps)[: camera.height, : camera.width]


def _one_sequence(
    tau: float,
    camera: CameraModel,
    texture_seed: int,
    sequence_id: str,
    noise: NoiseModel | None,
    y_last: float,
    texture_range: tuple[float, float],
    background: float | np.ndarray = 0.08,
) -> Sequence:
    v = min(max(y_last / abs(tau), _V_MIN), _V_MAX)
    target = PlanarTarget(
        2.0, 2.0, noise_texture(texture_seed, low=texture_range[0], high=texture_range[1])
    )
    return sequence_for_ttc(
        tau,
        camera,
        target,
        closing_speed=v,
        noise=noise,
        sequence_id=sequence_id,
        background=background,
    )


def constant_velocity_suite(
    n: int,
    tau_range: tuple[float, float] = (1.5, 15.0),
    camera: CameraModel = DEFAULT_SUITE_CAMERA,
    seed: int = 0,
    noise: NoiseModel | None = None,
    y_last: float = 35.0,
    texture_range: tuple[float, float] = (0.25, 0.95),
    prefix: str = "cv",
) -> list[Sequence]:
    """n constant-velocity sequences with taus uniform over tau_range."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sequences = []
    for i in range(n):
        tau = float(rng.uniform(*tau_range))
        sequences.append(
            _one_sequence(
                tau, camera, int(rng.integers(1 << 31)), f"{prefix}{i:04d}",
                noise, y_last, texture_range,
            )
        )
    return sequences


def mixed_interval_suite(
    n: int,
    camera: CameraModel = DEFAULT_SUITE_CAMERA,
    seed: int = 0,
    noise: NoiseModel | None = None,
    y_last: float = 35.0,
    prefix: str = "mix",
) -> list[Sequence]:
    """Sequences spread over all four TTC intervals (including receding)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ranges = [(0.9, 2.9), (3.1, 5.9), (6.1, 18.0), (-18.0, -0.9)]
    weights = [0.3, 0.3, 0.2, 0.2]
    sequences = []
    for i in range(n):
        lo, hi = ranges[int(rng.choice(4, p=weights))]
        tau = float(rng.uniform(lo, hi))
        sequences.append(
            _one_sequence(
                tau, camera, int(rng.integers(1 << 31)), f"{prefix}{i:04d}",
                noise, y_last, (0.25, 0.95),
            )
        )
    return sequences


def uniform_alpha_suite(
    n: int,
    gap: int = 5,
    fps: float = 10.0,
    alpha_range: tuple[float, float] = (0.68, 1.42),
    camera: CameraModel = DEFAULT_SUITE_CAMERA,
    seed: int = 0,
    noise: NoiseModel | None = None,
    y_last: float = 35.0,
    prefix: str = "ua",
) -> list[Sequence]:
    """Sequences whose scale ratio at the evaluation gap is uniform.

    Flat coverage of the scale bins keeps a trained per-bin head from
    collapsing onto the label prior instead of reading the similarity
    profile.  Ratios are drawn away from 1 (|tau| stays finite); the
    corresponding target-frame TTC is tau = dt * alpha / (1 - alpha).

    Demo 05 and acceptance criterion 9 train the head on these; no
    command does.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dt = gap / fps
    sequences = []
    while len(sequences) < n:
        alpha = float(rng.uniform(*alpha_range))
        if abs(alpha - 1.0) < 0.02:
            continue  # |tau| beyond the truncation range; skip the sliver
        tau = dt * alpha / (1.0 - alpha)
        background = textured_background(camera, int(rng.integers(1 << 31)))
        sequences.append(
            _one_sequence(
                tau, camera, int(rng.integers(1 << 31)),
                f"{prefix}{len(sequences):04d}", noise, y_last, (0.25, 0.95),
                background=background,
            )
        )
    return sequences
