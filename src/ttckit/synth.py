"""Synthetic ground-truth generation.

A pinhole camera images a frontal-parallel planar textured quad whose
motion follows a scripted trajectory.  Because size on the image plane
is exactly focal * physical_size / depth, depth ratios give exact scale
ratios and instantaneous closing speed gives exact TTC, so generated
sequences carry analytic labels against which estimators are scored.

Ground-truth scale ratios are defined from depth ratios rather than
measured from rendered pixels; agreement between the two is itself a
test of the renderer.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .boxes import BoundingBox, box_drop_reason
from .core import (
    DEFAULT_VELOCITY_EPS,
    check_int,
    check_range,
    is_finite_real,
    ttc_from_depth_velocity,
)
from .errors import DomainError, SequenceInvalidError
from .features import box_mean
from .manifest import FrameSample, Sequence, SequenceLabel
from .sampling import lattice_row_blocks
from .scenarios import ScenarioScript, Trajectory, constant_velocity_script, simulate_script

# texture samples in one row block of a frame's supersampled lattice
# (render_frame); each sample holds three float64 channel values
_BLOCK_SAMPLES = 20_000

# depth samples, one frame interval apart and ending at the window's last
# frame, that a sequence keeps as the history ``annotate`` fits velocity on
_HISTORY_LEN = 12


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics; pixels, principal point at (cx, cy)."""

    f: float
    cx: float
    cy: float
    width: int = 1024
    height: int = 576

    def __post_init__(self) -> None:
        if self.f <= 0:
            raise DomainError(f"focal length must be positive, got {self.f}")
        if self.width <= 0 or self.height <= 0:
            raise DomainError("image dims must be positive")

    @classmethod
    def centered(cls, f: float, width: int = 1024, height: int = 576) -> "CameraModel":
        return cls(f=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def project_size(camera: CameraModel, size_m: float, depth_m: float) -> float:
    """Image-plane size (pixels) of a frontal-parallel object: f * S / y."""
    if depth_m <= 0:
        raise DomainError(f"depth must be positive, got {depth_m}")
    if size_m <= 0:
        raise DomainError(f"object size must be positive, got {size_m}")
    return camera.f * size_m / depth_m


@dataclass(eq=False)
class PlanarTarget:
    """A textured planar quad facing the camera."""

    physical_width: float
    physical_height: float
    texture: np.ndarray  # (th, tw, 3), values in [0, 1]
    lateral_offset_x: float = 0.0
    vertical_offset_z: float = 0.0

    def __post_init__(self) -> None:
        if self.physical_width <= 0 or self.physical_height <= 0:
            raise DomainError("physical dims must be positive")
        tex = np.asarray(self.texture, dtype=np.float64)
        if tex.ndim != 3 or tex.shape[2] != 3:
            raise DomainError(f"texture must be (H, W, 3), got {tex.shape}")
        if float(tex.max() - tex.min()) <= 0:
            raise DomainError("texture must be non-constant, else scale is unobservable")
        self.texture = tex


@dataclass(frozen=True)
class NoiseModel:
    """Observation noise: box jitter plus illumination gain/bias."""

    box_center_jitter_px: int = 0
    box_scale_jitter: float = 0.0
    gain_range: tuple[float, float] = (1.0, 1.0)
    bias_range: tuple[float, float] = (0.0, 0.0)
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("noise box_center_jitter_px", self.box_center_jitter_px)
        # a scale factor 1 + U(-j, j) stays positive for j < 1
        if not (is_finite_real(self.box_scale_jitter) and 0 <= self.box_scale_jitter < 1):
            raise DomainError(f"noise box_scale_jitter must be finite and in [0, 1), "
                              f"got {self.box_scale_jitter!r}")
        check_range("noise gain_range", self.gain_range)
        if self.gain_range[0] <= 0:
            raise DomainError(f"noise gain_range must be positive, got {self.gain_range!r}")
        check_range("noise bias_range", self.bias_range)
        check_int("noise seed", self.seed)


def _frame_noise(noise: NoiseModel | None, rng: np.random.Generator | None):
    """Draw one frame's noise realization in a fixed order."""
    if noise is None or rng is None:
        return 0, 0, 1.0, 1.0, 0.0
    j = noise.box_center_jitter_px
    dx = int(rng.integers(-j, j + 1)) if j > 0 else 0
    dy = int(rng.integers(-j, j + 1)) if j > 0 else 0
    s = 1.0 + (rng.uniform(-noise.box_scale_jitter, noise.box_scale_jitter)
               if noise.box_scale_jitter > 0 else 0.0)
    gain = rng.uniform(*noise.gain_range) if noise.gain_range != (1.0, 1.0) else 1.0
    bias = rng.uniform(*noise.bias_range) if noise.bias_range != (0.0, 0.0) else 0.0
    return dx, dy, s, gain, bias


def projected_box(
    camera: CameraModel, target: PlanarTarget, depth_m: float, lateral_x: float = 0.0
) -> BoundingBox:
    """The target's exact image box at a depth and lateral position."""
    w = project_size(camera, target.physical_width, depth_m)
    h = project_size(camera, target.physical_height, depth_m)
    u = camera.cx + camera.f * (lateral_x + target.lateral_offset_x) / depth_m
    v = camera.cy - camera.f * target.vertical_offset_z / depth_m
    return BoundingBox(u, v, w, h)


def supersample_mean(dense: np.ndarray, supersample: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Average the ``supersample x supersample`` samples of each pixel of a
    plane-major (H*s, s*W, 3) lattice.

    Sample row ``r * s + i`` and column ``j * W + c`` of ``dense`` hold
    sample (i, j) of pixel (r, c): rows are pixel-major, columns
    plane-major, so sample plane (i, j), ``dense.reshape(H, s, s, W,
    3)[:, i, j]``, is one contiguous run per output row.  The result equals
    numpy's ``mean(axis=(1, 3))`` of the same samples in the pixel-major
    (H, s, W, s, 3) layout bit for bit: it makes the additions that mean
    makes, in its order (plane (0, 0), then the others by row offset and
    then column offset, divided once), but each addition runs over a whole
    plane instead of an inner loop ``supersample`` elements long.  (With a
    single channel numpy orders its additions differently, so the equality
    holds for RGB only.)  The (H, W, 3) result goes into ``out`` when one
    is given.
    """
    s = supersample
    planes = dense.reshape(dense.shape[0] // s, s, s, dense.shape[1] // s, 3)
    if out is None:
        out = planes[:, 0, 0].copy()
    else:
        np.copyto(out, planes[:, 0, 0])
    for k in range(1, s * s):
        out += planes[:, k // s, k % s]
    out /= s * s
    return out


def _finish(values: np.ndarray, gain: float, bias: float) -> np.ndarray:
    """Apply gain/bias and clamp to [0, 1], in place: every pixel's last float64 steps."""
    if gain != 1.0 or bias != 0.0:
        values *= gain
        values += bias
    return np.clip(values, 0.0, 1.0, out=values)


def render_frame(
    camera: CameraModel,
    target: PlanarTarget,
    depth_m: float,
    lateral_x: float = 0.0,
    *,
    timestamp_s: float = 0.0,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    background: float | np.ndarray = 0.08,
    supersample: int = 3,
) -> FrameSample:
    """Render one frame and its exact projected box.

    The emitted ``exact_box`` is the analytic projection before any
    noise; the observable ``box`` carries the jittered version when a
    noise model is supplied.  Every pixel is computed in float64: the
    texture is pasted over the background, gain/bias act after pasting,
    and values are clamped to [0, 1] before the float32 cast.  Outside
    the box that is the background alone, so the frame starts as the
    finished background (one value for a scalar, the whole array
    otherwise), and only the pixels the box covers are pasted and
    finished.

    Each covered pixel averages a ``supersample x supersample`` grid of
    bilinear texture samples over its footprint; plain point sampling
    aliases badly once the texture is minified a few times, which would
    leak a scale-dependent bias into anything matched against the render.
    The average is ``supersample_mean``: numpy's mean over the two sample
    axes, bit for bit, summed one whole sample plane at a time.  The
    lattice's columns are plane-major (all of the box's columns at
    sub-pixel offset 0, then offset 1, ...), so each plane is contiguous
    in every row; each sample's coordinate is the same sum either way.
    The sample lattice comes from one ``lattice_row_blocks`` call in blocks
    of whole output rows, at most ``_BLOCK_SAMPLES`` samples each (the last
    block padded with copies of the last row, whose results are dropped),
    and each block is averaged as it comes, so a large box never holds its
    whole dense lattice.
    """
    check_int("supersample", supersample, 1)
    exact_box = projected_box(camera, target, depth_m, lateral_x)
    u, v, w, h = exact_box.cx, exact_box.cy, exact_box.w, exact_box.h
    shape = (camera.height, camera.width, 3)
    background = np.asarray(background, dtype=np.float64)
    if background.ndim and background.shape != shape:
        raise DomainError(f"background shape {background.shape} does not match camera")

    dx, dy, s, gain, bias = _frame_noise(noise, rng)
    img = np.full(shape, _finish(background.copy(), gain, bias), dtype=np.float32)

    # Paste over every pixel square overlapping the box (pixel i spans
    # [i, i+1]); edge pixels alpha-blend by their exact coverage so the
    # silhouette moves sub-pixel-smoothly with the projected size.
    x_lo = max(0, int(np.floor(exact_box.x0)))
    x_hi = min(camera.width - 1, int(np.ceil(exact_box.x1)) - 1)
    y_lo = max(0, int(np.floor(exact_box.y0)))
    y_hi = min(camera.height - 1, int(np.ceil(exact_box.y1)) - 1)
    if x_hi >= x_lo and y_hi >= y_lo:
        th, tw = target.texture.shape[:2]
        cols_i = np.arange(x_lo, x_hi + 1)
        rows_i = np.arange(y_lo, y_hi + 1)
        cov_x = np.clip(
            np.minimum(cols_i + 1.0, exact_box.x1) - np.maximum(cols_i, exact_box.x0),
            0.0, 1.0,
        )
        cov_y = np.clip(
            np.minimum(rows_i + 1.0, exact_box.y1) - np.maximum(rows_i, exact_box.y0),
            0.0, 1.0,
        )
        coverage = (cov_y[:, None] * cov_x[None, :])[:, :, None]
        sub = (np.arange(supersample) + 0.5) / supersample  # offsets within a pixel
        cols = (sub[:, None] + cols_i[None, :]).reshape(-1)  # plane-major
        rows = (rows_i[:, None] + sub[None, :]).reshape(-1)
        tx = (cols - exact_box.x0) / w * tw - 0.5
        ty = (rows - exact_box.y0) / h * th - 0.5
        n_rows = rows_i.size
        n_blocks = -(-n_rows * supersample * tx.size // _BLOCK_SAMPLES)
        step = -(-n_rows // n_blocks)  # output rows per block
        ty = np.pad(ty, (0, (n_blocks * step - n_rows) * supersample), mode="edge")
        tex_avg = np.empty((n_blocks * step, cols_i.size, 3))
        for k, block in enumerate(lattice_row_blocks(target.texture, ty, tx, n_blocks)):
            supersample_mean(block, supersample, out=tex_avg[k * step : (k + 1) * step])
        # patch + coverage * (tex_avg - patch), in place
        region = (slice(y_lo, y_hi + 1), slice(x_lo, x_hi + 1))
        patch = np.broadcast_to(background, shape)[region]
        blend = tex_avg[:n_rows]
        blend -= patch
        blend *= coverage
        blend += patch
        img[region] = _finish(blend, gain, bias)

    box = BoundingBox(u + dx, v + dy, w * s, h * s) if (dx, dy, s) != (0, 0, 1.0) else exact_box
    return FrameSample(
        timestamp_s=timestamp_s,
        box=box,
        exact_box=exact_box,
        depth_m=depth_m,
        image=img,
    )


def _sequence_rng(noise: NoiseModel | None, sequence_id: str) -> np.random.Generator | None:
    if noise is None:
        return None
    key = zlib.crc32(sequence_id.encode())
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([noise.seed, key])))


def window_drop_reason(
    traj: Trajectory, camera: CameraModel, target: PlanarTarget,
    start_time: float, fps: float, length: int,
) -> str | None:
    """Why the ``length``-frame window from ``start_time`` cannot be rendered, or None.

    It must lie inside the trajectory and end before contact, and every
    frame's exact box at the renderer's frame times must pass
    :func:`ttckit.boxes.box_drop_reason`.
    """
    dt = 1.0 / fps
    t_last = start_time + (length - 1) * dt
    if start_time < 0:
        return "start_before_trajectory"
    if t_last > traj.t_end or (traj.contact_time is not None and t_last >= traj.contact_time):
        return "contact_before_sequence_end"
    for k in range(length):
        t = start_time + k * dt
        box = projected_box(camera, target, traj.depth(t), traj.lateral(t))
        reason = box_drop_reason(box, camera.width, camera.height)
        if reason is not None:
            return reason
    return None


def generate_from_trajectory(
    traj: Trajectory,
    camera: CameraModel,
    target: PlanarTarget,
    noise: NoiseModel | None = None,
    *,
    fps: float = 10.0,
    length: int = 6,
    start_time: float = 0.0,
    sequence_id: str = "seq",
    background: float | np.ndarray = 0.08,
    provenance: dict | None = None,
) -> Sequence:
    """Render a labeled sequence from an already-simulated trajectory.

    A window :func:`window_drop_reason` rejects raises that reason as a
    ``SequenceInvalidError`` before any frame is rendered.
    """
    reason = window_drop_reason(traj, camera, target, start_time, fps, length)
    if reason is not None:
        raise SequenceInvalidError(reason)
    dt = 1.0 / fps
    t_last = start_time + (length - 1) * dt

    rng = _sequence_rng(noise, sequence_id)
    frames = []
    for k in range(length):
        t = start_time + k * dt
        frame = render_frame(
            camera,
            target,
            traj.depth(t),
            traj.lateral(t),
            timestamp_s=t,
            noise=noise,
            rng=rng,
            background=background,
        )
        frames.append(frame)

    y_last = traj.depth(t_last)
    v_last = traj.closing_speed(t_last)
    tau = ttc_from_depth_velocity(y_last, v_last)
    alpha_by_gap = {
        g: y_last / traj.depth(t_last - g * dt) for g in range(1, length)
    }
    t_ref10 = t_last - 0.1
    if t_ref10 >= 0:
        alpha_10hz = y_last / traj.depth(t_ref10)
    elif abs(v_last) < DEFAULT_VELOCITY_EPS:
        alpha_10hz = 1.0
    else:
        # constant-velocity extrapolation before trajectory start
        alpha_10hz = y_last / (y_last + v_last * 0.1)

    history = []
    for k in range(_HISTORY_LEN - 1, -1, -1):
        t = t_last - k * dt
        if t >= -1e-12:
            history.append((max(t, 0.0), traj.depth(max(t, 0.0))))

    label = SequenceLabel(
        tau_s=tau,
        alpha_10hz=alpha_10hz,
        velocity_mps=v_last,
        q_used=None,
        flags=[],
        alpha_by_gap=alpha_by_gap,
        depth_m=y_last,
    )
    seq = Sequence(
        sequence_id=sequence_id,
        fps=fps,
        frames=frames,
        label=label,
        provenance=provenance or {},
        depth_history=history,
    )
    seq.validate(length)
    return seq


def generate_sequence(
    script: ScenarioScript,
    camera: CameraModel,
    target: PlanarTarget,
    noise: NoiseModel | None = None,
    *,
    fps: float = 10.0,
    length: int = 6,
    start_time: float = 0.0,
    sequence_id: str | None = None,
    background: float | np.ndarray = 0.08,
) -> Sequence:
    """Simulate a scenario and render one labeled sequence from it.

    Demo 02 renders its sequence this way; ``synth`` plans its windows
    first and calls :func:`generate_from_trajectory` itself.
    """
    horizon = start_time + length / fps + 0.5
    traj = simulate_script(script, horizon)
    seq_id = sequence_id or f"script{script.script_id:05d}_t{start_time:.1f}"
    provenance = {
        "generator": "synth",
        "seed": noise.seed if noise is not None else 0,
        "script_id": script.script_id,
        "template": script.template,
        "start_time": start_time,
    }
    return generate_from_trajectory(
        traj,
        camera,
        target,
        noise,
        fps=fps,
        length=length,
        start_time=start_time,
        sequence_id=seq_id,
        background=background,
        provenance=provenance,
    )


def sequence_for_ttc(
    tau_s: float,
    camera: CameraModel,
    target: PlanarTarget,
    *,
    closing_speed: float = 10.0,
    fps: float = 10.0,
    length: int = 6,
    start_time: float = 0.7,
    noise: NoiseModel | None = None,
    sequence_id: str = "seq",
    background: float | np.ndarray = 0.08,
) -> Sequence:
    """Constant-velocity sequence whose target-frame TTC is exactly tau_s.

    ``closing_speed`` sets the magnitude of the relative velocity; its
    sign is taken from tau_s (negative TTC means receding).
    """
    if tau_s == 0:
        raise DomainError("tau must be nonzero")
    v = abs(closing_speed) * (1.0 if tau_s > 0 else -1.0)
    t_last = start_time + (length - 1) / fps
    y_last = tau_s * v
    y0 = y_last + v * t_last
    if y0 <= 0:
        raise DomainError(f"geometry infeasible: y0 = {y0}")
    script = constant_velocity_script(v * 3.6, 0.0, y0)
    traj = simulate_script(script, start_time + length / fps + 0.5)
    provenance = {
        "generator": "synth",
        "seed": noise.seed if noise is not None else 0,
        "script_id": 0,
        "template": 0,
        "start_time": start_time,
        "tau_requested": tau_s,
    }
    return generate_from_trajectory(
        traj,
        camera,
        target,
        noise,
        fps=fps,
        length=length,
        start_time=start_time,
        sequence_id=sequence_id,
        background=background,
        provenance=provenance,
    )


def noise_texture(
    seed: int, size: int = 64, low: float = 0.2, high: float = 0.95
) -> np.ndarray:
    """Smooth random RGB texture stretched to span [low, high].

    Uniform noise is smoothed by two 3x3 box means (``features.box_mean``,
    edge samples repeated) before the stretch.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    tex = rng.uniform(0.0, 1.0, size=(size, size, 3))
    for _ in range(2):
        tex = box_mean(tex, (3, 3, 1))
    tex -= tex.min()
    ptp = tex.max()
    if ptp <= 0:  # cannot happen for random input; keep the guard cheap
        tex[...] = 0.5
        tex[0, 0] = 0.0
    else:
        tex /= ptp
    return low + tex * (high - low)


def checker_texture(low: float = 0.15, high: float = 0.9) -> np.ndarray:
    """64 x 64 px checkerboard of 8 px cells; strong gradients at every
    cell border."""
    cells = np.arange(64) // 8
    ii, jj = np.meshgrid(cells, cells, indexing="ij")
    pattern = ((ii + jj) % 2).astype(np.float64)
    return np.repeat((low + pattern * (high - low))[:, :, None], 3, axis=2)
