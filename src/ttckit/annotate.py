"""Ground-truth labeling: depth from 3D boxes, robust velocity, TTC labels.

Velocity is always fitted on the depth track *before* it is split into
fixed-length sequences, so the fit window may span sequence boundaries.
Labels for accelerating objects are arbitrated across several fit
windows, preferring the one that agrees with an external velocity
reference when available.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_VELOCITY_EPS, ttc_from_depth_velocity
from .errors import DomainError, FitFailedError
from .manifest import Sequence, SequenceLabel

DEFAULT_QS = (3, 5, 10)
DEFAULT_SPREAD_THRESHOLD = 0.10

# RANSAC settings: depth noise at ranging-sensor scale is decimeter-level,
# so a 0.5 m inlier band separates it cleanly from multi-meter outliers.
RANSAC_ITERS = 100
RANSAC_INLIER_THRESHOLD = 0.5


def nearest_corner_depth(corners) -> float:
    """Depth of a 3D box: y-coordinate of the corner closest to the origin.

    ``corners`` is an (8, 3) array of (x, y, z) in vehicle coordinates.
    Ties pick the lowest corner index.  No command reads 3D boxes; demo 03
    shows this step of the labelling.
    """
    corners = np.asarray(corners, dtype=np.float64)
    if corners.shape != (8, 3):
        raise DomainError(f"expected (8, 3) corners, got {corners.shape}")
    if not np.all(np.isfinite(corners)):
        raise DomainError("corners must be finite")
    spread = corners - corners.mean(axis=0)
    if np.linalg.matrix_rank(spread, tol=1e-9) < 3:
        raise DomainError("degenerate cuboid: corners do not span 3D")
    j = int(np.argmin(np.linalg.norm(corners, axis=1)))
    return float(corners[j, 1])


def cuboid_corners(x_range, y_range, z_range) -> np.ndarray:
    """All 8 corners of an axis-aligned cuboid, lowest-index-first ordering.

    Demo 03 builds its 3D box with it.
    """
    xs, ys, zs = x_range, y_range, z_range
    return np.array(
        [[x, y, z] for x in xs for y in ys for z in zs], dtype=np.float64
    )


@dataclass
class DepthTrack:
    """Depth history of one track: strictly increasing timestamps."""

    times: np.ndarray
    depths: np.ndarray

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.depths = np.asarray(self.depths, dtype=np.float64)
        if self.times.shape != self.depths.shape or self.times.ndim != 1:
            raise DomainError("times and depths must be matching 1-D arrays")
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise DomainError("timestamps must be strictly increasing")
        if np.any(self.depths <= 0):
            raise DomainError("depths must be positive")

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def from_pairs(cls, pairs) -> "DepthTrack":
        arr = np.asarray(list(pairs), dtype=np.float64)
        if arr.size == 0:
            return cls(np.zeros(0), np.zeros(0))
        return cls(arr[:, 0], arr[:, 1])


@functools.lru_cache(maxsize=64)
def _hypothesis_pairs(seed: int, m: int, n_iters: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ordered (i, j) pairs of ``n_iters`` 2-point draws over m points.

    The draws come from a fresh ``PCG64(seed)``, so they depend on these
    three numbers alone.  A repeated ordered pair scores the same count
    and SSE as its first copy and can never replace it, so only first
    occurrences are kept, in draw order.  The arrays are read-only.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.array([rng.choice(m, size=2, replace=False) for _ in range(n_iters)],
                     dtype=np.intp).reshape(n_iters, 2)
    _, first = np.unique(draws, axis=0, return_index=True)
    pairs = draws[np.sort(first)].T.copy()
    pairs.flags.writeable = False
    return pairs[0], pairs[1]


def ransac_fit_velocity(
    track: DepthTrack,
    q: int,
    *,
    seed: int = 0,
    n_iters: int = RANSAC_ITERS,
    inlier_threshold: float = RANSAC_INLIER_THRESHOLD,
) -> tuple[float, np.ndarray]:
    """Fit depth = y0 + slope * t over the last q points; return closing rate.

    RANSAC with 2-point minimal samples and a final least-squares refit on
    the consensus set.  The closing rate is -slope (depth shrinking at
    10 m/s means v = +10).  Deterministic for a fixed seed.

    The ``n_iters`` hypotheses are drawn once per (seed, window length,
    n_iters) and scored together.  The winner has the most inliers and,
    among those, the smallest inlier SSE, the earliest draw winning a tie:
    the pick that scoring the draws one at a time makes.
    """
    if q < 2:
        raise DomainError(f"window q must be >= 2, got {q}")
    n = len(track)
    if n < 2:
        raise FitFailedError(f"need >= 2 depth points, have {n}")
    t = track.times[-q:]
    y = track.depths[-q:]
    m = len(t)

    if m == 2:
        slope = (y[1] - y[0]) / (t[1] - t[0])
        return -float(slope), np.ones(2, dtype=bool)

    i, j = _hypothesis_pairs(seed, m, n_iters)
    slope = (y[j] - y[i]) / (t[j] - t[i])
    intercept = y[i] - slope * t[i]
    resid = y - (intercept[:, None] + slope[:, None] * t)
    mask = np.abs(resid) <= inlier_threshold
    counts = mask.sum(axis=1)
    best_count = int(counts.max()) if counts.size else 0
    if best_count < 2:
        raise FitFailedError("no consensus set with >= 2 inliers")
    # Every top row has best_count inliers, so its squared inlier residuals
    # form one contiguous row here, summed as np.sum sums that row alone.
    top = np.flatnonzero(counts == best_count)
    sse = np.sum((resid[top][mask[top]] ** 2).reshape(top.size, best_count), axis=1)
    best_mask = mask[top[np.argmin(sse)]].copy()
    slope, _ = np.polyfit(t[best_mask], y[best_mask], 1)
    return -float(slope), best_mask


@dataclass
class TtcLabel:
    tau_s: float
    q_used: int
    velocity_mps: float
    depth_m: float
    accelerating: bool = False


def ttc_label(depth_m: float, velocity_mps: float, q_used: int = 10) -> TtcLabel:
    """TTC label from depth and closing rate, truncated to [-20, 20]."""
    tau = ttc_from_depth_velocity(depth_m, velocity_mps)
    return TtcLabel(tau_s=tau, q_used=q_used, velocity_mps=velocity_mps, depth_m=depth_m)


def arbitrate_multi_q(
    track: DepthTrack, reference_v: float | None = None, *, seed: int = 0
) -> TtcLabel:
    """Label from several fit windows, arbitrated for accelerating objects.

    All window sizes in ``DEFAULT_QS`` are fitted.  If the candidate TTCs
    agree within ``DEFAULT_SPREAD_THRESHOLD`` (relative), the longest
    window wins (it is the most stable).  Otherwise the object is flagged
    ``accelerating`` and the candidate closest to the TTC implied by
    ``reference_v`` is chosen; with no reference, the shortest (most
    reactive) window wins.
    """
    if len(track) < 3:
        raise FitFailedError(f"track too short for arbitration: {len(track)} points")
    depth = float(track.depths[-1])
    candidates: list[TtcLabel] = []
    for q in DEFAULT_QS:
        v, _ = ransac_fit_velocity(track, q, seed=seed)
        candidates.append(ttc_label(depth, v, q_used=q))

    taus = np.array([c.tau_s for c in candidates])
    spread = float(taus.max() - taus.min())
    scale = max(float(np.abs(taus).mean()), 1e-9)
    if spread / scale <= DEFAULT_SPREAD_THRESHOLD:
        return candidates[-1]

    if reference_v is not None:
        tau_ref = ttc_from_depth_velocity(depth, reference_v)
        pick = int(np.argmin(np.abs(taus - tau_ref)))
    else:
        pick = 0
    chosen = candidates[pick]
    chosen.accelerating = True
    return chosen


def label_to_sequence_label(label: TtcLabel) -> SequenceLabel:
    """Convert a fitted label to the manifest schema.

    The 10 Hz scale ratio comes from the *untruncated* depth/velocity
    ratio so it stays exact for constant-velocity tracks; a near-zero
    closing rate means no apparent scale change (alpha = 1).
    """
    if abs(label.velocity_mps) < DEFAULT_VELOCITY_EPS:
        alpha_10 = 1.0
    else:
        tau_raw = label.depth_m / label.velocity_mps
        alpha_10 = tau_raw / (tau_raw + 0.1)
    flags = ["annotated"]
    if label.accelerating:
        flags.append("accelerating")
    return SequenceLabel(
        tau_s=label.tau_s,
        alpha_10hz=alpha_10,
        velocity_mps=label.velocity_mps,
        q_used=label.q_used,
        flags=flags,
        depth_m=label.depth_m,
    )


def annotate_sequence(seq: Sequence, *, seed: int = 0) -> SequenceLabel:
    """Re-derive a sequence label from its depth history.

    An existing label's velocity (e.g. an exact generator velocity or an
    external ranging sensor) serves as the arbitration reference for
    accelerating objects.
    """
    if seq.depth_history:
        track = DepthTrack.from_pairs(seq.depth_history)
    else:
        pairs = [
            (f.timestamp_s, f.depth_m) for f in seq.frames if f.depth_m is not None
        ]
        if len(pairs) < 3:
            raise FitFailedError(f"sequence {seq.sequence_id} has no usable depth track")
        track = DepthTrack.from_pairs(pairs)
    reference_v = None
    if seq.label is not None:
        reference_v = seq.label.velocity_mps
    raw = arbitrate_multi_q(track, reference_v, seed=seed)
    new_label = label_to_sequence_label(raw)
    if seq.label is not None and seq.label.alpha_by_gap is not None:
        # keep the generator's exact per-gap ratios for evaluation
        new_label.alpha_by_gap = dict(seq.label.alpha_by_gap)
    return new_label


def rebalance_sample(
    sequences: list[Sequence],
    target: list[tuple[float, float, float]],
    seed: int = 0,
    total: int | None = None,
) -> tuple[list[Sequence], list[str]]:
    """Subsample labeled sequences toward a preset TTC distribution.

    ``target`` is a list of (lo, hi, weight) bins partitioning [-20, 20].
    Sampling is without replacement, per bin, deterministic for a fixed
    seed.  Bins whose quota exceeds availability are underfilled and
    reported in the returned warnings.

    Demo 03 calls it.  No command does yet: it is planned as the quota
    step that picks ``synth`` windows toward a preset TTC mix (ROADMAP.md).
    """
    bins = sorted(target, key=lambda b: b[0])
    if not bins or bins[0][0] != -20.0 or bins[-1][1] != 20.0:
        raise DomainError("target bins must cover [-20, 20]")
    for (lo_a, hi_a, _), (lo_b, _, _) in zip(bins, bins[1:]):
        if hi_a != lo_b:
            raise DomainError("target bins must be contiguous")
    weights = np.array([w for _, _, w in bins], dtype=np.float64)
    if weights.sum() <= 0 or np.any(weights < 0):
        raise DomainError("target weights must be non-negative and sum > 0")
    weights /= weights.sum()

    if total is None:
        total = len(sequences)
    # largest-remainder rounding of per-bin quotas
    ideal = weights * total
    quotas = np.floor(ideal).astype(int)
    remainder = total - quotas.sum()
    order = np.argsort(-(ideal - quotas), kind="stable")
    quotas[order[:remainder]] += 1

    members: list[list[int]] = [[] for _ in bins]
    for idx, seq in enumerate(sequences):
        if seq.label is None:
            raise DomainError(f"sequence {seq.sequence_id} is unlabeled")
        tau = min(max(seq.label.tau_s, -20.0), 20.0)
        for b, (lo, hi, _) in enumerate(bins):
            if (lo <= tau < hi) or (tau == 20.0 and hi == 20.0):
                members[b].append(idx)
                break

    rng = np.random.Generator(np.random.PCG64(seed))
    selected: list[int] = []
    warnings: list[str] = []
    for b, (lo, hi, _) in enumerate(bins):
        want = int(quotas[b])
        have = len(members[b])
        take = min(want, have)
        if want > have:
            warnings.append(f"bin [{lo}, {hi}): wanted {want}, only {have} available")
        if take > 0:
            picks = rng.permutation(have)[:take]
            selected.extend(members[b][p] for p in picks)
    selected.sort()
    return [sequences[i] for i in selected], warnings


def uniform_interval_target() -> list[tuple[float, float, float]]:
    """Equal weight on the four TTC intervals: demo 03's rebalancing target."""
    return [(-20.0, 0.0, 0.25), (0.0, 3.0, 0.25), (3.0, 6.0, 0.25), (6.0, 20.0, 0.25)]
