"""The three TTC estimators.

All share one TTC-from-scale contract: predict the scale ratio alpha
between a reference frame (``gap`` frames back) and the target (last)
frame, clamp it into the search range, then convert to TTC and to the
10 Hz-equivalent scale ratio.

* ``detection_ratio_estimate`` -- box-geometry baseline (area ratio).
* ``pixel_mse_estimate`` -- scores every candidate scale by MSE between
  the rescaled reference crop and the target crop, fuses the top-k bins
  with reciprocal-MSE weights.
* ``feature_scale_estimate`` -- scores candidates by pooled cosine
  similarity of grid-sampled feature patches, calibrated by a small
  per-bin linear head, fused with sigmoid weights.

Candidate boxes sit at the reference box center with the *target* box
dims scaled by each alpha bin; an exhaustive (2c+1)^2 integer center
shift absorbs detection misalignment.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace

import numpy as np

from .boxes import BoundingBox, expand_box
from .core import (
    convert_scale_ratio_fps,
    scale_ratio_from_ttc,
    ttc_from_scale_ratio,
)
from .errors import DomainError, ScaleConversionError, SequenceInvalidError
from .features import hand_crafted_features
from .manifest import FrameSample, Sequence
from .sampling import (
    crop_positions,
    crop_resize,
    grid_positions,
    grid_sample_features,
    lattice_row_blocks,
    shift_offsets,
)

_FLAT_PROFILE_TOL = 1e-12
# floor of a cosine's denominator: zero-norm patches score 0, not NaN
COSINE_EPS = 1e-12
# a top sigmoid weight below this fuses in log space (see fuse_logits)
_MIN_TOP_WEIGHT = 1e-200
# a pixel-search lattice of at most this many samples, (2c+1)^2 * out_h *
# out_w, is sampled and scored as one block (the 31 and 53 px crops at
# radius 3); a larger one one dy row group at a time (_pixel_mse_scores)
_ONE_BLOCK_SAMPLES = 160_000


@dataclass(frozen=True)
class ScaleSearchConfig:
    """Scale-search hyperparameters.

    Field defaults are the pixel-space settings; ``feature_defaults()``
    gives the feature-space ones (fewer, coarser bins and a small shift
    radius, with a fixed grid-sample target size).
    """

    alpha_min: float = 0.65
    alpha_max: float = 1.5
    n_bins: int = 125
    top_k: int = 3
    shift_c: int = 3
    expand_cap: float = 1.1
    frame_gap: int = 5
    target_w: int = 50
    target_h: int = 50
    ttc_reference: str = "reference_frame"
    detection_sqrt: bool = True
    multi_reference: bool = False
    eps: float = 1e-12

    def __post_init__(self) -> None:
        if not (0 < self.alpha_min < self.alpha_max):
            raise DomainError(f"bad alpha range [{self.alpha_min}, {self.alpha_max}]")
        if self.n_bins < 2:
            raise DomainError(f"need >= 2 scale bins, got {self.n_bins}")
        if not (1 <= self.top_k <= self.n_bins):
            raise DomainError(f"top_k {self.top_k} outside [1, {self.n_bins}]")
        if self.shift_c < 0:
            raise DomainError(f"shift radius must be >= 0, got {self.shift_c}")
        if self.frame_gap < 1:
            raise DomainError(f"frame gap must be >= 1, got {self.frame_gap}")

    @classmethod
    def pixel_defaults(cls, **overrides) -> "ScaleSearchConfig":
        return cls(**overrides)

    @classmethod
    def feature_defaults(cls, **overrides) -> "ScaleSearchConfig":
        base = dict(n_bins=20, top_k=4, shift_c=1, target_w=50, target_h=50)
        base.update(overrides)
        return cls(**base)

    def bins(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.n_bins)

    @property
    def bin_width(self) -> float:
        return (self.alpha_max - self.alpha_min) / (self.n_bins - 1)

    def with_gap(self, gap: int) -> "ScaleSearchConfig":
        return replace(self, frame_gap=gap)


@dataclass
class SimilarityProfile:
    """Per-bin scores before fusion; lower is better for 'mse' semantics,
    higher for 'logit'."""

    scores: np.ndarray  # (n_bins,)
    semantics: str  # "mse" | "logit"
    best_shift: np.ndarray  # (n_bins, 2) int offsets (dx, dy)


@dataclass
class TtcEstimate:
    alpha_hat: float  # at the evaluation frame gap
    alpha_hat_10hz: float
    tau_hat: float
    profile: SimilarityProfile | None
    estimator: str
    low_confidence: bool = False


def scaled_candidate_boxes(
    b0: BoundingBox, b1: BoundingBox, cfg: ScaleSearchConfig
) -> list[BoundingBox]:
    """Candidate boxes: reference center, target dims scaled by each bin."""
    return [
        BoundingBox(b0.cx, b0.cy, float(a) * b1.w, float(a) * b1.h)
        for a in cfg.bins()
    ]


def _estimate_pair(seq: Sequence, gap: int) -> tuple[FrameSample, FrameSample]:
    target_idx = len(seq.frames) - 1
    ref_idx = target_idx - gap
    if ref_idx < 0:
        raise SequenceInvalidError(
            f"gap {gap} needs {gap + 1} frames, sequence has {len(seq.frames)}"
        )
    ref, tgt = seq.frames[ref_idx], seq.frames[target_idx]
    if ref.box is None or tgt.box is None:
        raise SequenceInvalidError("reference/target frames must carry boxes")
    return ref, tgt


def alpha_to_10hz(alpha: float, effective_fps: float) -> float:
    """Express a scale ratio at the 10 Hz reference rate.

    Falls back to truncating through the TTC representation when the
    direct conversion leaves the valid range (extreme receding ratios).
    """
    try:
        return convert_scale_ratio_fps(alpha, effective_fps, 10.0)
    except ScaleConversionError:
        tau = ttc_from_scale_ratio(alpha, 1.0 / effective_fps, "target_frame")
        return scale_ratio_from_ttc(tau, 0.1, "target_frame")


def _finish(
    alpha_hat: float,
    cfg: ScaleSearchConfig,
    fps: float,
    gap: int,
    profile: SimilarityProfile | None,
    estimator: str,
    low_confidence: bool,
) -> TtcEstimate:
    alpha_hat = float(min(max(alpha_hat, cfg.alpha_min), cfg.alpha_max))
    dt = gap / fps
    tau_hat = ttc_from_scale_ratio(alpha_hat, dt, cfg.ttc_reference)
    alpha_10 = alpha_to_10hz(alpha_hat, fps / gap)
    return TtcEstimate(
        alpha_hat=alpha_hat,
        alpha_hat_10hz=alpha_10,
        tau_hat=tau_hat,
        profile=profile,
        estimator=estimator,
        low_confidence=low_confidence,
    )


def _gray(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image, dtype=np.float64)
    return img.mean(axis=2) if img.ndim == 3 else img


def _flat(scores: np.ndarray) -> bool:
    return float(scores.max() - scores.min()) <= _FLAT_PROFILE_TOL * max(
        1.0, float(np.abs(scores).max())
    )


# ---------------------------------------------------------------------------
# detection baseline


def detection_ratio_estimate(seq: Sequence, cfg: ScaleSearchConfig) -> TtcEstimate:
    """Scale ratio straight from detection-box areas.

    ``sqrt(area_ref / area_target)`` keeps the result a linear scale
    ratio like the other estimators; set ``detection_sqrt=False`` for the
    raw area ratio reading.
    """
    gap = cfg.frame_gap
    ref, tgt = _estimate_pair(seq, gap)
    if ref.box.area <= 0 or tgt.box.area <= 0:
        raise DomainError("zero-area box")
    ratio = ref.box.area / tgt.box.area
    alpha = math.sqrt(ratio) if cfg.detection_sqrt else ratio
    return _finish(alpha, cfg, seq.fps, gap, None, "detection", False)


# ---------------------------------------------------------------------------
# pixel-space MSE search


def _bin_positions(
    positions, center: tuple[float, float], b1: BoundingBox, cfg: ScaleSearchConfig,
    out_w: int, out_h: int,
) -> tuple[np.ndarray, np.ndarray]:
    """1-D sampling coordinates of every bin's candidate box, unshifted.

    ``positions`` is ``crop_positions`` or ``grid_positions``; returns
    (ys (n_bins, out_h), xs (n_bins, out_w)).
    """
    ys, xs = np.empty((cfg.n_bins, out_h)), np.empty((cfg.n_bins, out_w))
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    for i, box in enumerate(scaled_candidate_boxes(center_box, b1, cfg)):
        ys[i], xs[i] = positions(box, out_w, out_h)
    return ys, xs


def _shift_lattice(coords: np.ndarray, c: int) -> np.ndarray:
    """Each lattice's 1-D coordinates shifted by every integer in [-c, c].

    ``coords`` is (..., n); the result is (..., (2c+1) * n), the n
    coordinates shifted by -c, then by -c + 1, and so on: the rows (or
    columns) of one augmented lattice that tiles every shifted copy.
    """
    side = np.arange(-c, c + 1, dtype=np.float64)
    shifted = side[:, None] + coords[..., None, :]
    return shifted.reshape(coords.shape[:-1] + (-1,))


def _pixel_mse_scores(
    ref_gray: np.ndarray,
    tgt_crop: np.ndarray,
    center: tuple[float, float],
    b1: BoundingBox,
    cfg: ScaleSearchConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """MSE of every (scale bin, center shift) candidate against the target crop.

    Returns (mse (n_bins, n_offsets), offsets) with offsets lexicographic
    in (dx, dy).  Each bin's shifted crops tile one augmented sampling
    lattice, (2c+1) * out_h rows by (2c+1) * out_w columns, whose group
    of rows for one dy holds every dx shift side by side.

    The bins are scored in two halves at once: the calling thread takes
    bins ``[0, ceil(n_bins / 2))`` and one worker thread, started for
    this search in a ``with`` block, the rest.  Each half makes its own
    batched sampler call, which hands its lattices back a block at a time
    in one reused buffer, and writes only its own bins' rows of the
    result.  A lattice of at most ``_ONE_BLOCK_SAMPLES`` samples comes
    back as one block, so the small crops make few, large numpy calls,
    which the two threads run in parallel instead of trading the GIL; a
    larger lattice comes back one dy row group per block, which bounds
    the buffers to an (out_h, (2c+1) * out_w) slab.  Every sample keeps
    its own corners and weights, and each block's sum over (row, column)
    is the whole-lattice sum over those axes, added in the same order, so
    the scores depend neither on the blocking nor on the halves.
    """
    out_h, out_w = tgt_crop.shape
    c = cfg.shift_c
    n_side = 2 * c + 1
    ys, xs = _bin_positions(crop_positions, center, b1, cfg, out_w, out_h)
    ys, xs = _shift_lattice(ys, c), _shift_lattice(xs, c)
    groups = n_side if n_side * n_side * out_h * out_w <= _ONE_BLOCK_SAMPLES else 1
    # (bin, dy_idx) by dx_idx; each half writes only its own bins' rows
    per_shift = np.empty((cfg.n_bins * n_side, n_side))
    # the target once per dx shift and dy group, tiled like a block's
    # crops: a same-shape subtraction, faster than broadcasting tgt_crop
    target = np.tile(tgt_crop, (groups, n_side))

    def score(first: int, stop: int) -> None:
        blocks = lattice_row_blocks(ref_gray, ys[first:stop], xs[first:stop], n_side // groups)
        rows = per_shift[first * n_side : stop * n_side].reshape(-1, groups, n_side)
        for k, block in enumerate(blocks):
            # squared differences in place in the block buffer
            np.subtract(block, target, out=block)
            np.multiply(block, block, out=block)
            rows[k] = block.reshape(groups, out_h, n_side, out_w).sum(axis=(1, 3))

    half = -(-cfg.n_bins // 2)
    with ThreadPoolExecutor(max_workers=1) as pool:
        rest = pool.submit(score, half, cfg.n_bins)
        score(0, half)
        rest.result()
    # lexicographic (dx, dy) within each bin; np.mean is the sum over the count
    mses = per_shift.reshape(cfg.n_bins, n_side, n_side).transpose(0, 2, 1).reshape(cfg.n_bins, -1)
    mses /= out_h * out_w
    return mses, shift_offsets(c)


def _pixel_alpha_at_gap(seq: Sequence, cfg: ScaleSearchConfig, gap: int):
    ref, tgt = _estimate_pair(seq, gap)
    ref_img, tgt_img = ref.load_image(), tgt.load_image()
    h, w = tgt_img.shape[:2]
    b1 = expand_box(tgt.box, cfg.expand_cap, (w, h))
    out_w = max(2, int(round(b1.w)))
    out_h = max(2, int(round(b1.h)))
    tgt_crop = crop_resize(_gray(tgt_img), b1, out_w, out_h)
    mses, offsets = _pixel_mse_scores(
        _gray(ref_img), tgt_crop, (ref.box.cx, ref.box.cy), b1, cfg
    )
    best_off = np.argmin(mses, axis=1)
    best = mses[np.arange(cfg.n_bins), best_off]
    profile = SimilarityProfile(
        scores=best, semantics="mse", best_shift=offsets[best_off]
    )
    order = np.argsort(best, kind="stable")[: cfg.top_k]
    weights = 1.0 / (best[order] + cfg.eps)
    alpha = float(np.sum(weights * cfg.bins()[order]) / np.sum(weights))
    return alpha, profile, _flat(best)


def pixel_mse_estimate(seq: Sequence, cfg: ScaleSearchConfig) -> TtcEstimate:
    """Scale search by pixel MSE, top-k reciprocal-MSE fusion.

    The crop target size follows the (expanded) target box.  Degenerate
    flat profiles (e.g. constant frames) still produce an estimate but
    carry ``low_confidence``.
    """
    gap = cfg.frame_gap
    alpha, profile, flat = _pixel_alpha_at_gap(seq, cfg, gap)
    if not cfg.multi_reference:
        return _finish(alpha, cfg, seq.fps, gap, profile, "pixel_mse", flat)
    return _multi_reference_finish(
        seq, cfg, alpha, profile, flat, "pixel_mse",
        lambda g: _pixel_alpha_at_gap(seq, cfg, g)[0],
    )


def _multi_reference_finish(seq, cfg, alpha_default, profile, flat, name, alpha_fn):
    """Average per-gap estimates in 10 Hz scale-ratio space."""
    alphas_10 = []
    for g in range(1, len(seq.frames)):
        a = alpha_default if g == cfg.frame_gap else alpha_fn(g)
        a = float(min(max(a, cfg.alpha_min), cfg.alpha_max))
        alphas_10.append(alpha_to_10hz(a, seq.fps / g))
    alpha_10 = float(np.mean(alphas_10))
    tau_hat = ttc_from_scale_ratio(alpha_10, 0.1, cfg.ttc_reference)
    return TtcEstimate(
        alpha_hat=float(min(max(alpha_default, cfg.alpha_min), cfg.alpha_max)),
        alpha_hat_10hz=alpha_10,
        tau_hat=tau_hat,
        profile=profile,
        estimator=name,
        low_confidence=flat,
    )


# ---------------------------------------------------------------------------
# feature-space scale classification


def candidate_patches_by_bin(
    fmap0: np.ndarray,
    center: tuple[float, float],
    b1: BoundingBox,
    cfg: ScaleSearchConfig,
    bins: slice = slice(None),
) -> Iterator[np.ndarray]:
    """Every (scale bin, center shift) candidate patch of the reference
    feature map, one scale bin at a time, in bin order; only the bins in
    ``bins``, if given.

    Yields (1, n_offsets, out_h, out_w, C) arrays, equal bit for bit to
    the slices ``[i : i + 1]`` of one bilinear sample of all the bins'
    shifted grids at once (the tests keep that whole-stack reference),
    sampling each only when it is asked for, so a caller that reduces each
    bin as it comes never holds the whole stack.  A bin's shifted patches
    tile one augmented lattice, (2c+1) * out_h rows by (2c+1) * out_w
    columns, which the sampler hands back in 2c+1 blocks of rows, one per
    dy; each block's dx patches are copied into their (dx, dy) slots.
    Every bin is yielded in the same buffer, which the next bin overwrites.
    """
    c = cfg.shift_c
    n_side = 2 * c + 1
    h, w = cfg.target_h, cfg.target_w
    ys, xs = _bin_positions(grid_positions, center, b1, cfg, w, h)
    patches = np.empty(
        (n_side * n_side, h, w) + fmap0.shape[2:], np.result_type(fmap0.dtype, np.float64)
    )
    ys, xs = _shift_lattice(ys[bins], c), _shift_lattice(xs[bins], c)
    blocks = lattice_row_blocks(fmap0, ys, xs, n_side)
    for k, block in enumerate(blocks):
        dy_idx = k % n_side
        # offsets are lexicographic in (dx, dy): one dy's patches sit n_side apart
        patches[dy_idx::n_side] = np.swapaxes(block.reshape((h, n_side, w) + block.shape[2:]), 0, 1)
        if dy_idx == n_side - 1:
            yield patches[None]


def target_grid_patch(fmap1: np.ndarray, b1: BoundingBox, cfg: ScaleSearchConfig) -> np.ndarray:
    return grid_sample_features(fmap1, b1, cfg.target_w, cfg.target_h)


def pooled_cosine_scores(patches: np.ndarray, target_patch: np.ndarray) -> np.ndarray:
    """Mean cosine similarity of each candidate patch vs the target patch.

    patches: (n_bins, n_off, H, W, C); target: (H, W, C) -> (n_bins, n_off).
    Each position's denominator is clamped at ``COSINE_EPS``.
    """
    num = np.einsum("bshwc,hwc->bshw", patches, target_patch)
    n0 = np.einsum("bshwc,bshwc->bshw", patches, patches)
    n1 = np.einsum("hwc,hwc->hw", target_patch, target_patch)
    denom = np.maximum(np.sqrt(n0 * n1[None, None]), COSINE_EPS)
    return (num / denom).mean(axis=(2, 3))


def feature_scores(
    fmap0: np.ndarray,
    fmap1: np.ndarray,
    center: tuple[float, float],
    b1: BoundingBox,
    cfg: ScaleSearchConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw (pre-head) similarity scores: (n_bins, n_offsets), plus offsets.

    As in the pixel search, the bins are scored in two halves at once:
    the calling thread takes bins ``[0, ceil(n_bins / 2))`` and one
    worker thread, started for this call in a ``with`` block, the rest.
    Each half samples and scores its own bins one at a time, so each
    thread holds one bin's patches, and the scores equal one-bin-at-a-time
    scoring bit for bit (``_split_feature_scores``).
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        return _split_feature_scores(fmap0, fmap1, center, b1, cfg, pool)


def _split_feature_scores(fmap0, fmap1, center, b1, cfg, pool):
    """``feature_scores`` with the second half of the bins on ``pool``.

    Each half writes only its own bins' rows of the result, and a bin's
    scores do not depend on the other bins.  An error in either half
    reaches the caller, the calling half's first; either way the worker's
    half has finished by the time this returns or raises.
    """
    target = target_grid_patch(fmap1, b1, cfg)
    scores = np.empty((cfg.n_bins, (2 * cfg.shift_c + 1) ** 2))

    def score(first: int, stop: int) -> None:
        bins = candidate_patches_by_bin(fmap0, center, b1, cfg, slice(first, stop))
        for i, patches in enumerate(bins, first):
            scores[i : i + 1] = pooled_cosine_scores(patches, target)

    half = -(-cfg.n_bins // 2)
    rest = pool.submit(score, half, cfg.n_bins)
    try:
        score(0, half)
    finally:
        wait([rest])
    rest.result()
    return scores, shift_offsets(cfg.shift_c)


def identity_head(n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Untrained per-bin head: logits pass the pooled scores through."""
    return np.eye(n_bins), np.zeros(n_bins)


def head_logits(
    scores: np.ndarray, fc_weight: np.ndarray, fc_bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin max over center shifts, then the linear head.

    The shift search yields each scale's final similarity score; the head
    calibrates the resulting n-vector into logits.  Returns
    (logits (n_bins,), best_shift_idx (n_bins,)).
    """
    n = scores.shape[0]
    if fc_weight.shape != (n, n) or fc_bias.shape != (n,):
        raise DomainError(
            f"head shapes {fc_weight.shape}/{fc_bias.shape} do not match {n} bins"
        )
    best_idx = np.argmax(scores, axis=1)
    final_scores = scores[np.arange(n), best_idx]
    return fc_weight @ final_scores + fc_bias, best_idx


def fuse_logits(logits: np.ndarray, cfg: ScaleSearchConfig) -> float:
    """Top-k sigmoid-weighted mean of the bin alphas, within the end bins.

    A sigmoid weight falls below 1e-200 for logits under about -460 and
    rounds to 0 under about -745, where the mean would be 0/0.  When even
    the top weight is below 1e-200, the weights are taken relative to it,
    in log space, which keeps the mean they define.
    """
    bins = cfg.bins()
    order = np.argsort(-logits, kind="stable")[: cfg.top_k]
    top = logits[order]
    with np.errstate(over="ignore"):
        weights = 1.0 / (1.0 + np.exp(-top))
    if weights[0] < _MIN_TOP_WEIGHT:
        log_weights = -np.logaddexp(0.0, -top)
        weights = np.exp(log_weights - log_weights[0])
    alpha = float(np.sum(weights * bins[order]) / np.sum(weights))
    # a weighted mean of the end bin and negligible others can round past it
    return min(max(alpha, float(bins[0])), float(bins[-1]))


def _frame_features(frame: FrameSample) -> np.ndarray:
    return hand_crafted_features(frame.load_image())


def _feature_alpha_at_gap(seq, cfg, gap, fc_weight, fc_bias, fmaps, tgt_hw, pool):
    ref, tgt = _estimate_pair(seq, gap)
    ref_idx = len(seq.frames) - 1 - gap
    fmap0 = fmaps.get(ref_idx)
    if isinstance(fmap0, Future):
        # extracted on a worker; its error is raised here, after the pair's checks
        fmap0 = fmaps[ref_idx] = fmap0.result()
    elif fmap0 is None:
        fmap0 = fmaps[ref_idx] = _frame_features(ref)
    fmap1 = fmaps[len(seq.frames) - 1]
    h, w = tgt_hw
    b1 = expand_box(tgt.box, cfg.expand_cap, (w, h))
    scores, offsets = _split_feature_scores(
        fmap0, fmap1, (ref.box.cx, ref.box.cy), b1, cfg, pool
    )
    logits, best_idx = head_logits(scores, fc_weight, fc_bias)
    profile = SimilarityProfile(
        scores=logits, semantics="logit", best_shift=offsets[best_idx]
    )
    return fuse_logits(logits, cfg), profile, _flat(logits)


def feature_scale_estimate(
    seq: Sequence,
    cfg: ScaleSearchConfig,
    fc_weight: np.ndarray | None = None,
    fc_bias: np.ndarray | None = None,
) -> TtcEstimate:
    """Feature-space scale classification with a per-bin linear head.

    Features are ``hand_crafted_features``.  With no trained head the
    identity head is used: logits are the pooled cosine scores themselves.

    One worker thread, started for this estimate in a ``with`` block,
    decodes the reference frame and extracts its features while the
    calling thread does the target frame's; only the target raster's
    shape is kept after that.  The same worker then scores the second
    half of the bins, as ``feature_scores`` does, at every gap of a
    ``multi_reference`` estimate too, whose other reference frames are
    read on the calling thread, once each.  One worker per estimate keeps
    the feature-train benchmark's peak RSS flat; a worker for the features
    and another for each scoring call raised it by 4-10 MB in some runs.
    Errors are raised in the serial order: the target frame's, then the
    pair's checks, then the reference frame's.
    """
    if fc_weight is None or fc_bias is None:
        fc_weight, fc_bias = identity_head(cfg.n_bins)
    fc_weight = np.asarray(fc_weight, dtype=np.float64)
    fc_bias = np.asarray(fc_bias, dtype=np.float64)

    gap = cfg.frame_gap
    last = len(seq.frames) - 1
    # frame index -> feature map, or the future of one
    fmaps: dict[int, np.ndarray | Future] = {}
    with ThreadPoolExecutor(max_workers=1) as pool:
        if last - gap >= 0:
            fmaps[last - gap] = pool.submit(_frame_features, seq.frames[last - gap])
        tgt_img = seq.frames[last].load_image()
        tgt_hw = tgt_img.shape[:2]
        fmaps[last] = hand_crafted_features(tgt_img)
        del tgt_img

        def alpha_at(g: int):
            return _feature_alpha_at_gap(seq, cfg, g, fc_weight, fc_bias, fmaps, tgt_hw, pool)

        alpha, profile, flat = alpha_at(gap)
        if not cfg.multi_reference:
            return _finish(alpha, cfg, seq.fps, gap, profile, "feature_scale", flat)
        return _multi_reference_finish(
            seq, cfg, alpha, profile, flat, "feature_scale", lambda g: alpha_at(g)[0]
        )


# ---------------------------------------------------------------------------
# estimator registry

ESTIMATOR_NAMES = ("detection", "pixel_mse", "feature_scale")


def make_estimator(name: str, cfg: ScaleSearchConfig, weights: dict | None = None):
    """Build a ``seq -> TtcEstimate`` callable by estimator name.

    Feature-scale ``weights`` must hold exactly the ``cfg.n_bins`` head,
    ``fc.weight`` and ``fc.bias``; any other keys or shapes raise
    ``DomainError`` here, before any sequence is estimated.
    """
    if name == "detection":
        return lambda seq: detection_ratio_estimate(seq, cfg)
    if name == "pixel_mse":
        return lambda seq: pixel_mse_estimate(seq, cfg)
    if name == "feature_scale":
        fc_w = fc_b = None
        if weights is not None:
            expected = {"fc.weight": (cfg.n_bins, cfg.n_bins), "fc.bias": (cfg.n_bins,)}
            shapes = {key: np.shape(p) for key, p in weights.items()}
            if shapes != expected:
                raise DomainError(f"weights do not fit the {cfg.n_bins}-bin feature_scale "
                                  f"head: got {shapes}, need {expected}")
            fc_w, fc_b = weights["fc.weight"], weights["fc.bias"]
        return lambda seq: feature_scale_estimate(seq, cfg, fc_w, fc_b)
    raise DomainError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
