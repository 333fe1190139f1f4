"""The three TTC estimators.

All share one TTC-from-scale contract: predict the scale ratio alpha
between a reference frame (``gap`` frames back) and the target (last)
frame, clamp it into the search range, then convert to TTC at the target
frame, the frame the labels measure, and to the 10 Hz-equivalent scale
ratio.

* ``detection_ratio_estimate`` -- box-geometry baseline (square root of
  the area ratio).
* ``pixel_mse_estimate`` -- scores candidate scales by MSE between the
  rescaled reference crop and the target crop, fuses the top-k bins with
  reciprocal-MSE weights; only the bins that can reach the top-k are
  scored in full (see below).
* ``feature_scale_estimate`` -- scores candidates by pooled cosine
  similarity of grid-sampled feature patches, calibrated by a small
  per-bin linear head, fused with sigmoid weights.  Its pair's inputs
  (``pair_features``, the features of a region of interest) and scores
  (``pooled_cosine_scores``) are those training uses: an estimate is the
  identity-draw case of a training pair's scoring.  Its patches are
  reduced one dy row group at a time, as the sampler yields them.

Candidate boxes sit at the reference box center with the *target* box
dims scaled by each alpha bin; an exhaustive (2c+1)^2 integer center
shift absorbs detection misalignment.

The pixel search is pruned exactly, in two passes over every bin's
sampling positions, which each search computes once, in one numpy
expression (``_bin_positions``).  The bound pass scores every bin's
shifted candidates at every third row and column of the target crop
only.  Its lattices are small, so the sampler stacks several
consecutive bins' lattices into each numpy call (``lattice_row_blocks``).
Those squared differences are, bit for bit, a subset of the
n = out_h * out_w nonnegative terms the exact MSE sums, so a bin's
smallest partial sum over n, scaled by 1 - 4 n u (u = 2^-53, a margin
for the rounding of both sums, ``_pixel_mse_bounds``), is a proven
lower bound on its best MSE.  The exact pass runs the unchanged scorer
on the bins in order of bound and stops when every bin left has a bound
strictly above the top_k-th exact MSE, or scores every bin when the
bounds cannot prove the profile not flat.  The fused alpha and the flag
are those of the full search, bit for bit; only the pruned bins'
profile entries are bounds (``SimilarityProfile.exact``).
Both searches score half of their bins on the one worker of the pool a
caller passes (``cli.main`` opens it), or, with no pool, all on the
calling thread, to the same bytes; nothing here starts a thread.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import Executor, wait
from dataclasses import dataclass, replace
from itertools import islice
from types import SimpleNamespace

import numpy as np

from .boxes import BoundingBox, expand_box
from .core import (
    check_int,
    convert_scale_ratio_fps,
    is_finite_real,
    scale_ratio_from_ttc,
    ttc_from_scale_ratio,
)
from .errors import DomainError, ScaleConversionError, SequenceInvalidError
from .features import hand_crafted_features, intensity_mask
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
# added to each top-k MSE before its reciprocal: a zero MSE weighs 1e12, not inf
_MSE_EPS = 1e-12
# a top sigmoid weight below this fuses in log space (see fuse_logits)
_MIN_TOP_WEIGHT = 1e-200
# a pixel-search lattice of at most this many samples, (2c+1)^2 * out_h *
# out_w, is sampled and scored as one block (the 31 and 53 px crops at
# radius 3); a larger one one dy row group at a time (_shift_sq_sums)
_ONE_BLOCK_SAMPLES = 160_000
# the pixel search's bound pass samples every third row and column of the
# target crop, about a ninth of the exact pass's samples (_pixel_mse_bounds)
_BOUND_STRIDE = 3
# unit roundoff of float64, 2^-53
_UNIT_ROUNDOFF = 2.0**-53
# the (gain, bias) draw of an unaugmented pair: eval's and the val pairs' scores
IDENTITY_DRAW = (1.0, 0.0, 1.0, 0.0)
# draws scored per numpy call: at the default 50 x 50 grid and shift
# radius 1 one thread's three (k, n_off, P) buffers take 1.6 MB, inside
# a 2 MB L2; batches of 2 to 6 draws measured alike, 1 and 8 slower
_DRAW_BATCH = 3
# pixels kept around every sample position by the feature region of
# interest, more than the features' 5 x 5 contrast window and gradients
# reach, so the region's features there are the whole frame's
_ROI_MARGIN = 6


@dataclass(frozen=True)
class ScaleSearchConfig:
    """Scale-search hyperparameters of the detection and pixel-space
    estimators; the feature search's are ``FeatureSearchConfig``."""

    alpha_min: float = 0.65
    alpha_max: float = 1.5
    n_bins: int = 125
    top_k: int = 3
    shift_c: int = 3
    expand_cap: float = 1.1
    frame_gap: int = 5

    def __post_init__(self) -> None:
        for name, low in (("n_bins", 2), ("top_k", 1), ("shift_c", 0), ("frame_gap", 1)):
            check_int(f"scale search {name}", getattr(self, name), low)
        for name in ("alpha_min", "alpha_max", "expand_cap"):
            if not is_finite_real(getattr(self, name)):
                raise DomainError(f"scale search {name} must be a finite number, "
                                  f"got {getattr(self, name)!r}")
        if not (0 < self.alpha_min < self.alpha_max):
            raise DomainError(f"scale search needs 0 < alpha_min < alpha_max, got "
                              f"{self.alpha_min!r} and {self.alpha_max!r}")
        if self.top_k > self.n_bins:
            raise DomainError(f"scale search top_k {self.top_k} exceeds n_bins {self.n_bins}")
        if self.expand_cap < 1:
            raise DomainError(f"scale search expand_cap must be >= 1, got {self.expand_cap!r}")

    def bins(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.n_bins)

    @property
    def bin_width(self) -> float:
        return (self.alpha_max - self.alpha_min) / (self.n_bins - 1)

    def with_gap(self, gap: int) -> "ScaleSearchConfig":
        return replace(self, frame_gap=gap)


@dataclass(frozen=True)
class FeatureSearchConfig(ScaleSearchConfig):
    """The feature search's settings: the pixel search's fields and the
    grid-sample target size, with fewer, coarser bins and a smaller shift
    radius by default."""

    n_bins: int = 20
    top_k: int = 4
    shift_c: int = 1
    target_w: int = 50
    target_h: int = 50

    def __post_init__(self) -> None:
        super().__post_init__()
        check_int("scale search target_w", self.target_w, 2)
        check_int("scale search target_h", self.target_h, 2)


@dataclass
class SimilarityProfile:
    """Per-bin scores before fusion; lower is better for 'mse' semantics,
    higher for 'logit'.

    ``exact`` marks True each bin whose entry is its exact score: every
    bin of the feature search.  The pixel search finishes exactly only the
    bins that can still reach its top-k; it marks the others False, and
    their entries are proven lower bounds on their best MSE, each with the
    shift of its smallest partial sum over a sample subset (the bound
    pass and its rounding margin are derived in ``_pixel_mse_bounds``).
    Every bound is strictly above the top_k-th exact MSE, so the top-k,
    the minimum and the fused estimate are those of the full profile.
    """

    scores: np.ndarray  # (n_bins,)
    semantics: str  # "mse" | "logit"
    best_shift: np.ndarray  # (n_bins, 2) int offsets (dx, dy)
    exact: np.ndarray  # (n_bins,) bool


@dataclass
class TtcEstimate:
    alpha_hat: float  # at the evaluation frame gap
    alpha_hat_10hz: float
    tau_hat: float
    profile: SimilarityProfile | None
    estimator: str
    low_confidence: bool = False


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
        tau = ttc_from_scale_ratio(alpha, 1.0 / effective_fps)
        return scale_ratio_from_ttc(tau, 0.1)


def _finish(
    alpha_hat: float,
    cfg: ScaleSearchConfig,
    fps: float,
    gap: int,
    profile: SimilarityProfile | None,
    estimator: str,
    low_confidence: bool,
) -> TtcEstimate:
    """Clamp alpha into the search range and convert it to TTC at the
    target frame, the frame the ``synth`` and ``annotate`` labels measure
    (alpha_10 = tau / (tau + 0.1)), and to its 10 Hz equivalent."""
    alpha_hat = float(min(max(alpha_hat, cfg.alpha_min), cfg.alpha_max))
    tau_hat = ttc_from_scale_ratio(alpha_hat, gap / fps)
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
    """The channel mean of an (H, W, C) raster in float64, equal to
    ``mean(axis=2)`` bit for bit; any other shape is a ``DomainError``.

    The channels are added in order into one float64 copy of the first,
    then divided by their count: the sum and division ``mean`` makes for
    fewer than eight channels (an RGB frame has three), without a float64
    copy of every channel.
    """
    img = np.asarray(image)
    if img.ndim != 3:
        raise DomainError(f"a frame raster must be (H, W, C), got shape {img.shape}")
    gray = img[..., 0].astype(np.float64)
    for channel in range(1, img.shape[2]):
        gray += img[..., channel]
    gray /= img.shape[2]
    return gray


def _flat(scores: np.ndarray) -> bool:
    return float(scores.max() - scores.min()) <= _FLAT_PROFILE_TOL * max(
        1.0, float(np.abs(scores).max())
    )


# ---------------------------------------------------------------------------
# detection baseline


def detection_ratio_estimate(seq: Sequence, cfg: ScaleSearchConfig) -> TtcEstimate:
    """Scale ratio straight from detection-box areas.

    ``sqrt(area_ref / area_target)`` is a linear scale ratio like the
    other estimators'; the raw area ratio is its square, not comparable
    with them.
    """
    gap = cfg.frame_gap
    ref, tgt = _estimate_pair(seq, gap)
    if ref.box.area <= 0 or tgt.box.area <= 0:
        raise DomainError("zero-area box")
    alpha = math.sqrt(ref.box.area / tgt.box.area)
    return _finish(alpha, cfg, seq.fps, gap, None, "detection", False)


# ---------------------------------------------------------------------------
# pixel-space MSE search


def _bin_positions(
    positions, center: tuple[float, float], b1: BoundingBox, cfg: ScaleSearchConfig,
    out_w: int, out_h: int,
) -> tuple[np.ndarray, np.ndarray]:
    """1-D sampling coordinates of every bin's candidate box, unshifted.

    ``positions`` is ``crop_positions`` or ``grid_positions``; returns
    (ys (n_bins, out_h), xs (n_bins, out_w)).  Every bin is placed in one
    call: ``positions`` reads the candidate boxes' corners and sides as
    (n_bins, 1) columns, each computed with the float operations of a
    ``BoundingBox(center, alpha * b1.w, alpha * b1.h)`` and its
    ``x0``/``y0``, so each coordinate equals the one-box-at-a-time one
    (``tests/feature_reference.scaled_candidate_boxes``) bit for bit.
    """
    alphas = cfg.bins()[:, None]
    with np.errstate(over="ignore"):
        w, h = alphas * b1.w, alphas * b1.h
    if not (np.isfinite(w).all() and np.isfinite(h).all()):
        raise DomainError(f"candidate boxes of {b1.w}x{b1.h} scaled up to "
                          f"{cfg.alpha_max} must have finite sides")
    boxes = SimpleNamespace(x0=center[0] - w / 2.0, y0=center[1] - h / 2.0, w=w, h=h)
    return positions(boxes, out_w, out_h)


def _shift_lattice(coords: np.ndarray, c: int) -> np.ndarray:
    """Each lattice's 1-D coordinates shifted by every integer in [-c, c].

    ``coords`` is (..., n); the result is (..., (2c+1) * n), the n
    coordinates shifted by -c, then by -c + 1, and so on: the rows (or
    columns) of one augmented lattice that tiles every shifted copy.
    """
    side = np.arange(-c, c + 1, dtype=np.float64)
    shifted = side[:, None] + coords[..., None, :]
    return shifted.reshape(coords.shape[:-1] + (-1,))


def _split_halves(n: int, score, pool: Executor | None) -> None:
    """Run ``score(first, stop)`` over [0, n) in two halves at once.

    The calling thread takes ``[0, ceil(n / 2))`` and ``pool``'s one
    worker thread the rest; an empty half is not run.  An error in either
    half reaches the caller, the calling half's first; either way the
    worker's half has finished by the time this returns or raises.
    """
    half = -(-n // 2)
    if pool is None or half == n:  # no worker, or no second half
        if n:
            score(0, n)
        return
    rest = pool.submit(score, half, n)
    try:
        score(0, half)
    finally:
        wait([rest])
    rest.result()


def _shift_sq_sums(ref_gray, tgt_crop, ys, xs, c, pool) -> np.ndarray:
    """Summed squared differences of every (bin, center shift) crop.

    ``ys`` (n, out_h) and ``xs`` (n, out_w) are the unshifted sampling
    coordinates of n bins' candidate crops and ``tgt_crop`` is
    (out_h, out_w).  Returns (n, (2c+1)^2) sums, offsets lexicographic in
    (dx, dy).  Each bin's shifted crops tile one augmented sampling
    lattice, (2c+1) * out_h rows by (2c+1) * out_w columns, whose group
    of rows for one dy holds every dx shift side by side.

    The bins are scored in two halves at once (``_split_halves``), the
    second on ``pool``'s one worker thread.  Each half makes its own
    batched sampler call, which hands its lattices back a block at a time
    in one reused buffer, and writes only its own bins' rows of the
    result.  A lattice of at most ``_ONE_BLOCK_SAMPLES`` samples is asked
    for as one block, so the small crops make few, large numpy calls,
    which the two threads run in
    parallel instead of trading the GIL; the sampler stacks several such
    lattices into one (g, rows, columns) block when they are small, as
    the bound pass's are.  A larger lattice comes back one dy row group
    per block, which bounds the buffers to an (out_h, (2c+1) * out_w)
    slab.  Each block is reduced over its lattice axis, the lattice count
    read from the block's size, so a block of one lattice, with or
    without that axis, is reduced the same way.  Every sample keeps its
    own corners and weights, and each lattice's sum over (row, column) is
    the whole-lattice sum over those axes, added in the same order, so a
    bin's sums depend neither on the blocking or grouping, nor on the
    halves, nor on the other bins scored with it.
    """
    out_h, out_w = tgt_crop.shape
    n_side = 2 * c + 1
    n = len(ys)
    ys, xs = _shift_lattice(ys, c), _shift_lattice(xs, c)
    groups = n_side if n_side * n_side * out_h * out_w <= _ONE_BLOCK_SAMPLES else 1
    # (bin, dy_idx) by dx_idx; each half writes only its own bins' rows
    per_shift = np.empty((n * n_side, n_side))
    # the target once per dx shift and dy group, tiled like a block's
    # crops: a same-shape subtraction, faster than broadcasting tgt_crop
    target = np.tile(tgt_crop, (groups, n_side))

    def score(first: int, stop: int) -> None:
        blocks = lattice_row_blocks(ref_gray, ys[first:stop], xs[first:stop], n_side // groups)
        rows = per_shift[first * n_side : stop * n_side].reshape(-1, groups, n_side)
        first_row = 0
        for block in blocks:
            # squared differences in place in the block buffer
            np.subtract(block, target, out=block)
            np.multiply(block, block, out=block)
            # one block holds one dy row group, or one or more whole lattices
            sums = block.reshape(-1, groups, out_h, n_side, out_w).sum(axis=(2, 4))
            rows[first_row : first_row + len(sums)] = sums
            first_row += len(sums)

    _split_halves(n, score, pool)
    # lexicographic (dx, dy) within each bin
    return per_shift.reshape(n, n_side, n_side).transpose(0, 2, 1).reshape(n, -1)


def _pixel_mse_bounds(ref_gray, tgt_crop, positions, cfg, pool):
    """A proven lower bound on every bin's best MSE, and the shift giving it.

    ``positions`` is every bin's ``_bin_positions``.  The bound pass
    samples each bin's shifted candidates only at every
    ``_BOUND_STRIDE``-th row and column of the target crop, through the
    same scorer, and keeps each bin's smallest partial sum over its
    shifts.  The m sampled squared differences of a shift are, bit for
    bit, m of the n = out_h * out_w terms that the exact pass sums for it
    (each sample keeps its own corners and weights), and every term is
    >= 0, so the exact partial sum P is at most the exact full sum S.
    Rounding is what needs the margin.  Summed in any order, n
    nonnegative terms round to within a factor (1 +- gamma_n) of their
    exact sum, gamma_n = n u / (1 - n u) with u = 2^-53, so the exact
    pass's MSE is at least S / n * (1 - gamma_n) * (1 - u) and the
    rounded P is at most P * (1 + gamma_m), m <= n.  The bound
    fl(fl(P / n) * (1 - 4 n u)) then stays below the exact pass's MSE:
    (1 - 4 n u) (1 + u)^2 (1 + gamma_n) <= (1 - gamma_n) (1 - u) for
    2 <= n <= 2^48: to first order it reads -3 n u + 2 u <= -n u - u,
    true for n >= 2 (a crop is at least 2 x 2 samples), and the higher
    terms stay below that slack while n u <= 2^-5 (checked in exact
    rationals for small n and at powers of two up to 2^48).
    """
    out_h, out_w = tgt_crop.shape
    n = out_h * out_w
    s = _BOUND_STRIDE
    ys, xs = positions
    partial = _shift_sq_sums(ref_gray, tgt_crop[::s, ::s], ys[:, ::s], xs[:, ::s], cfg.shift_c, pool)
    shift_idx = np.argmin(partial, axis=1)
    bounds = partial[np.arange(cfg.n_bins), shift_idx] / n
    # 4 n u is a multiple of 2^-53 below 1, so 1 - 4 n u is exact
    bounds *= 1.0 - 4 * n * _UNIT_ROUNDOFF
    return bounds, shift_idx


def _proven_not_flat(scores: np.ndarray, exact: np.ndarray) -> bool:
    """Whether a profile of exact MSEs and lower bounds is surely not flat.

    The exact entries hold the profile's true minimum (every bound is
    above an exact score) and every entry is at most the true maximum M.
    ``_flat`` would call the true profile flat when fl(M - min) <=
    tol * max(1, M); a spread of more than twice the tolerance at the
    largest known entry rules that out for every M at or above it.
    """
    hi = float(scores.max())
    return float(hi - scores[exact].min()) > 2.0 * _FLAT_PROFILE_TOL * max(1.0, hi)


def _pruned_pixel_search(ref_gray, tgt_crop, center, b1, cfg, pool):
    """Best MSE per bin, exact for every bin that can reach the top-k.

    Returns (scores, shift_idx, exact).  Every bin's sampling positions
    are computed once, for both passes.  A bound pass gives every bin a
    lower bound on its best MSE (``_pixel_mse_bounds``).  The exact pass
    scores the ``top_k`` (rounded up to even, so both threads work) bins
    of lowest bound with ``_shift_sq_sums``, then, in one more call,
    every other bin whose bound is at most the top_k-th exact MSE so far;
    that threshold only falls, so each bin left has a bound strictly
    above the final top_k-th exact MSE, and so has its true best MSE: it
    cannot enter a stable top-k, nor be the minimum.  Such a bin keeps
    its bound and the shift of its smallest partial sum, and is marked
    False in ``exact``.  When the bounds cannot prove that the profile is
    not flat, every bin is scored exactly, so ``_flat`` sees true MSEs.
    """
    out_h, out_w = tgt_crop.shape
    ys, xs = _bin_positions(crop_positions, center, b1, cfg, out_w, out_h)
    bounds, shift_idx = _pixel_mse_bounds(ref_gray, tgt_crop, (ys, xs), cfg, pool)
    scores = bounds.copy()
    exact = np.zeros(cfg.n_bins, dtype=bool)

    def finish(bins: np.ndarray) -> None:
        bins = np.sort(bins)
        mses = _shift_sq_sums(ref_gray, tgt_crop, ys[bins], xs[bins], cfg.shift_c, pool)
        # np.mean is the sum over the count
        mses /= out_h * out_w
        best_idx = np.argmin(mses, axis=1)
        scores[bins] = mses[np.arange(len(bins)), best_idx]
        shift_idx[bins] = best_idx
        exact[bins] = True

    order = np.argsort(bounds, kind="stable")
    first = min(cfg.n_bins, cfg.top_k + cfg.top_k % 2)
    finish(order[:first])
    threshold = np.partition(scores[exact], cfg.top_k - 1)[cfg.top_k - 1]
    rest = order[first:]
    rest = rest[bounds[rest] <= threshold]
    if rest.size:
        finish(rest)
    if not exact.all() and not _proven_not_flat(scores, exact):
        finish(np.flatnonzero(~exact))
    return scores, shift_idx, exact


def pixel_mse_estimate(seq: Sequence, cfg: ScaleSearchConfig, pool=None) -> TtcEstimate:
    """Scale search by pixel MSE, top-k reciprocal-MSE fusion.

    The crop target size follows the (expanded) target box.  Degenerate
    flat profiles (e.g. constant frames) still produce an estimate but
    carry ``low_confidence``.
    """
    gap = cfg.frame_gap
    ref, tgt = _estimate_pair(seq, gap)
    # the search holds only the reference gray and the target crop, not
    # the decoded frames
    ref_gray = _gray(ref.load_image())
    tgt_gray = _gray(tgt.load_image())
    h, w = tgt_gray.shape
    b1 = expand_box(tgt.box, cfg.expand_cap, (w, h))
    out_w = max(2, int(round(b1.w)))
    out_h = max(2, int(round(b1.h)))
    tgt_crop = crop_resize(tgt_gray, b1, out_w, out_h)
    del tgt_gray
    best, shift_idx, exact = _pruned_pixel_search(
        ref_gray, tgt_crop, (ref.box.cx, ref.box.cy), b1, cfg, pool
    )
    profile = SimilarityProfile(
        scores=best,
        semantics="mse",
        best_shift=shift_offsets(cfg.shift_c)[shift_idx],
        exact=exact,
    )
    # the stable top-k are exact bins: every bound is above the k-th exact MSE
    order = np.argsort(best, kind="stable")[: cfg.top_k]
    weights = 1.0 / (best[order] + _MSE_EPS)
    alpha = float(np.sum(weights * cfg.bins()[order]) / np.sum(weights))
    # with a bound left, _pruned_pixel_search proved the profile not flat
    flat = bool(exact.all()) and _flat(best)
    return _finish(alpha, cfg, seq.fps, gap, profile, "pixel_mse", flat)


# ---------------------------------------------------------------------------
# feature-space scale classification


def candidate_patches_by_bin(
    fmap0: np.ndarray,
    center: tuple[float, float],
    b1: BoundingBox,
    cfg: FeatureSearchConfig,
    bins: slice,
) -> Iterator[Iterator[np.ndarray]]:
    """Every (scale bin, center shift) candidate patch of the reference
    feature map in ``bins``, one scale bin at a time, in bin order.

    Each bin comes as an iterator over its 2c+1 dy row groups, in dy
    order, which the caller must read before the next bin.  Group dy is
    an (out_h, 2c+1, out_w, C) view whose [:, dx] is the patch of shift
    (dx, dy), equal bit for bit to that slice of one bilinear sample of
    all the bins' shifted grids at once (the tests keep that whole-stack
    reference).  A bin's shifted patches tile one augmented lattice,
    (2c+1) * out_h rows by (2c+1) * out_w columns; each group is one row
    block of it, sampled only when asked for, in the sampler's one block
    buffer, which the next group overwrites.
    """
    c = cfg.shift_c
    n_side = 2 * c + 1
    h, w = cfg.target_h, cfg.target_w
    ys, xs = _bin_positions(grid_positions, center, b1, cfg, w, h)
    ys, xs = _shift_lattice(ys[bins], c), _shift_lattice(xs[bins], c)
    # a block is one dy row group of one bin, or at shift radius 0 one or
    # more whole bins
    dy_groups = (
        rows.reshape((h, n_side, w) + fmap0.shape[2:])
        for block in lattice_row_blocks(fmap0, ys, xs, n_side)
        for rows in block.reshape((-1, h, n_side * w) + fmap0.shape[2:])
    )
    for _ in range(len(ys)):
        yield islice(dy_groups, n_side)


def _roi_bounds(center, b1: BoundingBox, cfg: ScaleSearchConfig, shape: tuple[int, int]):
    """(x0, y0, x1, y1) of the pixels the feature search can read.

    Every candidate box, shifted by up to ``shift_c``, and the target box,
    with ``_ROI_MARGIN`` pixels on each side, clipped to the image.  A
    search that lies wholly off the image keeps the margin's width of
    image next to it, where every position is clamped to the image's edge.
    """
    h, w = shape
    half_w = cfg.alpha_max * b1.w / 2.0 + cfg.shift_c
    half_h = cfg.alpha_max * b1.h / 2.0 + cfg.shift_c
    x_lo = min(center[0] - half_w, b1.x0) - _ROI_MARGIN
    x_hi = max(center[0] + half_w, b1.x1) + _ROI_MARGIN
    y_lo = min(center[1] - half_h, b1.y0) - _ROI_MARGIN
    y_hi = max(center[1] + half_h, b1.y1) + _ROI_MARGIN
    x0 = max(0, min(int(np.floor(x_lo)), w - _ROI_MARGIN))
    y0 = max(0, min(int(np.floor(y_lo)), h - _ROI_MARGIN))
    x1 = min(w, max(int(np.ceil(x_hi)) + 1, _ROI_MARGIN))
    y1 = min(h, max(int(np.ceil(y_hi)) + 1, _ROI_MARGIN))
    return x0, y0, x1, y1


def pair_features(
    seq: Sequence, cfg: FeatureSearchConfig
) -> tuple[np.ndarray, np.ndarray, tuple[float, float], BoundingBox]:
    """The feature search's inputs for the frame pair at ``cfg.frame_gap``.

    Returns (f0, f1, center, box): the reference and target frames'
    ``hand_crafted_features`` over the region of interest
    (``_roi_bounds``), promoted once to float64, the only dtype the
    sampler reads, and the reference box center and the expanded target
    box in that region's coordinates.  Inside the margin the
    region's features are the whole frame's, so its scores equal the
    whole frame's up to the rounding of ``box_mean``'s running sum, which
    starts at the region's edge.  Errors come in the order of a serial
    read: the target frame's, then the pair's checks, then the reference
    frame's.
    """
    tgt_img = seq.frames[-1].load_image()
    ref, tgt = _estimate_pair(seq, cfg.frame_gap)
    ref_img = ref.load_image()
    h, w = tgt_img.shape[:2]
    b1 = expand_box(tgt.box, cfg.expand_cap, (w, h))
    x0, y0, x1, y1 = _roi_bounds((ref.box.cx, ref.box.cy), b1, cfg, (h, w))
    f0 = hand_crafted_features(ref_img[y0:y1, x0:x1]).astype(np.float64)
    f1 = hand_crafted_features(tgt_img[y0:y1, x0:x1]).astype(np.float64)
    center = (ref.box.cx - x0, ref.box.cy - y0)
    return f0, f1, center, BoundingBox(b1.cx - x0, b1.cy - y0, b1.w, b1.h)


def pooled_cosine_scores(f0, f1, center, box, cfg: FeatureSearchConfig, draws, pool) -> np.ndarray:
    """Pooled cosine scores of every (gain, bias) draw, (n_draws, n_bins, n_off).

    The one feature-scoring routine: ``feature_scale_estimate`` scores its
    pair at ``IDENTITY_DRAW``, as training scores a val pair, and training
    scores each train pair at every draw its schedule gives it.  A score
    is the mean over the target grid's P positions of each candidate
    patch's cosine similarity with the target patch, each position's
    denominator clamped at ``COSINE_EPS``.

    Photometric augmentation is affine in feature space
    (F' = g*F + b*mask), grid sampling is linear, and the cosine's inner
    products expand over that affine map:
    <p0', p1'> = g0*g1*<p0, p1> + g0*b1*<p0, mask> + b0*g1*<p1, mask>
    + b0*b1*<mask, mask>, and likewise the norms.  So each bin's
    candidate patches are sampled once, reduced to three (n_off, P)
    inner-product maps, and every draw is scored from those.

    Evaluates, operation for operation, ``num / max(sqrt(n0 * n1), eps)``
    with num = g0*g1*dot01 + g0*b1*dot0m + b0*g1*dot1m + b0*b1*c and
    n0 = max(g0*g0*norm0 + 2*g0*b0*dot0m + b0*b0*c, 0), so the scores are
    bit-identical to that expression.  The bins are scored in two halves
    at once (``_split_halves``), the second on ``pool``'s one worker.
    Each half samples its bins one at a time, one dy row group at a time
    (``candidate_patches_by_bin``), and reduces each group as it comes
    into that dy's column of the bin's three (dx, dy, out_h, out_w) maps,
    which read as (n_off, P) in (dx, dy) order, so a thread holds no
    bin's patches.  It scores the draws ``_DRAW_BATCH`` at a time, in
    place in three (k, n_off, P) buffers, each draw's scalars a (k, 1, 1)
    column.  The mean over P is np.mean's own sum per (draw, bin) and one
    true divide of the whole array.
    """
    mask = intensity_mask()
    c = float(mask @ mask)
    p1_grid = grid_sample_features(f1, box, cfg.target_w, cfg.target_h)
    p1 = p1_grid.reshape(-1, p1_grid.shape[-1])
    dot1m = p1 @ mask
    norm1 = np.einsum("pc,pc->p", p1, p1)
    # each draw's scalars as (n_draws, 1, 1) columns
    g0, b0, g1, b1 = np.array(draws, dtype=np.float64).T[:, :, None, None]
    bias1 = b0 * g1 * dot1m
    # flat patches are exactly proportional to the mask, so the quadratic
    # can cancel to ~0; clamp against rounding residue before the sqrt
    n1 = np.maximum(g1 * g1 * norm1 + 2.0 * g1 * b1 * dot1m + b1 * b1 * c, 0.0)
    g0g1, g0b1, b0b1c = g0 * g1, g0 * b1, b0 * b1 * c
    g0g0, g0b0x2, b0b0c = g0 * g0, 2.0 * g0 * b0, b0 * b0 * c
    n_side = 2 * cfg.shift_c + 1
    n_draws, n_off = len(draws), n_side * n_side
    scores = np.empty((n_draws, cfg.n_bins, n_off))

    def score(first: int, stop: int) -> None:
        num, term, denom = (np.empty((min(_DRAW_BATCH, n_draws), n_off, len(p1)))
                            for _ in range(3))
        maps = np.empty((3, n_side, n_side, cfg.target_h, cfg.target_w))
        dot01, dot0m, norm0 = maps.reshape(3, n_off, len(p1))
        bins = candidate_patches_by_bin(f0, center, box, cfg, slice(first, stop))
        for i, dy_groups in enumerate(bins, first):
            for dy, rows in enumerate(dy_groups):
                np.einsum("hxwc,hwc->xhw", rows, p1_grid, out=maps[0, :, dy])
                np.matmul(rows, mask, out=maps[1, :, dy].swapaxes(0, 1))
                np.einsum("hxwc,hxwc->xhw", rows, rows, out=maps[2, :, dy])
            for d in range(0, n_draws, _DRAW_BATCH):
                k = slice(d, min(d + _DRAW_BATCH, n_draws))
                nm, tm, dn = num[: k.stop - d], term[: k.stop - d], denom[: k.stop - d]
                np.multiply(g0g1[k], dot01, out=nm)
                np.multiply(g0b1[k], dot0m, out=tm)
                nm += tm
                nm += bias1[k]
                nm += b0b1c[k]
                np.multiply(g0g0[k], norm0, out=dn)
                np.multiply(g0b0x2[k], dot0m, out=tm)
                dn += tm
                dn += b0b0c[k]
                np.maximum(dn, 0.0, out=dn)
                dn *= n1[k]
                np.sqrt(dn, out=dn)
                np.maximum(dn, COSINE_EPS, out=dn)
                nm /= dn
                np.add.reduce(nm, axis=2, out=scores[k, i])

    _split_halves(cfg.n_bins, score, pool)
    scores /= len(p1)
    return scores


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


def feature_scale_estimate(
    seq: Sequence,
    cfg: FeatureSearchConfig,
    fc_weight: np.ndarray | None = None,
    fc_bias: np.ndarray | None = None,
    pool=None,
) -> TtcEstimate:
    """Feature-space scale classification with a per-bin linear head.

    Features are ``hand_crafted_features`` of the pair's region of
    interest (``pair_features``), scored at ``IDENTITY_DRAW`` by
    ``pooled_cosine_scores``, exactly as training scores a val pair, half
    of the bins on ``pool``'s one worker, if given.  With no trained head
    the identity head is used: logits are the pooled cosine scores themselves.
    """
    if fc_weight is None or fc_bias is None:
        fc_weight, fc_bias = identity_head(cfg.n_bins)
    fc_weight = np.asarray(fc_weight, dtype=np.float64)
    fc_bias = np.asarray(fc_bias, dtype=np.float64)

    f0, f1, center, box = pair_features(seq, cfg)
    scores = pooled_cosine_scores(f0, f1, center, box, cfg, [IDENTITY_DRAW], pool)[0]
    logits, best_idx = head_logits(scores, fc_weight, fc_bias)
    profile = SimilarityProfile(
        scores=logits, semantics="logit", best_shift=shift_offsets(cfg.shift_c)[best_idx],
        exact=np.ones(cfg.n_bins, dtype=bool),
    )
    return _finish(fuse_logits(logits, cfg), cfg, seq.fps, cfg.frame_gap, profile,
                   "feature_scale", _flat(logits))


# ---------------------------------------------------------------------------
# estimator registry

ESTIMATOR_NAMES = ("detection", "pixel_mse", "feature_scale")


def make_estimator(name: str, cfg: ScaleSearchConfig, head=None, pool=None):
    """Build a ``seq -> TtcEstimate`` callable by estimator name.

    ``head`` is feature_scale's (fc_weight, fc_bias), as ``learn.load_head``
    reads it; with none, the identity head runs.
    """
    if name == "detection":
        return lambda seq: detection_ratio_estimate(seq, cfg)
    if name == "pixel_mse":
        return lambda seq: pixel_mse_estimate(seq, cfg, pool)
    if name == "feature_scale":
        fc_w, fc_b = (None, None) if head is None else head
        return lambda seq: feature_scale_estimate(seq, cfg, fc_w, fc_b, pool)
    raise DomainError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
