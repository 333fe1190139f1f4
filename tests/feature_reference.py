"""Plain references for the sampler, both scale searches and the head's gradient.

``four_corner_gather`` samples each point from its four corner texels,
the reference ``sampling.bilinear_sample`` must equal bit for bit.  ``full_lattice_pixel_mse`` and ``full_pixel_search`` score
every bin of the pixel search in full, the reference its pruned search
is held to.  ``estimate.pooled_cosine_scores`` samples and scores one
scale bin at a time, in place, on two threads.  These helpers compute the
same scores the plain way: one candidate box per bin, each (bin, shift)
candidate patch in its own bilinear call, the inner products as whole
arrays, and the augmented cosine written out of place.  The tests
require the routine to equal them bit for bit.  ``finite_diff_gradcheck``
compares the head step's analytic gradient with central differences.
"""

from types import SimpleNamespace

import numpy as np

from ttckit.boxes import BoundingBox
from ttckit.estimate import FeatureSearchConfig
from ttckit.features import intensity_mask
from ttckit.learn import head_loss_and_grads
from ttckit.sampling import (
    bilinear_sample,
    crop_positions,
    grid_positions,
    grid_sample_features,
    shift_offsets,
)


def four_corner_gather(image, ys, xs):
    """Bilinear samples of an (H, W) or (H, W, C) array at every point of
    the broadcast ``ys`` and ``xs``, edge-clamped, each from its own four
    corner texels; the output has their broadcast shape (plus the channel
    axis, if any)."""
    h, w = image.shape[:2]
    ys = np.clip(np.asarray(ys, dtype=np.float64), 0.0, h - 1.0)
    xs = np.clip(np.asarray(xs, dtype=np.float64), 0.0, w - 1.0)
    y0, x0 = np.floor(ys).astype(np.intp), np.floor(xs).astype(np.intp)
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    fy, fx = ys - y0, xs - x0
    if image.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top = image[y0, x0] * (1.0 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1.0 - fx) + image[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def scaled_candidate_boxes(
    b0: BoundingBox, b1: BoundingBox, cfg: FeatureSearchConfig
) -> list[BoundingBox]:
    """Candidate boxes: reference center, target dims scaled by each bin."""
    return [
        BoundingBox(b0.cx, b0.cy, float(a) * b1.w, float(a) * b1.h)
        for a in cfg.bins()
    ]


def candidate_grid_patches(fmap0, center, b1, cfg):
    """Every (bin, shift) candidate patch, one bilinear call per lattice,
    (n_bins, n_off, out_h, out_w, C): the whole-stack reference that
    ``candidate_patches_by_bin`` must equal."""
    offsets = shift_offsets(cfg.shift_c).astype(np.float64)
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    grids = [grid_positions(box, cfg.target_w, cfg.target_h)
             for box in scaled_candidate_boxes(center_box, b1, cfg)]
    return np.array([[bilinear_sample(fmap0, (ys + dy)[:, None], (xs + dx)[None, :])
                      for dx, dy in offsets] for ys, xs in grids])


def full_lattice_pixel_mse(ref, tgt_crop, center, b1, cfg):
    """The pixel search over each bin's whole augmented lattice, sampled at once.

    Every (dx, dy) crop of a bin tiles one (2c+1) * out_h by
    (2c+1) * out_w lattice, reduced over its (row, column) axes in one
    mean; (n_bins, (2c+1)^2) MSEs, offsets lexicographic in (dx, dy).  The
    blocked search must equal it bit for bit.
    """
    out_h, out_w = tgt_crop.shape
    c = cfg.shift_c
    side = np.arange(-c, c + 1, dtype=np.float64)
    n_side = 2 * c + 1
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    mses = np.empty((cfg.n_bins, n_side * n_side))
    for i, box in enumerate(scaled_candidate_boxes(center_box, b1, cfg)):
        ys, xs = crop_positions(box, out_w, out_h)
        lattice_x = (side[:, None] + xs[None, :]).reshape(-1)
        lattice_y = (side[:, None] + ys[None, :]).reshape(-1)
        sampled = bilinear_sample(ref, lattice_y[:, None], lattice_x[None, :])
        diff = sampled.reshape(n_side, out_h, n_side, out_w)
        np.subtract(diff, tgt_crop[None, :, None, :], out=diff)
        np.multiply(diff, diff, out=diff)
        mses[i] = np.mean(diff, axis=(1, 3)).T.reshape(-1)
    return mses


def full_pixel_search(ref_gray, tgt_crop, center, b1, cfg, pool):
    """``estimate._pruned_pixel_search`` with nothing pruned: every bin's
    best MSE from ``full_lattice_pixel_mse``, every bin exact."""
    mses = full_lattice_pixel_mse(ref_gray, tgt_crop, center, b1, cfg)
    shift_idx = np.argmin(mses, axis=1)
    return mses[np.arange(cfg.n_bins), shift_idx], shift_idx, np.ones(cfg.n_bins, dtype=bool)


def ingredients(f0, f1, center, box, cfg):
    """Every bin's inner products with the whole-stack patches: <p0, p1>,
    <p0, mask>, <p0, p0> (n_bins, n_off, P), <p1, mask>, <p1, p1> (P,)
    and <mask, mask>."""
    mask = intensity_mask()
    n_off = (2 * cfg.shift_c + 1) ** 2
    p0 = candidate_grid_patches(f0, center, box, cfg).reshape(cfg.n_bins, n_off, -1, 12)
    p1 = grid_sample_features(f1, box, cfg.target_w, cfg.target_h).reshape(-1, 12)
    return SimpleNamespace(
        dot01=np.einsum("bspc,pc->bsp", p0, p1),
        dot0m=p0 @ mask,
        norm0=np.einsum("bspc,bspc->bsp", p0, p0),
        dot1m=p1 @ mask,
        norm1=np.einsum("pc,pc->p", p1, p1),
        mask_sq=float(mask @ mask),
    )


def augmented_scores_out_of_place(prep, draws):
    """The augmented-score expression written out of place, as reference."""
    g0, b0, g1, b1 = draws
    c = prep.mask_sq
    num = (
        g0 * g1 * prep.dot01
        + g0 * b1 * prep.dot0m
        + b0 * g1 * prep.dot1m[None, None, :]
        + b0 * b1 * c
    )
    n0 = np.maximum(g0 * g0 * prep.norm0 + 2.0 * g0 * b0 * prep.dot0m + b0 * b0 * c, 0.0)
    n1 = np.maximum(g1 * g1 * prep.norm1 + 2.0 * g1 * b1 * prep.dot1m + b1 * b1 * c, 0.0)
    denom = np.maximum(np.sqrt(n0 * n1[None, None, :]), 1e-12)
    return (num / denom).mean(axis=2)


def finite_diff_gradcheck(
    scores: np.ndarray,
    fc_weight: np.ndarray,
    fc_bias: np.ndarray,
    labels: np.ndarray,
    epsilon: float = 1e-3,
) -> float:
    """Max relative analytic-vs-central-difference discrepancy of the head step.

    ``scores`` are one pair's (n_bins, n_off) pooled cosine scores, which do
    not depend on the head.  Every entry of copies of ``fc_weight`` and
    ``fc_bias`` is perturbed in place, and the central difference of
    ``head_loss_and_grads``'s loss is compared with its gradient.
    """
    params = {
        "fc.weight": np.array(fc_weight, dtype=np.float64),
        "fc.bias": np.array(fc_bias, dtype=np.float64),
    }

    def loss() -> float:
        return head_loss_and_grads(scores, params["fc.weight"], params["fc.bias"], labels)[0]

    _, grads = head_loss_and_grads(scores, params["fc.weight"], params["fc.bias"], labels)
    # components far below the gradient's own scale are compared against
    # that scale instead of themselves, otherwise the oracle's truncation
    # error on a ~0 component would read as a spurious 100% mismatch
    g_scale = max(
        (float(np.abs(g).max()) for g in grads.values() if g.size), default=0.0
    )
    floor = max(1e-3 * g_scale, 1e-8)
    max_rel = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = loss()
            flat[i] = orig - epsilon
            lo = loss()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * epsilon)
            an = gflat[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), floor)
            max_rel = max(max_rel, rel)
    return max_rel
