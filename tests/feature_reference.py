"""Whole-stack references for the feature search's scores.

``estimate.pooled_cosine_scores`` samples and scores one scale bin at a
time, in place, on two threads.  These helpers compute the same scores
the plain way: every candidate patch in one bilinear call, the inner
products as whole arrays, and the augmented cosine written out of place.
The tests require the routine to equal them bit for bit.
"""

from types import SimpleNamespace

import numpy as np

from ttckit.boxes import BoundingBox
from ttckit.estimate import scaled_candidate_boxes, target_grid_patch
from ttckit.features import intensity_mask
from ttckit.sampling import bilinear_sample, grid_positions, shift_offsets


def candidate_grid_patches(fmap0, center, b1, cfg):
    """Every (bin, shift) candidate patch in one bilinear call,
    (n_bins, n_off, out_h, out_w, C): the whole-stack reference that
    ``candidate_patches_by_bin`` must equal."""
    offsets = shift_offsets(cfg.shift_c).astype(np.float64)
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    grids = [grid_positions(box, cfg.target_w, cfg.target_h)
             for box in scaled_candidate_boxes(center_box, b1, cfg)]
    ys = np.array([y for y, _ in grids])[:, None, :, None] + offsets[None, :, 1, None, None]
    xs = np.array([x for _, x in grids])[:, None, None, :] + offsets[None, :, 0, None, None]
    return bilinear_sample(fmap0, ys, xs)


def ingredients(f0, f1, center, box, cfg):
    """Every bin's inner products with the whole-stack patches: <p0, p1>,
    <p0, mask>, <p0, p0> (n_bins, n_off, P), <p1, mask>, <p1, p1> (P,)
    and <mask, mask>."""
    mask = intensity_mask()
    n_off = (2 * cfg.shift_c + 1) ** 2
    p0 = candidate_grid_patches(f0, center, box, cfg).reshape(cfg.n_bins, n_off, -1, 12)
    p1 = target_grid_patch(f1, box, cfg).reshape(-1, 12)
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
