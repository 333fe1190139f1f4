"""Plain references for the feature search's scores and its head's gradient.

``estimate.pooled_cosine_scores`` samples and scores one scale bin at a
time, in place, on two threads.  These helpers compute the same scores
the plain way: one candidate box per bin, each (bin, shift) candidate
patch in its own bilinear call, the inner products as whole arrays, and the augmented
cosine written out of place.  The tests require the routine to equal
them bit for bit.  ``finite_diff_gradcheck`` compares the head step's
analytic gradient with central differences.
"""

from types import SimpleNamespace

import numpy as np

from ttckit.boxes import BoundingBox
from ttckit.estimate import FeatureSearchConfig
from ttckit.features import intensity_mask
from ttckit.learn import head_loss_and_grads
from ttckit.sampling import bilinear_sample, grid_positions, grid_sample_features, shift_offsets


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
