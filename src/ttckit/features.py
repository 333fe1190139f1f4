"""Hand-crafted features for the feature-space scale estimator.

:func:`hand_crafted_features` maps an image to 12 fixed channels of the
same spatial size: per-RGB intensity, horizontal/vertical gradients, and
local contrast, the distance of each pixel from its 5x5 :func:`box_mean`;
the estimator's and the trainer's only features.  They are affine in
illumination: features(g*I + b) == g*features(I) + b*intensity_mask(),
which the trainer exploits for cheap photometric augmentation.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_CONTRAST_WINDOW = 5


def box_mean(a: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Mean of the ``sizes`` box around each element, edge samples repeated.

    Returns a new float64 array, bit for bit ndimage's nearest-edge uniform
    filter of float64 input (the tests compare the two where that library
    is installed).  Each axis whose size is above 1 is averaged in turn, in
    axis order, each pass's float64 result feeding the next.  Along a line
    x with ``half = size // 2`` and indices clamped to the line, the running
    sum S starts as the first window, x[-half .. size - half - 1], added in
    order to 0.0; step l adds ``x[l + size - half - 1] - x[l - half - 1]``;
    output l is ``S_l / size``.  The sum must stay sequential: a window
    summed pairwise rounds differently.
    """
    out = np.asarray(a, dtype=np.float64)
    if len(sizes) != out.ndim:
        raise DomainError(f"need one box size per axis of {out.shape}, got {sizes}")
    for axis, size in enumerate(sizes):
        if size > 1:
            out = _box_mean_axis(out, axis, int(size))
    return out.copy() if out is a else out


def _box_mean_axis(x: np.ndarray, axis: int, size: int) -> np.ndarray:
    n = x.shape[axis]
    half = size // 2
    sums = np.empty(x.shape)
    # lines run along axis 0 of these views
    xv, sv = np.moveaxis(x, axis, 0), np.moveaxis(sums, axis, 0)

    def line(i: int) -> np.ndarray:
        i = min(max(i, 0), n - 1)
        return xv[i : i + 1]

    np.add(line(-half), 0.0, out=sv[:1])
    for j in range(1, size):
        sv[:1] += line(j - half)
    # steps whose entering and leaving samples both lie inside the line
    lo, hi = half + 1, n - size + half + 1
    if lo < hi:
        np.subtract(xv[size:], xv[: n - size], out=sv[lo:hi])
    for step in (*range(1, min(lo, n)), *range(max(lo, hi), n)):
        np.subtract(line(step + size - half - 1), line(step - half - 1), out=sv[step : step + 1])
    # the same sequential sum either way; whole rows of the outermost axis
    # added in place one after another beat numpy's accumulate along it
    if axis == 0 and x.ndim > 1:
        for step in range(1, n):
            sv[step] += sv[step - 1]
    else:
        np.add.accumulate(sums, axis=axis, out=sums)
    sums /= size
    return sums


def hand_crafted_features(image: np.ndarray) -> np.ndarray:
    """(H, W, 3) image in [0, 1] -> (H, W, 12) float32 feature map.

    Channels 0-2 are the intensity, 3-5 its x gradient, 6-8 its y gradient
    and 9-11 its local contrast; each is computed in float64 and rounded
    once, as it is written into the float32 map.  That rounding is part of
    what the features are: every score, trained head and report is made
    from the rounded values.  The sampler reads float64, so the feature
    search promotes the map once per frame pair (``estimate.pair_features``),
    which changes no value.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DomainError(f"expected (H, W, 3) image, got {img.shape}")
    out = np.empty(img.shape[:2] + (12,), np.float32)
    out[..., 0:3] = img
    out[..., 3:6] = np.gradient(img, axis=1)
    out[..., 6:9] = np.gradient(img, axis=0)
    diff = box_mean(img, (_CONTRAST_WINDOW, _CONTRAST_WINDOW, 1))
    np.subtract(img, diff, out=diff)
    np.abs(diff, out=out[..., 9:12])
    return out


def intensity_mask() -> np.ndarray:
    """Channel indicator vector for the additive-bias part of features."""
    mask = np.zeros(12, dtype=np.float64)
    mask[:3] = 1.0
    return mask
