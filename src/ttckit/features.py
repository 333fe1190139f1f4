"""Hand-crafted features for the feature-space scale estimator.

:func:`hand_crafted_features` maps an image to 12 fixed channels of the
same spatial size: per-RGB intensity, horizontal/vertical gradients, and
local contrast; the estimator's and the trainer's only features.  They
are affine in illumination: features(g*I + b) == g*features(I) +
b*intensity_mask(), which the trainer exploits for cheap photometric
augmentation.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import DomainError

_CONTRAST_WINDOW = 5


def hand_crafted_features(image: np.ndarray) -> np.ndarray:
    """(H, W, 3) image in [0, 1] -> (H, W, 12) float32 feature map."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DomainError(f"expected (H, W, 3) image, got {img.shape}")
    gy, gx = np.gradient(img, axis=0), np.gradient(img, axis=1)
    local_mean = uniform_filter(img, size=(_CONTRAST_WINDOW, _CONTRAST_WINDOW, 1), mode="nearest")
    contrast = np.abs(img - local_mean)
    return np.concatenate([img, gx, gy, contrast], axis=2).astype(np.float32)


def intensity_mask() -> np.ndarray:
    """Channel indicator vector for the additive-bias part of features."""
    mask = np.zeros(12, dtype=np.float64)
    mask[:3] = 1.0
    return mask
