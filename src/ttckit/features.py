"""Feature extractors for the feature-space scale estimator.

Two options share one contract (same spatial size out as in):

* :class:`HandCraftedExtractor` -- 12 fixed channels: per-RGB intensity,
  horizontal/vertical gradients, and local contrast; the estimator's and
  the trainer's only features.  It is affine in illumination:
  features(g*I + b) == g*features(I) + b*intensity_mask, which the
  trainer exploits for cheap photometric augmentation.
* :class:`ConvStackExtractor` -- a small trainable stack (stride-2 conv,
  stride-2 transposed conv, two stride-1 convs; 7x7 kernels except the
  3x3 transposed one) with explicit forward/backward, for the gradient
  checks only: no command trains, writes or loads it.
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


class HandCraftedExtractor:
    """Fixed 12-channel extractor; no trainable parameters."""

    trainable = False

    def __call__(self, image: np.ndarray) -> np.ndarray:
        return hand_crafted_features(image)

    @staticmethod
    def intensity_mask() -> np.ndarray:
        """Channel indicator vector for the additive-bias part of features."""
        mask = np.zeros(12, dtype=np.float64)
        mask[:3] = 1.0
        return mask


# ---------------------------------------------------------------------------
# trainable conv stack


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """(H, W, C) -> (Ho*Wo, k*k*C) patch matrix plus output dims."""
    h, w, c = x.shape
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(ho, wo, k, k, c),
        strides=(s0 * stride, s1 * stride, s0, s1, s2),
        writeable=False,
    )
    return windows.reshape(ho * wo, k * k * c), ho, wo


def _col2im(cols: np.ndarray, x_shape, k: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add patch gradients back to the input."""
    h, w, c = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    out = np.zeros((hp, wp, c))
    cols = cols.reshape(ho, wo, k, k, c)
    for di in range(k):
        for dj in range(k):
            out[di : di + ho * stride : stride, dj : dj + wo * stride : stride] += cols[
                :, :, di, dj
            ]
    return out[pad : pad + h, pad : pad + w]


def _dilate(x: np.ndarray, stride: int, extra: int) -> np.ndarray:
    """Insert stride-1 zeros between pixels plus `extra` zero rows/cols."""
    h, w, c = x.shape
    out = np.zeros(((h - 1) * stride + 1 + extra, (w - 1) * stride + 1 + extra, c))
    out[:: stride, :: stride][:h, :w] = x
    return out


def _undilate(x: np.ndarray, stride: int, orig_h: int, orig_w: int) -> np.ndarray:
    return x[:: stride, :: stride][:orig_h, :orig_w]


class _Conv:
    """Plain 2-D convolution layer with tanh-friendly explicit backward."""

    def __init__(self, name, c_in, c_out, k, stride, rng):
        self.name = name
        self.k, self.stride, self.pad = k, stride, k // 2
        scale = 1.0 / np.sqrt(k * k * c_in)
        self.weight = rng.normal(0.0, scale, size=(k * k * c_in, c_out))
        self.bias = np.zeros(c_out)
        self.c_in, self.c_out = c_in, c_out

    def forward(self, x):
        cols, ho, wo = _im2col(x, self.k, self.stride, self.pad)
        y = (cols @ self.weight + self.bias).reshape(ho, wo, self.c_out)
        return y, (x.shape, cols)

    def backward(self, dy, cache):
        x_shape, cols = cache
        dy2 = dy.reshape(-1, self.c_out)
        d_weight = cols.T @ dy2
        d_bias = dy2.sum(axis=0)
        dcols = dy2 @ self.weight.T
        dx = _col2im(dcols, x_shape, self.k, self.stride, self.pad)
        return dx, d_weight, d_bias


class _ConvTranspose:
    """Stride-2 transposed convolution implemented as conv over a dilated input."""

    def __init__(self, name, c_in, c_out, k, stride, rng):
        self.name = name
        self.k, self.stride = k, stride
        self.pad = (k - 1) // 2
        scale = 1.0 / np.sqrt(k * k * c_in)
        self.weight = rng.normal(0.0, scale, size=(k * k * c_in, c_out))
        self.bias = np.zeros(c_out)
        self.c_in, self.c_out = c_in, c_out

    def forward(self, x):
        xd = _dilate(x, self.stride, extra=self.stride - 1)
        cols, ho, wo = _im2col(xd, self.k, 1, self.pad)
        y = (cols @ self.weight + self.bias).reshape(ho, wo, self.c_out)
        return y, (x.shape, xd.shape, cols)

    def backward(self, dy, cache):
        x_shape, xd_shape, cols = cache
        dy2 = dy.reshape(-1, self.c_out)
        d_weight = cols.T @ dy2
        d_bias = dy2.sum(axis=0)
        dcols = dy2 @ self.weight.T
        dxd = _col2im(dcols, xd_shape, self.k, 1, self.pad)
        dx = _undilate(dxd, self.stride, x_shape[0], x_shape[1])
        return dx, d_weight, d_bias


class ConvStackExtractor:
    """Tiny trainable extractor over the 12 hand-crafted input channels.

    Layout: conv 7x7/s2 -> tanh -> tconv 3x3/s2 -> tanh -> conv 7x7/s1
    -> tanh -> conv 7x7/s1.  The down/up pair cancels, so the output map
    has the input's spatial size (even dims required).
    """

    trainable = True

    def __init__(self, mid_channels: int = 4, out_channels: int = 4, seed: int = 0,
                 kernel: int = 7):
        rng = np.random.Generator(np.random.PCG64(seed))
        c = mid_channels
        self.layers = [
            _Conv("conv1", 12, c, kernel, 2, rng),
            _ConvTranspose("up", c, c, 3, 2, rng),
            _Conv("conv2", c, c, kernel, 1, rng),
            _Conv("conv3", c, out_channels, kernel, 1, rng),
        ]

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            out[f"{layer.name}.weight"] = layer.weight
            out[f"{layer.name}.bias"] = layer.bias
        return out

    def forward_with_cache(self, image: np.ndarray):
        x = hand_crafted_features(image).astype(np.float64)
        if x.shape[0] % 2 or x.shape[1] % 2:
            raise DomainError(f"conv stack needs even image dims, got {x.shape[:2]}")
        caches = []
        for i, layer in enumerate(self.layers):
            x, cache = layer.forward(x)
            if i < len(self.layers) - 1:
                act = np.tanh(x)
                caches.append((cache, act))
                x = act
            else:
                caches.append((cache, None))
        return x, caches

    def backward(self, d_out: np.ndarray, caches) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        dx = d_out
        for i in range(len(self.layers) - 1, -1, -1):
            cache, act = caches[i]
            if act is not None:
                dx = dx * (1.0 - act * act)
            dx, dw, db = self.layers[i].backward(dx, cache)
            grads[f"{self.layers[i].name}.weight"] = dw
            grads[f"{self.layers[i].name}.bias"] = db
        return grads

    def __call__(self, image: np.ndarray) -> np.ndarray:
        fmap, _ = self.forward_with_cache(image)
        return fmap.astype(np.float32)
