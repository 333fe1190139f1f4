"""Bilinear sampling primitives shared by the estimators.

Coordinate conventions
----------------------
Arrays are indexed ``[row, col]`` = ``[y, x]``; pixel ``(i, j)`` has its
value at texel coordinate ``(i, j)``, and samples outside
``[0, H-1] x [0, W-1]`` are edge-clamped.

A :class:`~ttckit.boxes.BoundingBox` corner maps directly onto texel
coordinates: ``crop_resize`` places output sample j of a box starting at
x0 at texel ``x0 + j * (w / out_w)`` (so a box covering the whole image
resized to the image size is an identity), while ``grid_sample_features``
is corner-aligned, ``x0 + j * (w - 1) / (out - 1)``, with the first and
last samples pinned to the box edges.

Separable lattices
------------------
Every grid sampled here is separable: its rows depend only on y and its
columns only on x.  ``bilinear_sample`` recognises one from the coordinate
shapes, ``ys`` ``(..., n, 1)`` against ``xs`` ``(..., 1, m)``, and then
interpolates along x over just the strip of image rows the lattice
touches (``strip[:, x0] * (1 - fx) + strip[:, x1] * fx``), gathers whole
interpolated rows and interpolates along y (``rows[y0] * (1 - fy) +
rows[y1] * fy``).  Each sample sees the same four texels, the same
products and the same additions in the same order as in the general
four-corner gather, so the two paths give bit-identical results.  Leading
batch axes loop over the lattices; any other coordinate shape takes the
general gather.

Row blocks
----------
The y pass is row by row, so a lattice can be handed out in pieces.
``lattice_row_blocks`` builds the x-interpolated strip once and yields
the lattice in ``n`` equal blocks of consecutive rows, each computed only
when it is asked for; a caller that reduces each block as it comes never
holds the whole lattice, and a block small enough stays in cache.  The
blocks concatenate to the whole lattice bit for bit, and
``bilinear_sample``'s lattice path is the one-block case.  A float64
image is read in place.  Any other image, such as a float32 feature map,
is promoted one lattice at a time, and only the rows and columns that
lattice touches, into one float64 strip buffer per call; every sample
reads the same texel values, so the promotion does not change a bit.
Each call owns its buffers, so calls on different threads over the same
read-only image do not interfere: the pixel and feature searches each
score two halves of their scale bins at once, each half with its own
call on its own thread (the caller and one worker started for that
search; nothing here starts a thread).  The pixel search asks for one
block per lattice when a lattice has at most 160,000 samples, so each
numpy call is large enough to run in parallel with the other thread's,
and for one block per vertical shift above that, which bounds the
buffers (``estimate._pixel_mse_scores``).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .boxes import BoundingBox
from .errors import DomainError


def _corners(coords: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper texel indices and the weight of the upper one."""
    i0 = np.floor(coords).astype(np.intp)
    return i0, np.minimum(i0 + 1, size - 1), coords - i0


def lattice_row_blocks(
    image: np.ndarray, ys: np.ndarray, xs: np.ndarray, n: int
) -> Iterator[np.ndarray]:
    """Yield the samples at every ``(ys[i], xs[j])`` in ``n`` row blocks.

    ``ys`` and ``xs`` are 1-D texel coordinates of one lattice, or a batch
    of B lattices, ``ys`` of shape ``(B, N)`` with ``xs`` of shape
    ``(B, M)``; they are edge-clamped as in ``bilinear_sample``, and ``n``
    must divide the row count N.  With ``r = N // n``, the blocks come in
    (lattice, block) order, B * n of them, and block k of a lattice holds
    its rows ``k * r`` to ``(k + 1) * r - 1`` as an ``(r, M)`` array (plus
    the channel axis, if any).

    Every block is the same buffer: the caller may overwrite it, but the
    next block overwrites it too, so a block that must outlive the next
    one has to be copied.  The strip, right-term and block buffers are
    allocated once per call, and each lattice's x-interpolated strip of
    image rows is built before its first block.  A float64 image's rows
    are read in place; any other image's are promoted to float64, only
    the columns between the lattice's clamped lowest and highest x
    corners, into a strip buffer sized for the largest such patch.
    """
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if ys.ndim != xs.ndim or ys.ndim not in (1, 2) or ys.shape[:-1] != xs.shape[:-1]:
        raise DomainError(f"lattice coordinates must be 1-D or (B, N) with (B, M), "
                          f"got {ys.shape} and {xs.shape}")
    if ys.ndim == 1:
        ys, xs = ys[None], xs[None]
    n_rows = ys.shape[1]
    if not ys.size:
        raise DomainError(f"no lattice rows to sample, got coordinates {ys.shape}")
    if n < 1 or n_rows % n:
        raise DomainError(f"{n_rows} lattice rows do not split into {n} equal blocks")
    h, w = image.shape[:2]
    # floor and clamp are monotonic, so each lattice's first and last strip
    # rows (columns) are the corners of its lowest and highest y (x)
    lo = _corners(np.clip(ys.min(axis=1), 0.0, h - 1.0), h)[0]
    spans = _corners(np.clip(ys.max(axis=1), 0.0, h - 1.0), h)[1] + 1 - lo
    # the products would promote to float64, so the buffers are float64
    # and only each lattice's strip is promoted, not the whole image
    dtype = np.result_type(image.dtype, np.float64)
    rows_buf, right_buf = (
        np.empty((int(spans.max()), xs.shape[1]) + image.shape[2:], dtype) for _ in range(2)
    )
    promote = image.dtype != dtype
    if promote:
        # one texel per row, so each lattice's strip is a contiguous
        # reshape of its head: np.take would copy a strided one first
        left = _corners(np.clip(xs.min(axis=1), 0.0, w - 1.0), w)[0]
        widths = _corners(np.clip(xs.max(axis=1), 0.0, w - 1.0), w)[1] + 1 - left
        strip_buf = np.empty((int((spans * widths).max()),) + image.shape[2:], dtype)
    step = n_rows // n
    out, bot = (np.empty((step, xs.shape[1]) + image.shape[2:], dtype) for _ in range(2))
    # the indices are already clamped, so "clip" never moves one; unlike
    # the default "raise", it writes straight into out= without a check
    for b, span in enumerate(spans):
        y0, y1, fy = _corners(np.clip(ys[b], 0.0, h - 1.0), h)
        x0, x1, fx = _corners(np.clip(xs[b], 0.0, w - 1.0), w)
        fy = fy.reshape((-1,) + (1,) * (image.ndim - 1))
        fx = fx.reshape((-1,) + (1,) * (image.ndim - 2))
        y0 -= lo[b]
        y1 -= lo[b]
        gy = 1.0 - fy
        if promote:
            x0 -= left[b]
            x1 -= left[b]
            texels = image[lo[b] : lo[b] + span, left[b] : left[b] + widths[b]]
            strip = strip_buf[: span * widths[b]].reshape(texels.shape)
            np.copyto(strip, texels)
        else:
            strip = image[lo[b] : lo[b] + span]
        rows, right = rows_buf[:span], right_buf[:span]
        np.take(strip, x0, axis=1, out=rows, mode="clip")
        np.multiply(rows, 1.0 - fx, out=rows)
        np.take(strip, x1, axis=1, out=right, mode="clip")
        np.multiply(right, fx, out=right)
        np.add(rows, right, out=rows)
        for start in range(0, n_rows, step):
            block = slice(start, start + step)
            np.take(rows, y0[block], axis=0, out=out, mode="clip")
            np.multiply(out, gy[block], out=out)
            np.take(rows, y1[block], axis=0, out=bot, mode="clip")
            np.multiply(bot, fy[block], out=bot)
            np.add(out, bot, out=out)
            yield out


def bilinear_sample(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) array at float texel coords, edge-clamped.

    ``ys`` and ``xs`` must broadcast against each other; the output has
    their broadcast shape (plus the channel axis, if any).  Lattice
    coordinates, ``ys`` of shape ``(..., n, 1)`` and ``xs`` of shape
    ``(..., 1, m)``, take the separable path (see the module docstring).
    """
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    lattice = min(ys.ndim, xs.ndim) >= 2 and ys.shape[-1] == xs.shape[-2] == 1
    if lattice and ys.size and xs.size:
        batch = np.broadcast_shapes(ys.shape[:-2], xs.shape[:-2])
        if not batch:
            return next(lattice_row_blocks(image, ys[:, 0], xs[0], 1))
        n, m = ys.shape[-2], xs.shape[-1]
        ys = np.broadcast_to(ys[..., 0], batch + (n,)).reshape(-1, n)
        xs = np.broadcast_to(xs[..., 0, :], batch + (m,)).reshape(-1, m)
        out = np.empty((len(ys), n, m) + image.shape[2:], np.result_type(image.dtype, np.float64))
        for b, block in enumerate(lattice_row_blocks(image, ys, xs, 1)):
            out[b] = block
        return out.reshape(batch + out.shape[1:])
    h, w = image.shape[:2]
    y0, y1, fy = _corners(np.clip(ys, 0.0, h - 1.0), h)
    x0, x1, fx = _corners(np.clip(xs, 0.0, w - 1.0), w)
    if image.ndim == 3:
        fy = fy[..., None]
        fx = fx[..., None]
    top = image[y0, x0] * (1.0 - fx) + image[y0, x1] * fx
    bot = image[y1, x0] * (1.0 - fx) + image[y1, x1] * fx
    return top * (1.0 - fy) + bot * fy


def crop_positions(
    box: BoundingBox, out_w: int, out_h: int
) -> tuple[np.ndarray, np.ndarray]:
    """1-D texel coordinates of the crop-resize sampling grid."""
    if out_w < 1 or out_h < 1:
        raise DomainError(f"output dims must be positive, got {out_w}x{out_h}")
    xs = box.x0 + np.arange(out_w) * (box.w / out_w)
    ys = box.y0 + np.arange(out_h) * (box.h / out_h)
    return ys, xs


def crop_resize(
    frame: np.ndarray, box: BoundingBox, out_w: int, out_h: int
) -> np.ndarray:
    """Crop an axis-aligned box and resize to (out_h, out_w) bilinearly."""
    ys, xs = crop_positions(box, out_w, out_h)
    return bilinear_sample(frame, ys[:, None], xs[None, :])


def grid_positions(
    box: BoundingBox, out_w: int, out_h: int
) -> tuple[np.ndarray, np.ndarray]:
    """1-D texel coordinates of the corner-aligned feature sampling grid."""
    if out_w < 2 or out_h < 2:
        raise DomainError(f"grid dims must be >= 2, got {out_w}x{out_h}")
    xs = box.x0 + np.arange(out_w) * ((box.w - 1.0) / (out_w - 1))
    ys = box.y0 + np.arange(out_h) * ((box.h - 1.0) / (out_h - 1))
    return ys, xs


def grid_sample_features(
    fmap: np.ndarray, box: BoundingBox, out_w: int = 50, out_h: int = 50
) -> np.ndarray:
    """Resample a feature map at a fixed-size uniform grid spanning a box."""
    ys, xs = grid_positions(box, out_w, out_h)
    return bilinear_sample(fmap, ys[:, None], xs[None, :])


def shift_offsets(c: int) -> np.ndarray:
    """All (dx, dy) integer offsets in [-c, c]^2, lexicographic order."""
    if c < 0:
        raise DomainError(f"shift radius must be >= 0, got {c}")
    side = np.arange(-c, c + 1)
    dx = np.repeat(side, 2 * c + 1)
    dy = np.tile(side, 2 * c + 1)
    return np.stack([dx, dy], axis=1)
