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
shapes, ``ys`` ``(n, 1)`` against ``xs`` ``(1, m)``, and then
interpolates along x over just the strip of image rows the lattice
touches (``strip[:, x0] * (1 - fx) + strip[:, x1] * fx``), gathers whole
interpolated rows and interpolates along y (``rows[y0] * (1 - fy) +
rows[y1] * fy``).  Each sample sees the same four texels, the same
products and the same additions in the same order as in the general
four-corner gather, so the two paths give bit-identical results.  Any
other coordinate shape takes the general gather; batches of lattices are
sampled by ``lattice_row_blocks``.

Row blocks
----------
The y pass is row by row, so a lattice can be handed out in pieces.
``lattice_row_blocks`` builds the x-interpolated strip once and yields
the lattice in ``n`` equal blocks of consecutive rows, each computed only
when it is asked for; a caller that reduces each block as it comes never
holds the whole lattice, and a block small enough stays in cache.  The
blocks concatenate to the whole lattice bit for bit, and
``bilinear_sample``'s lattice path is the one-block case.  A batch of
lattices asked in one block each comes back in ``(g, N, M)`` blocks of
g consecutive lattices, as many as fit in ``_GROUP_VALUES`` (40,000)
values: the group shares one strip of image rows, interpolated along x
at all its lattices' columns in one ``np.take``, and the y pass reads
that strip as (strip row, lattice) rows in one more, so small lattices
share each numpy call instead of each paying its fixed cost.  Every
sample keeps its own corners, weights and operation order, so grouping
changes no bit.  The corners and weights of every lattice are computed
once per call, and the strip, block and scratch buffers are allocated
once per call, sized for the largest block: buffers
allocated per group, or for a much larger budget, can be mapped and
faulted in afresh again and again, which costs more than grouping
saves.  The sampler reads float64 images only, in place: the pixel gray
and the render texture are float64, and ``estimate.pair_features``
promotes the float32 feature maps once per frame pair; any other image is
converted whole when the call starts.  Each call owns its buffers, so
calls on different threads over the same read-only image do not
interfere: the pixel and feature searches each score two halves of their
scale bins at once, each half with its own call on its own thread (the
caller and the one worker ``cli.main`` opens per command; nothing here
starts a thread), and ``synth`` renders two windows at once, whose frames
may share a texture.  The renderer asks for each frame's supersampled texture
lattice in blocks of whole output rows, padded to equal blocks, so a
large box never holds its whole lattice (``synth.render_frame``).  The
pixel search asks for one block per lattice when a lattice has at most
160,000 samples, so each numpy call is large enough to run in parallel
with the other thread's, and for one block per vertical shift above
that, which bounds the buffers (``estimate._shift_sq_sums``).

A sample depends only on its own coordinates, so a lattice over a subset
of rows and columns samples, bit for bit, the same values as the full
lattice does at those points.  The pixel search relies on that: its
bound pass samples every bin at every third row and column of the
target crop, and the partial sums of those squared differences, with a
margin of 4 n u for the rounding of an n-term sum (u = 2^-53), bound the
full sums from below, so it finishes exactly only the bins that can
still reach its top-k (``estimate._pixel_mse_bounds``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .boxes import BoundingBox
from .errors import DomainError

# a batch sampled in one block per lattice is stacked into blocks of at
# most this many values (samples times channels), consecutive lattices
# each, so small lattices share each numpy call (lattice_row_blocks)
_GROUP_VALUES = 40_000


def _corners(coords: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper texel indices and the weight of the upper one."""
    i0 = np.floor(coords).astype(np.intp)
    return i0, np.minimum(i0 + 1, size - 1), coords - i0


def lattice_row_blocks(
    image: np.ndarray, ys: np.ndarray, xs: np.ndarray, n: int
) -> Iterator[np.ndarray]:
    """Yield the samples at every ``(ys[i], xs[j])`` in row blocks.

    ``ys`` and ``xs`` are 1-D texel coordinates of one lattice, or a batch
    of B lattices, ``ys`` of shape ``(B, N)`` with ``xs`` of shape
    ``(B, M)``; they are edge-clamped as in ``bilinear_sample``, and ``n``
    must divide the row count N.  One lattice comes in ``n`` blocks: with
    ``r = N // n``, block k holds its rows ``k * r`` to ``(k + 1) * r - 1``
    as an ``(r, M)`` array (plus the channel axis, if any).  So does each
    lattice of a batch, in (lattice, block) order, when ``n > 1``.  A
    batch asked in one block per lattice (``n == 1``) comes in
    ``(g, N, M)`` blocks of g consecutive lattices each: as many as fit in
    ``_GROUP_VALUES`` sampled values, at least one, and fewer in the last
    block if B is not a multiple of g.

    Every block is a view of the same buffer: the caller may overwrite
    it, but the next block overwrites it too, so a block that must outlive
    the next one has to be copied.  The corners and weights of every
    lattice are computed once per call, and the strip, block and scratch
    buffers allocated once, sized for the largest block; the x pass's
    right terms and the y pass's bottom terms share the scratch buffer.
    Each group of lattices (a lone lattice is a group of one) has one
    x-interpolated strip of image rows, the rows between its lowest and
    highest y corners, built before its first block at all its lattices'
    columns at once; the y pass reads it as (strip row, lattice) rows.
    The image is read as float64, in place: every library caller passes
    float64 (``estimate.pair_features`` promotes the feature maps once per
    pair), and any other image is converted whole first.
    """
    image = np.asarray(image, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if ys.ndim != xs.ndim or ys.ndim not in (1, 2) or ys.shape[:-1] != xs.shape[:-1]:
        raise DomainError(f"lattice coordinates must be 1-D or (B, N) with (B, M), "
                          f"got {ys.shape} and {xs.shape}")
    grouped = ys.ndim == 2 and n == 1
    if ys.ndim == 1:
        ys, xs = ys[None], xs[None]
    n_lat, n_rows = ys.shape
    n_cols = xs.shape[1]
    if not ys.size:
        raise DomainError(f"no lattice rows to sample, got coordinates {ys.shape}")
    if n < 1 or n_rows % n:
        raise DomainError(f"{n_rows} lattice rows do not split into {n} equal blocks")
    h, w = image.shape[:2]
    chans = image.shape[2:]
    depth = math.prod(chans)  # values per sample
    y0, y1, fy = _corners(np.clip(ys, 0.0, h - 1.0), h)
    x0, x1, fx = _corners(np.clip(xs, 0.0, w - 1.0), w)
    # the weights as factors of (row, column[, channel]) arrays
    fy = fy.reshape(fy.shape + (1,) * (image.ndim - 1))
    fx = fx.reshape(fx.shape + (1,) * (image.ndim - 2))
    gy, gx = 1.0 - fy, 1.0 - fx
    size = max(1, _GROUP_VALUES // (n_rows * n_cols * depth)) if grouped else 1
    starts = np.arange(0, n_lat, size)
    sizes = np.minimum(size, n_lat - starts)
    # floor and clamp are monotonic, so each group's first and last strip
    # rows are the lowest and highest y corners of its lattices
    lo = np.minimum.reduceat(y0.min(axis=1), starts)
    spans = np.maximum.reduceat(y1.max(axis=1), starts) + 1 - lo
    group = np.repeat(np.arange(len(starts)), sizes)
    # a group's strip holds lattice l's x-interpolated row r at row r * g + l
    # of its (strip rows x lattices, M) view
    pos = (np.arange(n_lat) - starts[group])[:, None]
    for y in (y0, y1):
        y -= lo[group, None]
        y *= sizes[group, None]
        y += pos
    rows_buf = np.empty(int((spans * sizes).max()) * n_cols * depth)
    step = n_rows // n
    out_buf = np.empty(size * step * n_cols * depth)
    # the x pass's right terms and the y pass's bottom terms are never
    # live at once, so they share one buffer
    right_buf = np.empty(max(rows_buf.size, out_buf.size))
    # the indices are already clamped, so "clip" never moves one; unlike
    # the default "raise", it writes straight into out= without a check
    for k, (first, g, span) in enumerate(zip(starts, sizes, spans)):
        lats = slice(first, first + g)
        strip = image[lo[k] : lo[k] + span]
        shape = (span, g * n_cols) + chans
        rows = rows_buf[: span * g * n_cols * depth].reshape(shape)
        right = right_buf[: rows.size].reshape(shape)
        np.take(strip, x0[lats].reshape(-1), axis=1, out=rows, mode="clip")
        np.multiply(rows, gx[lats].reshape((-1,) + gx.shape[2:]), out=rows)
        np.take(strip, x1[lats].reshape(-1), axis=1, out=right, mode="clip")
        np.multiply(right, fx[lats].reshape((-1,) + fx.shape[2:]), out=right)
        np.add(rows, right, out=rows)
        rows = rows.reshape((span * g, n_cols) + chans)
        shape = (g * step, n_cols) + chans
        out = out_buf[: g * step * n_cols * depth].reshape(shape)
        bot = right_buf[: out.size].reshape(shape)
        block_shape = (g, n_rows, n_cols) + chans if grouped else shape
        for start in range(0, n_rows, step):
            block = (lats, slice(start, start + step))
            np.take(rows, y0[block].reshape(-1), axis=0, out=out, mode="clip")
            np.multiply(out, gy[block].reshape((-1,) + gy.shape[2:]), out=out)
            np.take(rows, y1[block].reshape(-1), axis=0, out=bot, mode="clip")
            np.multiply(bot, fy[block].reshape((-1,) + fy.shape[2:]), out=bot)
            np.add(out, bot, out=out)
            yield out.reshape(block_shape)


def bilinear_sample(image: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Sample an (H, W) or (H, W, C) array at float texel coords, edge-clamped.

    ``ys`` and ``xs`` must broadcast against each other; the output has
    their broadcast shape (plus the channel axis, if any).  One lattice,
    ``ys`` of shape ``(n, 1)`` and ``xs`` of shape ``(1, m)``, takes the
    separable path (see the module docstring); any other shape takes the
    four-corner gather.
    """
    ys = np.asarray(ys, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if ys.ndim == xs.ndim == 2 and ys.shape[1] == xs.shape[0] == 1 and ys.size and xs.size:
        return next(lattice_row_blocks(image, ys[:, 0], xs[0], 1))
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
    """1-D texel coordinates of the crop-resize sampling grid.

    ``box`` may also hold n boxes' ``x0``, ``y0``, ``w`` and ``h`` as
    (n, 1) arrays; the coordinates are then (n, out_h) and (n, out_w),
    each box's row made with the same float operations as for that box.
    """
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
    """1-D texel coordinates of the corner-aligned feature sampling grid.

    ``box`` may hold n boxes as (n, 1) arrays, as in ``crop_positions``.
    """
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
