"""Boxes, bilinear crops and lattices, grid sampling, shift offsets."""

import math

import numpy as np
import pytest
from feature_reference import four_corner_gather, scaled_candidate_boxes
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttckit import sampling
from ttckit.boxes import MIN_BOX_SIZE_PX, BoundingBox, box_drop_reason, expand_box
from ttckit.errors import DomainError
from ttckit.estimate import FeatureSearchConfig
from ttckit.sampling import (
    bilinear_sample,
    crop_resize,
    grid_positions,
    grid_sample_features,
    lattice_row_blocks,
    shift_offsets,
)


def test_bounding_box_basics():
    b = BoundingBox(50.0, 40.0, 20.0, 10.0)
    assert (b.x0, b.y0, b.x1, b.y1) == (40.0, 35.0, 60.0, 45.0)
    assert b.area == 200.0
    with pytest.raises(DomainError):
        BoundingBox(0, 0, -1, 5)


def test_box_drop_reason_cases():
    assert MIN_BOX_SIZE_PX == 15.0
    cases = [
        (BoundingBox(50.0, 40.0, 20.0, 16.0), None),
        # a side of exactly the minimum, edges exactly on the image border
        (BoundingBox(7.5, 7.5, 15.0, 15.0), None),
        (BoundingBox(90.0, 52.5, 20.0, 15.0), None),
        (BoundingBox(50.0, 40.0, 14.9, 20.0), "box_below_min_size"),
        (BoundingBox(50.0, 40.0, 20.0, 14.9), "box_below_min_size"),
        (BoundingBox(9.0, 40.0, 20.0, 20.0), "truncated_box"),
        (BoundingBox(50.0, 51.0, 20.0, 20.0), "truncated_box"),
        (BoundingBox(150.0, 40.0, 20.0, 20.0), "truncated_box"),  # wholly outside
        # both too small and cut off: size is checked first
        (BoundingBox(2.0, 40.0, 10.0, 10.0), "box_below_min_size"),
    ]
    for box, reason in cases:
        assert box_drop_reason(box, 100, 60) == reason, box


def test_expand_box_centered():
    b = BoundingBox(200.0, 200.0, 50.0, 40.0)
    e = expand_box(b, 1.1, (400, 400))
    assert e.w == pytest.approx(55.0)
    assert e.h == pytest.approx(44.0)
    assert (e.cx, e.cy) == (200.0, 200.0)


def test_expand_box_limited_by_edge():
    # right edge at 399 of a 400-wide image: largest legal ratio is 1.05
    b = BoundingBox(379.0, 200.0, 40.0, 40.0)
    e = expand_box(b, 1.1, (400, 400))
    assert e.x1 == pytest.approx(400.0)  # expansion stops exactly at the edge
    assert e.w == pytest.approx(42.0)
    assert e.h == pytest.approx(42.0)  # same ratio on both dims


def test_expand_box_identity_cases():
    b = BoundingBox(200.0, 200.0, 50.0, 40.0)
    assert expand_box(b, 1.0, (400, 400)) == b
    touching = BoundingBox(25.0, 200.0, 50.0, 40.0)  # x0 == 0
    assert expand_box(touching, 1.1, (400, 400)) == touching


def test_crop_resize_identity():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(12, 17))
    box = BoundingBox(17 / 2, 12 / 2, 17.0, 12.0)
    out = crop_resize(img, box, 17, 12)
    assert np.allclose(out, img)


def test_crop_resize_checkerboard_midpoints():
    img = np.array([[1.0, 0.0], [0.0, 1.0]])
    box = BoundingBox(1.0, 1.0, 2.0, 2.0)
    out = crop_resize(img, box, 4, 4)
    expected = np.array(
        [
            [1.0, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.5, 0.5],
            [0.0, 0.5, 1.0, 1.0],
            [0.0, 0.5, 1.0, 1.0],
        ]
    )
    assert np.allclose(out, expected)


def test_crop_resize_constant_invariance():
    img = np.full((20, 30), 0.37)
    for box in (
        BoundingBox(10, 10, 8, 8),
        BoundingBox(1, 1, 10, 10),  # spills past the edge: clamped samples
        BoundingBox(29, 19, 6, 3),
    ):
        out = crop_resize(img, box, 7, 5)
        assert np.allclose(out, 0.37)


def test_bilinear_sample_matches_manual():
    img = np.arange(12, dtype=float).reshape(3, 4)
    val = bilinear_sample(img, np.array([[0.5]]), np.array([[1.5]]))
    # corners 1,2,5,6 -> mean = 3.5
    assert val[0, 0] == pytest.approx(3.5)


def test_bilinear_sample_refuses_anything_but_one_nonempty_lattice():
    img = np.arange(20.0).reshape(4, 5)
    ys, xs = np.array([0.5, 1.0, 2.5]), np.array([1.5, 3.0])
    grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
    for bad_ys, bad_xs in [
        (ys, xs),  # (n,) and (m,)
        (grid_y, grid_x),  # (n, m) and (n, m)
        (np.empty((0, 1)), xs[None, :]),  # no rows
        (ys[:, None], np.empty((1, 0))),  # no columns
    ]:
        with pytest.raises(DomainError, match="one non-empty lattice"):
            bilinear_sample(img, bad_ys, bad_xs)


def test_grid_sample_identity():
    rng = np.random.default_rng(1)
    fmap = rng.uniform(size=(9, 11, 4))
    box = BoundingBox(11 / 2, 9 / 2, 11.0, 9.0)
    out = grid_sample_features(fmap, box, 11, 9)
    assert np.allclose(out, fmap)


def test_grid_sample_linear_ramp_stays_linear():
    h, w = 30, 40
    fmap = np.tile(np.arange(w, dtype=float), (h, 1))
    box = BoundingBox(20.0, 15.0, 14.0, 10.0)
    out = grid_sample_features(fmap, box, 8, 6)
    expected_row = np.linspace(box.x0, box.x0 + box.w - 1.0, 8)
    assert np.allclose(out, np.tile(expected_row, (6, 1)))


def test_grid_sample_constant():
    fmap = np.full((16, 16, 1), 2.5)
    out = grid_sample_features(fmap, BoundingBox(8, 8, 10, 10), 5, 5)
    assert np.allclose(out, 2.5)


def test_shift_offsets_lexicographic():
    offs = shift_offsets(1)
    assert offs.tolist() == [
        [-1, -1], [-1, 0], [-1, 1],
        [0, -1], [0, 0], [0, 1],
        [1, -1], [1, 0], [1, 1],
    ]


def _assert_bit_identical(image, ys, xs):
    got = bilinear_sample(image, ys, xs)
    want = four_corner_gather(image, ys, xs)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def _images(draw):
    h = draw(st.integers(1, 9))
    w = draw(st.integers(1, 9))
    channels = draw(st.sampled_from([(), (1,), (3,)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = st.floats(-4.0, 4.0, width=32 if dtype == np.float32 else 64)
    return draw(arrays(dtype, (h, w) + channels, elements=values))


def _coords(draw, shape, size):
    # past both edges, on them, and on integer texels in between
    values = st.one_of(
        st.floats(-3.0, size + 2.0),
        st.integers(-2, size + 1).map(float),
        st.sampled_from([0.0, size - 1.0, np.nextafter(size - 1.0, 0.0)]),
    )
    return draw(arrays(np.float64, shape, elements=values))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), image=_images())
def test_lattice_path_bit_identical_to_point_gather(data, image):
    # one lattice per call; batches are lattice_row_blocks' own
    # (test_batched_row_blocks_equal_one_lattice_calls)
    h, w = image.shape[:2]
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 8))
    ys = _coords(data.draw, (n, 1), h)
    xs = _coords(data.draw, (1, m), w)
    _assert_bit_identical(image, ys, xs)


def _candidate_patch_coords(center, b1, cfg):
    """Grid-sample coordinates of every (bin, shift) candidate patch, (ys, xs)
    of shapes (n_bins, n_off, out_h, 1) and (n_bins, n_off, 1, out_w)."""
    offsets = shift_offsets(cfg.shift_c).astype(np.float64)
    center_box = BoundingBox(center[0], center[1], b1.w, b1.h)
    grids = [grid_positions(box, cfg.target_w, cfg.target_h)
             for box in scaled_candidate_boxes(center_box, b1, cfg)]
    ys = np.array([y for y, _ in grids])[:, None, :, None] + offsets[None, :, 1, None, None]
    xs = np.array([x for _, x in grids])[:, None, None, :] + offsets[None, :, 0, None, None]
    return ys, xs


@settings(max_examples=25, deadline=None)
@given(
    cx=st.floats(-10.0, 50.0),
    cy=st.floats(-10.0, 40.0),
    bw=st.floats(2.0, 30.0),
    bh=st.floats(2.0, 30.0),
    n_bins=st.integers(2, 4),
    shift_c=st.integers(0, 2),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_candidate_patch_lattices_bit_identical(cx, cy, bw, bh, n_bins, shift_c, dtype):
    # boxes reach past every edge of a 30x40 feature map
    fmap = np.random.default_rng(0).normal(size=(30, 40, 3)).astype(dtype)
    cfg = FeatureSearchConfig(
        n_bins=n_bins, top_k=1, shift_c=shift_c, target_w=7, target_h=5
    )
    ys, xs = _candidate_patch_coords((cx, cy), BoundingBox(20.0, 15.0, bw, bh), cfg)
    assert ys.shape == (n_bins, (2 * shift_c + 1) ** 2, 5, 1)
    assert xs.shape == (n_bins, (2 * shift_c + 1) ** 2, 1, 7)
    # every (bin, shift) lattice in one batch, one block per lattice
    blocks = lattice_row_blocks(fmap, ys.reshape(-1, 5), xs.reshape(-1, 7), 1)
    got = np.concatenate([block.copy() for block in blocks])
    want = four_corner_gather(fmap, ys, xs)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.reshape(want.shape), want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), image=_images())
def test_row_blocks_concatenate_to_the_one_block_lattice(data, image):
    h, w = image.shape[:2]
    rows = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
    m = data.draw(st.integers(1, 8))
    ys = _coords(data.draw, (rows,), h)
    xs = _coords(data.draw, (m,), w)
    whole = bilinear_sample(image, ys[:, None], xs[None, :])
    _assert_bit_identical(image, ys[:, None], xs[None, :])
    for n in [k for k in range(1, rows + 1) if rows % k == 0]:
        blocks = [block.copy() for block in lattice_row_blocks(image, ys, xs, n)]
        assert len(blocks) == n
        assert all(b.shape == (rows // n, m) + image.shape[2:] for b in blocks)
        got = np.concatenate(blocks)
        assert got.dtype == whole.dtype and np.array_equal(got, whole)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), image=_images())
def test_batched_row_blocks_equal_one_lattice_calls(data, image):
    h, w = image.shape[:2]
    batch = data.draw(st.integers(1, 4))
    rows = data.draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
    m = data.draw(st.integers(1, 8))
    ys = _coords(data.draw, (batch, rows), h)
    xs = _coords(data.draw, (batch, m), w)
    for n in [k for k in range(1, rows + 1) if rows % k == 0]:
        want = [
            block.copy()
            for b in range(batch)
            for block in lattice_row_blocks(image, ys[b], xs[b], n)
        ]
        blocks = lattice_row_blocks(image, ys, xs, n)
        held = next(blocks)
        got = [held.copy()]
        for block in blocks:
            # every block is the one buffer: the next block overwrites a held one
            assert np.shares_memory(block, held) and np.array_equal(held, block)
            got.append(block.copy())
        if n == 1:
            # one block per lattice: lattices this small all share one block
            assert len(got) == 1 and got[0].shape == (batch, rows, m) + image.shape[2:]
            got = list(got[0])
        assert len(got) == len(want) == batch * n
        for g, v in zip(got, want):
            assert g.shape == v.shape == (rows // n, m) + image.shape[2:]
            assert g.dtype == v.dtype and np.array_equal(g, v)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), image=_images())
def test_grouped_row_blocks_equal_one_lattice_calls(data, image):
    # a batch in one block per lattice comes in blocks of as many
    # consecutive lattices as fit the value budget, at least one, the last
    # block short when that count does not divide the batch; a small
    # budget stands in for the real one, which these lattices fit whole
    h, w = image.shape[:2]
    batch = data.draw(st.integers(1, 7))
    rows = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 6))
    ys = _coords(data.draw, (batch, rows), h)
    xs = _coords(data.draw, (batch, m), w)
    values = rows * m * math.prod(image.shape[2:])
    budget = data.draw(st.integers(1, 4 * values))
    size = max(1, budget // values)
    want = np.stack([next(lattice_row_blocks(image, ys[b], xs[b], 1)) for b in range(batch)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_GROUP_VALUES", budget)
        got = [block.copy() for block in lattice_row_blocks(image, ys, xs, 1)]
    assert [len(block) for block in got] == [
        min(size, batch - first) for first in range(0, batch, size)
    ]
    assert all(block.shape[1:] == (rows, m) + image.shape[2:] for block in got)
    got = np.concatenate(got)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("channels", [None, 1, 3, 12])
def test_float32_row_blocks_equal_the_full_width_promotion(channels):
    # a float32 image is sampled as its float64 promotion, which the
    # sampler reads in place
    rng = np.random.default_rng(channels or 0)
    shape = (37, 53) if channels is None else (37, 53, channels)
    image = rng.normal(size=shape).astype(np.float32)
    # lattices of different spans and column ranges, one clamped at the
    # top and left edges, one at the bottom and right, one past both
    # sides, and one inside a single column
    ys = np.stack([
        np.linspace(-4.0, 8.5, 6),
        np.linspace(30.2, 41.0, 6),
        np.linspace(-3.0, 40.0, 6),
        np.linspace(17.25, 18.75, 6),
    ])
    xs = np.stack([
        np.linspace(-6.0, 3.7, 5),
        np.linspace(44.1, 60.0, 5),
        np.linspace(-2.0, 55.0, 5),
        np.linspace(20.0, 20.0, 5),
    ])
    promoted = image.astype(np.float64)
    for n in (1, 2, 3, 6):
        want = [block.copy() for block in lattice_row_blocks(promoted, ys, xs, n)]
        got = [block.copy() for block in lattice_row_blocks(image, ys, xs, n)]
        # in one block per lattice, the four lattices share one block
        assert len(got) == len(want) == (1 if n == 1 else 4 * n)
        for g, v in zip(got, want):
            assert g.dtype == v.dtype == np.float64 and np.array_equal(g, v)


def test_row_blocks_promote_only_the_touched_columns():
    # a narrow lattice on a wide float64 image: the image is read in place,
    # with far less than one full-width strip allocated
    import tracemalloc

    rng = np.random.default_rng(3)
    image = rng.normal(size=(40, 4000, 3))
    ys, xs = np.linspace(5.0, 25.0, 8), np.linspace(100.0, 140.0, 6)
    full_strip = 22 * 4000 * 3 * 8  # rows 5 to 26, every column, in float64
    tracemalloc.start()
    try:
        for _ in lattice_row_blocks(image, ys, xs, 2):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_strip // 20, peak


def test_row_blocks_reject_uneven_splits_and_bad_coordinates():
    img = np.zeros((4, 5))
    ys, xs = np.arange(6.0), np.arange(3.0)
    for n in (0, 4, 7):
        with pytest.raises(DomainError):
            next(lattice_row_blocks(img, ys, xs, n))
    with pytest.raises(DomainError):
        next(lattice_row_blocks(img, np.empty(0), xs, 1))
    with pytest.raises(DomainError):
        next(lattice_row_blocks(img, ys[:, None], xs, 1))
    # a batch needs one row of x coordinates per lattice
    with pytest.raises(DomainError):
        next(lattice_row_blocks(img, np.stack([ys, ys]), xs[None], 1))
    with pytest.raises(DomainError):
        next(lattice_row_blocks(img, np.empty((0, 6)), np.empty((0, 3)), 1))


def test_lattice_path_handles_one_row_and_one_column_images():
    ys = np.array([[-1.0], [0.0], [0.25], [2.0]])
    xs = np.array([[-1.0, 0.0, 0.5, 3.0]])
    row = np.array([[1.0, 3.0, 7.0]])
    col = row.T
    _assert_bit_identical(row, ys, xs)
    _assert_bit_identical(col, ys, xs)
    assert np.array_equal(bilinear_sample(row, ys, xs)[0], [1.0, 1.0, 2.0, 7.0])
    assert np.array_equal(bilinear_sample(col, ys, xs)[:, 0], [1.0, 1.0, 1.5, 7.0])
