"""PNG codec round trips and dataset manifest IO."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttckit.boxes import BoundingBox
from ttckit.errors import ManifestError
from ttckit.manifest import (
    FrameSample,
    Sequence,
    SequenceLabel,
    load_dataset,
    read_dataset_sequence,
    read_index,
    read_sequence_dir,
    write_index,
    write_sequence_dir,
)
from ttckit.png import decode_png, encode_png, read_png, write_png


def test_png_round_trip():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(17, 23, 3), dtype=np.uint8)
    assert np.array_equal(decode_png(encode_png(img)), img)


def test_png_deterministic_bytes():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    assert encode_png(img) == encode_png(img.copy())


def _row_loop_png(image):
    """encode_png framing each scanline in a Python loop, as it once did."""
    def chunk(tag, payload):
        crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
        return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)

    h, w = image.shape[:2]
    raw = bytearray()
    for row in image:
        raw.append(0)
        raw.extend(row.tobytes())
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(bytes(raw), 1)) + chunk(b"IEND", b""))


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 192), w=st.integers(1, 320), seed=st.integers(0, 2**32 - 1),
       flat=st.booleans(), strided=st.booleans())
@example(h=1, w=1, seed=0, flat=False, strided=False)
@example(h=192, w=320, seed=1, flat=False, strided=False)
def test_png_bytes_match_the_row_loop_framing(h, w, seed, flat, strided):
    rng = np.random.default_rng(seed)
    if flat:  # long runs compress very differently from noise
        img = np.full((h, w, 3), rng.integers(0, 256), dtype=np.uint8)
    else:
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    if strided:  # a view that is not C-contiguous
        img = np.repeat(img, 2, axis=1)[:, ::2]
    assert encode_png(img) == _row_loop_png(img)


def test_png_rejects_garbage():
    with pytest.raises(ManifestError):
        decode_png(b"not a png at all")
    with pytest.raises(ManifestError):
        encode_png(np.zeros((4, 4), dtype=np.uint8))


def _chunk(tag, payload):
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _filtered_png(image, filters):
    """An RGB PNG whose scanline i is filtered by ``filters[i]``, each filter
    applied as the PNG specification defines it: the filtered byte is the
    raw byte minus a prediction from the raw bytes to its left (a), above
    (b) and above-left (c), modulo 256."""
    h, w = image.shape[:2]
    raw = image.reshape(h, 3 * w).astype(np.int64)
    lines = []
    for i, ftype in enumerate(filters):
        cur = raw[i]
        up = raw[i - 1] if i else np.zeros_like(cur)
        a = np.concatenate([np.zeros(3, np.int64), cur[:-3]])
        b = up
        c = np.concatenate([np.zeros(3, np.int64), up[:-3]])
        if ftype == 0:
            pred = 0
        elif ftype == 1:  # Sub
            pred = a
        elif ftype == 2:  # Up
            pred = b
        elif ftype == 3:  # Average
            pred = (a + b) // 2
        else:  # Paeth
            p = a + b - c
            pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
            pred = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        lines.append(bytes([ftype]) + ((cur - pred) % 256).astype(np.uint8).tobytes())
    return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
            + _chunk(b"IDAT", zlib.compress(b"".join(lines))) + _chunk(b"IEND", b""))


@pytest.mark.parametrize("filters", [
    "sub", "up", "average", "paeth", "mixed",
])
def test_png_decodes_every_scanline_filter(filters):
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(10, 7, 3), dtype=np.uint8)
    # a smooth ramp too, whose predictions are mostly right
    ramp = np.add.outer(np.arange(10), np.arange(7))[..., None] * np.array([3, 5, 7])
    h = len(img)
    rows = {"sub": [1] * h, "up": [2] * h, "average": [3] * h, "paeth": [4] * h,
            "mixed": [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]}[filters]
    for image in (img, ramp.astype(np.uint8)):
        assert np.array_equal(decode_png(_filtered_png(image, rows)), image)
    # no filter at all takes the one-reshape path; so does encode_png's output
    assert np.array_equal(decode_png(_filtered_png(img, [0] * h)), img)


def test_png_rejects_malformed_files():
    img = np.random.default_rng(5).integers(0, 256, size=(12, 9, 3), dtype=np.uint8)
    good = encode_png(img)
    ihdr = _chunk(b"IHDR", struct.pack(">IIBBBBB", 9, 12, 8, 2, 0, 0, 0))
    idat = good[8 + len(ihdr) : -12]
    corrupt = bytearray(good)
    corrupt[8 + len(ihdr) + 8 + 4] ^= 0xFF  # inside the zlib stream
    bad = {
        "truncated chunk": good[: len(good) // 2],
        "truncated chunk header": good[:-6],
        "truncated IHDR": good[:8] + ihdr[:10],
        "short IHDR": good[:8] + _chunk(b"IHDR", b"\x00" * 9) + idat,
        "corrupt zlib stream": bytes(corrupt),
        "missing IDAT": good[:8] + ihdr + _chunk(b"IEND", b""),
        "missing IHDR": good[:8] + idat + _chunk(b"IEND", b""),
        "wrong payload size": good[:8] + ihdr + _chunk(b"IDAT", zlib.compress(b"\x00" * 10)),
        "unknown filter": _filtered_png(img, [0] * 11 + [5]),
    }
    for name, data in bad.items():
        with pytest.raises(ManifestError):
            decode_png(data)
    assert np.array_equal(decode_png(good), img)


def test_png_file_round_trip(tmp_path):
    img = np.zeros((5, 6, 3), dtype=np.uint8)
    img[2, 3] = (10, 200, 30)
    path = tmp_path / "x.png"
    write_png(path, img)
    assert np.array_equal(read_png(path), img)


def _toy_sequence(seq_id="seq000") -> Sequence:
    rng = np.random.default_rng(7)
    frames = []
    for i in range(6):
        frames.append(
            FrameSample(
                timestamp_s=0.7 + i * 0.1,
                box=BoundingBox(32.0 + i, 24.0, 10.0 + i, 8.0),
                exact_box=BoundingBox(32.0 + i, 24.0, 10.0 + i, 8.0),
                depth_m=40.0 - i,
                image=rng.uniform(0, 1, size=(48, 64, 3)).astype(np.float32),
            )
        )
    label = SequenceLabel(
        tau_s=3.5,
        alpha_10hz=0.972,
        velocity_mps=10.0,
        q_used=10,
        flags=["accelerating"],
        alpha_by_gap={1: 0.972, 5: 0.875},
        depth_m=35.0,
    )
    return Sequence(
        sequence_id=seq_id,
        fps=10.0,
        frames=frames,
        label=label,
        provenance={"generator": "synth", "seed": 3, "script_id": 1},
        depth_history=[(0.2 + 0.1 * k, 45.0 - k) for k in range(10)],
    )


def test_sequence_validate():
    seq = _toy_sequence()
    seq.validate()
    seq.frames[3].timestamp_s += 0.01
    with pytest.raises(ManifestError):
        seq.validate()


def test_manifest_round_trip(tmp_path):
    seq = _toy_sequence()
    write_sequence_dir(seq, tmp_path)
    back = read_sequence_dir(tmp_path / "seq000")
    assert back.sequence_id == seq.sequence_id
    assert back.fps == seq.fps
    assert back.label.tau_s == seq.label.tau_s
    assert back.label.alpha_by_gap == seq.label.alpha_by_gap
    assert back.label.flags == ["accelerating"]
    assert back.provenance["script_id"] == 1
    assert back.depth_history == seq.depth_history
    for fa, fb in zip(seq.frames, back.frames):
        assert fb.box == fa.box
        assert fb.depth_m == fa.depth_m
    img = read_dataset_sequence(tmp_path, "seq000").frames[0].load_image()
    # 8-bit quantization on the way to disk
    assert np.allclose(img, seq.frames[0].image, atol=1.0 / 255.0 + 1e-6)


def test_dataset_write_is_byte_stable(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    for d in (a_dir, b_dir):
        seq = _toy_sequence()
        write_sequence_dir(seq, d)
        write_index(d, [seq.sequence_id], config_hash="cafe")
    for name in ("index.json", "seq000/manifest.json", "seq000/frame_0.png"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_load_dataset(tmp_path):
    ids = []
    for i in range(3):
        seq = _toy_sequence(f"seq{i:03d}")
        write_sequence_dir(seq, tmp_path)
        ids.append(seq.sequence_id)
    write_index(tmp_path, ids, config_hash="beef")
    loaded = load_dataset(tmp_path)
    assert [s.sequence_id for s in loaded] == sorted(ids)
    assert read_index(tmp_path)["config_hash"] == "beef"
    img = loaded[0].frames[0].load_image()
    assert img.shape == (48, 64, 3)


def test_read_missing_manifest(tmp_path):
    with pytest.raises(ManifestError):
        read_sequence_dir(tmp_path / "nope")
    with pytest.raises(ManifestError):
        read_index(tmp_path)


@pytest.mark.parametrize("text, message", [
    ("{not json", "index is not valid JSON"),
    ('["t1v00001k0"]', "the index must be a JSON object"),
])
def test_read_index_refuses_a_malformed_file(tmp_path, text, message):
    # either used to fail inside the run with exit 1
    (tmp_path / "index.json").write_text(text)
    with pytest.raises(ManifestError, match=message):
        read_index(tmp_path)
