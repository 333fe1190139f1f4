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
            + chunk(b"IDAT", zlib.compress(bytes(raw), 6)) + chunk(b"IEND", b""))


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
    img = back.frames[0].load_image(tmp_path)
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
