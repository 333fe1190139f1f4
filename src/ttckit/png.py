"""Minimal deterministic PNG reader/writer for 8-bit RGB frames.

Rewriting the same array always yields the same bytes (fixed zlib level,
no ancillary chunks), which keeps regenerated datasets byte-identical.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ManifestError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(image: np.ndarray) -> bytes:
    """Encode an (H, W, 3) uint8 array as a PNG byte string."""
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ManifestError(f"expected (H, W, 3) uint8 image, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # each scanline is its filter byte (0: None) followed by its pixels
    raw = np.zeros((h, 1 + 3 * w), dtype=np.uint8)
    raw[:, 1:] = image.reshape(h, 3 * w)
    idat = zlib.compress(raw.tobytes(), 6)
    return _SIGNATURE + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int32) + b.astype(np.int32) - c.astype(np.int32)
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def decode_png(data: bytes) -> np.ndarray:
    """Decode an 8-bit RGB PNG into an (H, W, 3) uint8 array.

    A malformed file (a truncated chunk, no IHDR or IDAT, a corrupt zlib
    stream, a payload of the wrong size, an unknown filter) raises
    ``ManifestError``, so ``eval`` records it as that sequence's failure.
    When no scanline is filtered, as in every file ``encode_png`` writes,
    the pixels are one reshape of the payload; filters 1-4 are undone row
    by row.
    """
    if data[:8] != _SIGNATURE:
        raise ManifestError("not a PNG file")
    pos = 8
    width = height = None
    idat = bytearray()
    while pos < len(data):
        if pos + 12 > len(data):
            raise ManifestError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        if pos + 12 + length > len(data):
            raise ManifestError(f"truncated PNG {tag!r} chunk")
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ManifestError(f"PNG IHDR of {length} bytes, need 13")
            width, height, depth, color, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if depth != 8 or color != 2 or comp != 0 or filt != 0 or interlace != 0:
                raise ManifestError("only 8-bit non-interlaced RGB PNGs are supported")
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if width is None:
        raise ManifestError("PNG missing IHDR")
    if not idat:
        raise ManifestError("PNG missing IDAT")
    try:
        raw = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ManifestError(f"corrupt PNG image data: {exc}") from exc
    stride = width * 3
    if len(raw) != height * (stride + 1):
        raise ManifestError("PNG payload size mismatch")
    # each scanline is its filter byte followed by its pixels
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    if not lines[:, 0].any():
        return np.ascontiguousarray(lines[:, 1:]).reshape(height, width, 3)
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for i in range(height):
        ftype = lines[i, 0]
        row = lines[i, 1:].copy()
        if ftype == 0:
            pass
        elif ftype == 2:  # Up
            row += prev
        elif ftype in (1, 3, 4):  # Sub, Average, Paeth need per-pixel recurrence
            bpp = 3
            left = np.zeros(bpp, dtype=np.uint8)
            for x in range(0, stride, bpp):
                cur = row[x : x + bpp]
                up = prev[x : x + bpp]
                ul = prev[x - bpp : x] if x >= bpp else np.zeros(bpp, dtype=np.uint8)
                if ftype == 1:
                    cur += left
                elif ftype == 3:
                    cur += ((left.astype(np.int32) + up.astype(np.int32)) // 2).astype(
                        np.uint8
                    )
                else:
                    cur += _paeth(left, up, ul)
                left = cur
        else:
            raise ManifestError(f"unsupported PNG filter {ftype}")
        out[i] = row
        prev = out[i]
    return out.reshape(height, width, 3)


def write_png(path, image: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_png(image))


def read_png(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode_png(fh.read())
