"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark shares a few cores of a busy host.  Other tenants slow every
computation on it by up to a third, for minutes at a time, so raw pass wall
times drift between runs of identical code by more than any usable bound.
The reference kernel does a fixed mix of the work ttckit's passes do --
bilinear gathers into freshly mapped arrays, whose page faults cost as much
as the arithmetic here, zlib deflate, interpreter-bound Python -- and uses
no ttckit code, so a change to the program cannot move it.  Timed
right before and after a stretch of timed work, it says how fast the host
ran during the stretch; ``at_nominal`` turns the stretch's wall time into
the time it would take at the nominal host speed, where one reference run
takes ``NOMINAL_S``.
"""

from __future__ import annotations

import mmap
import time
import zlib

import numpy as np

NOMINAL_S = 0.25
_GATHERS = 14
_DEFLATES = 3
_LOOPS = 5
_H, _W = 300, 750  # gather lattice


def _fresh(shape: tuple[int, int], dtype) -> tuple[mmap.mmap, np.ndarray]:
    """An array over a new anonymous mapping.  Its pages fault in on first
    write, as those of numpy's large temporaries do, but nothing goes
    through malloc: the kernel leaves the heap, and so the passes' own
    allocations and peak resident memory, as the passes left them."""
    mapping = mmap.mmap(-1, shape[0] * shape[1] * np.dtype(dtype).itemsize)
    return mapping, np.frombuffer(mapping, dtype=dtype).reshape(shape)


class Reference:

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.PCG64(0))
        self._img = rng.random((192, 320))
        self._ys = rng.random((_H, 1)) * 190.0
        self._xs = rng.random((1, _W)) * 318.0
        self._raw = (rng.random(1 << 18) * 16).astype(np.uint8).tobytes()
        self.check = None
        self.history: list[float] = []
        self.last = self.seconds()  # the first run also warms the image

    def _gather(self) -> float:
        # bilinear sampling of the image on a (_H, _W) lattice, into fresh
        # mappings
        flat, width = self._img.reshape(-1), self._img.shape[1]
        mappings, arrays = zip(*(_fresh((_H, _W), dtype)
                                 for dtype in (np.intp, np.float64, np.float64, np.float64)))
        idx, top, bottom, tmp = arrays
        y0, x0 = np.floor(self._ys).astype(np.intp), np.floor(self._xs).astype(np.intp)
        fy, fx = self._ys - y0, self._xs - x0
        np.add(y0 * width, x0, out=idx)
        np.take(flat, idx, out=top)
        top *= 1 - fx
        idx += 1
        np.take(flat, idx, out=tmp)
        tmp *= fx
        top += tmp
        idx += width
        np.take(flat, idx, out=bottom)
        bottom *= fx
        idx -= 1
        np.take(flat, idx, out=tmp)
        tmp *= 1 - fx
        bottom += tmp
        top *= 1 - fy
        bottom *= fy
        top += bottom
        total = float(top.sum())
        del idx, top, bottom, tmp, arrays
        for mapping in mappings:
            mapping.close()
        return total

    def _loop(self) -> int:
        acc = 0
        for i in range(60000):
            acc = (acc * 31 + i) % 1000003
        return acc

    def seconds(self) -> float:
        """Wall time of one reference run, also kept as ``last``.  Its result
        must never change."""
        start = time.perf_counter()
        result = (tuple(self._gather() for _ in range(_GATHERS)),
                  tuple(len(zlib.compress(self._raw, 6)) for _ in range(_DEFLATES)),
                  tuple(self._loop() for _ in range(_LOOPS)))
        wall = time.perf_counter() - start
        if self.check is None:
            self.check = result
        elif result != self.check:
            raise RuntimeError("reference kernel gave a different result")
        self.last = wall
        self.history.append(wall)
        return wall


def at_nominal(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall``, measured between two reference runs, at the nominal host speed."""
    return wall * 2.0 * NOMINAL_S / (ref_before + ref_after)
