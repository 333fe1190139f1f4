"""Axis-aligned 2D bounding boxes in image space.

Boxes are center-parameterized: ``[cx, cy, w, h]``.  The image occupies
the extent ``[0, width] x [0, height]``; see :mod:`ttckit.sampling` for
how box corners map onto pixel sampling positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

MIN_BOX_SIZE_PX = 15.0


@dataclass(frozen=True)
class BoundingBox:
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"box field {name} must be finite")
        if self.w <= 0 or self.h <= 0:
            raise DomainError(f"box dims must be positive, got {self.w}x{self.h}")

    @property
    def x0(self) -> float:
        return self.cx - self.w / 2.0

    @property
    def y0(self) -> float:
        return self.cy - self.h / 2.0

    @property
    def x1(self) -> float:
        return self.cx + self.w / 2.0

    @property
    def y1(self) -> float:
        return self.cy + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def shifted(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.cx + dx, self.cy + dy, self.w, self.h)

    def inside_image(self, width: float, height: float) -> bool:
        return self.x0 >= 0 and self.y0 >= 0 and self.x1 <= width and self.y1 <= height


def box_drop_reason(box: BoundingBox, width: float, height: float) -> str | None:
    """Why a box is unusable for scale estimation, or None if it is usable.

    Size is checked first: a side under ``MIN_BOX_SIZE_PX`` gives
    ``"box_below_min_size"``, a box leaving the image ``"truncated_box"``.
    """
    if box.w < MIN_BOX_SIZE_PX or box.h < MIN_BOX_SIZE_PX:
        return "box_below_min_size"
    if not box.inside_image(width, height):
        return "truncated_box"
    return None


def expand_box(
    box: BoundingBox, cap: float, image_size: tuple[float, float]
) -> BoundingBox:
    """Grow a box about its center by the largest ratio r <= cap that keeps
    it inside the image.  Boxes already touching (or past) the boundary are
    returned unchanged.
    """
    if cap < 1.0:
        raise DomainError(f"expansion cap must be >= 1, got {cap}")
    width, height = image_size
    limits = [cap]
    if box.w > 0:
        limits.append(2.0 * box.cx / box.w)
        limits.append(2.0 * (width - box.cx) / box.w)
    if box.h > 0:
        limits.append(2.0 * box.cy / box.h)
        limits.append(2.0 * (height - box.cy) / box.h)
    r = max(1.0, min(limits))
    if r == 1.0:
        return box
    return BoundingBox(box.cx, box.cy, box.w * r, box.h * r)
