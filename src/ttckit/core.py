"""Time-to-contact algebra.

Conversions among depth/velocity, TTC, and image scale ratio, plus the
TTC interval logic shared by every other module.

Conventions used throughout the toolkit:

* TTC is in seconds; positive means the object approaches the camera
  plane, negative means it recedes.  Values are truncated to
  ``[TTC_MIN, TTC_MAX]`` = [-20, +20] s.
* Velocity ``v`` is the closing rate (= -dy/dt), so approaching objects
  have v > 0 and TTC = y / v comes out positive.
* A scale ratio ``alpha`` compares the image size of an object in a
  reference frame against a later target frame: alpha = s(t0) / s(t1).
  Approaching objects grow in the image, so alpha < 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ScaleConversionError

TTC_MIN = -20.0
TTC_MAX = 20.0

#: Closing rates below this (m/s) are treated as "never contacts".
DEFAULT_VELOCITY_EPS = 1e-6

#: Where along the frame pair the TTC is measured.  "reference_frame"
#: is the verbatim tau = dt / (1 - alpha) reading; "target_frame" uses
#: tau = dt * alpha / (1 - alpha), which is self-consistent with the
#: FPS conversion identity below.
TTC_REFERENCE_MODES = ("reference_frame", "target_frame")


class TtcInterval(Enum):
    """TTC range buckets used for per-interval metric breakdowns."""

    CRUCIAL = "crucial"
    SMALL = "small"
    LARGE = "large"
    NEGATIVE = "negative"

    @property
    def bounds(self) -> tuple[float, float]:
        return _INTERVAL_BOUNDS[self]


# crucial/small are half-open [lo, hi); the outer intervals absorb the
# truncation boundaries so every value in [-20, 20] gets exactly one tag.
_INTERVAL_BOUNDS = {
    TtcInterval.CRUCIAL: (0.0, 3.0),
    TtcInterval.SMALL: (3.0, 6.0),
    TtcInterval.LARGE: (6.0, 20.0),
    TtcInterval.NEGATIVE: (-20.0, 0.0),
}


@dataclass(frozen=True)
class FrameGap:
    """Number of frames between reference and target, at a base rate."""

    gap: int
    base_fps: float = 10.0

    def __post_init__(self) -> None:
        if self.gap < 1 or int(self.gap) != self.gap:
            raise DomainError(f"frame gap must be a positive integer, got {self.gap}")
        if self.base_fps <= 0:
            raise DomainError(f"base fps must be positive, got {self.base_fps}")

    @property
    def effective_fps(self) -> float:
        return self.base_fps / self.gap

    @property
    def dt(self) -> float:
        """Time between reference and target frame, seconds."""
        return self.gap / self.base_fps


def truncate_ttc(tau: float) -> float:
    """Clamp a TTC value to the reportable range [-20, +20] s."""
    if math.isnan(tau):
        raise DomainError("TTC is NaN; cannot truncate")
    return min(max(tau, TTC_MIN), TTC_MAX)


def ttc_from_depth_velocity(
    y: float, v: float, eps_v: float = DEFAULT_VELOCITY_EPS
) -> float:
    """TTC from depth y (m) and closing rate v (m/s, positive = approaching).

    Closing rates below ``eps_v`` in magnitude mean the object never
    contacts; the truncation boundary +20 s is returned in that case.
    """
    if not math.isfinite(y) or y <= 0:
        raise DomainError(f"depth must be positive and finite, got {y}")
    if not math.isfinite(v):
        raise DomainError(f"velocity must be finite, got {v}")
    if abs(v) < eps_v:
        return TTC_MAX
    return truncate_ttc(y / v)


def check_int(name: str, value, low: int = 0) -> int:
    """Return ``value`` if it is an integer (not a bool) >= ``low``, else raise DomainError.

    Counts and numpy seeds must be such integers; a float, a bool or a
    negative seed would otherwise fail deep inside a run.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def is_finite_real(value) -> bool:
    """True for a finite real number (an int, a float or a numpy scalar)."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


def _check_reference_mode(ttc_reference: str) -> None:
    if ttc_reference not in TTC_REFERENCE_MODES:
        raise DomainError(
            f"ttc_reference must be one of {TTC_REFERENCE_MODES}, got {ttc_reference!r}"
        )


def ttc_from_scale_ratio(
    alpha: float, dt: float, ttc_reference: str = "reference_frame"
) -> float:
    """TTC from the scale ratio alpha = s(t0)/s(t1) over a dt-second gap.

    alpha == 1 (no apparent size change) maps to the +20 s truncation
    boundary.  The result is truncated to [-20, 20].
    """
    _check_reference_mode(ttc_reference)
    if alpha <= 0 or not math.isfinite(alpha):
        raise DomainError(f"scale ratio must be positive and finite, got {alpha}")
    if dt <= 0:
        raise DomainError(f"frame interval must be positive, got {dt}")
    if alpha == 1.0:
        return TTC_MAX
    tau = dt / (1.0 - alpha)
    if ttc_reference == "target_frame":
        tau *= alpha
    return truncate_ttc(tau)


def scale_ratio_from_ttc(
    tau: float, dt: float, ttc_reference: str = "reference_frame"
) -> float:
    """Inverse of :func:`ttc_from_scale_ratio`.

    TTC values inside (0, dt] (contact within one frame interval) have
    no positive scale-ratio representation and raise ``DomainError``.
    """
    _check_reference_mode(ttc_reference)
    if dt <= 0:
        raise DomainError(f"frame interval must be positive, got {dt}")
    if tau == 0 or not math.isfinite(tau):
        raise DomainError(f"TTC must be finite and nonzero, got {tau}")
    if ttc_reference == "reference_frame":
        alpha = 1.0 - dt / tau
    else:
        if tau == -dt:
            raise DomainError("target-frame TTC of exactly -dt has no scale ratio")
        alpha = tau / (tau + dt)
    if alpha <= 0:
        raise DomainError(
            f"TTC {tau} s over a {dt} s gap yields non-positive scale ratio {alpha}"
        )
    return alpha


def convert_scale_ratio_fps(alpha_n: float, fps_n: float, fps_m: float) -> float:
    """Re-express a scale ratio measured at fps_n as one at fps_m.

    Uses alpha_m = 1 / ((fps_n/fps_m) * (1/alpha_n - 1) + 1), which keeps
    the target-frame TTC fixed.  Identity when fps_n == fps_m.  Extreme
    receding ratios can push the denominator to zero or below when
    converting to a slower rate; that raises ``ScaleConversionError`` and
    callers fall back to truncating through the TTC representation.
    """
    if alpha_n <= 0 or not math.isfinite(alpha_n):
        raise DomainError(f"scale ratio must be positive and finite, got {alpha_n}")
    if fps_n <= 0 or fps_m <= 0:
        raise DomainError(f"frame rates must be positive, got {fps_n}, {fps_m}")
    if fps_n == fps_m:
        return alpha_n
    denom = (fps_n / fps_m) * (1.0 / alpha_n - 1.0) + 1.0
    if denom <= 0:
        raise ScaleConversionError(
            f"scale ratio {alpha_n} at {fps_n} Hz has no {fps_m} Hz equivalent"
        )
    return 1.0 / denom


def ttc_interval(tau: float) -> TtcInterval:
    """Bucket an already-truncated TTC value into its interval."""
    if tau < TTC_MIN or tau > TTC_MAX:
        raise DomainError(f"TTC {tau} outside truncated range; truncate first")
    if tau < 0.0:
        return TtcInterval.NEGATIVE
    if tau < 3.0:
        return TtcInterval.CRUCIAL
    if tau < 6.0:
        return TtcInterval.SMALL
    return TtcInterval.LARGE
