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
from enum import Enum

from .errors import DomainError, ScaleConversionError

TTC_MIN = -20.0
TTC_MAX = 20.0

#: Closing rates below this (m/s) are treated as "never contacts".
DEFAULT_VELOCITY_EPS = 1e-6


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


def truncate_ttc(tau: float) -> float:
    """Clamp a TTC value to the reportable range [-20, +20] s."""
    if math.isnan(tau):
        raise DomainError("TTC is NaN; cannot truncate")
    return min(max(tau, TTC_MIN), TTC_MAX)


def ttc_from_depth_velocity(y: float, v: float) -> float:
    """TTC from depth y (m) and closing rate v (m/s, positive = approaching).

    Closing rates below ``DEFAULT_VELOCITY_EPS`` in magnitude mean the
    object never contacts; the truncation boundary +20 s is returned in
    that case.
    """
    if not math.isfinite(y) or y <= 0:
        raise DomainError(f"depth must be positive and finite, got {y}")
    if not math.isfinite(v):
        raise DomainError(f"velocity must be finite, got {v}")
    if abs(v) < DEFAULT_VELOCITY_EPS:
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
    """True for a finite real number (an int, a float or a numpy scalar), not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_range(name: str, pair) -> None:
    """Raise DomainError naming ``name`` unless ``pair`` is [low, high], two
    finite numbers with low <= high."""
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(map(is_finite_real, pair)) and pair[0] <= pair[1]):
        raise DomainError(f"{name} must be [low, high], two finite numbers with "
                          f"low <= high, got {pair!r}")


def ttc_from_scale_ratio(alpha: float, dt: float) -> float:
    """TTC at the target frame from the scale ratio alpha = s(t0)/s(t1)
    over a dt-second gap: tau = dt * alpha / (1 - alpha).

    This is the frame every label and estimate measures, and the TTC
    that :func:`convert_scale_ratio_fps` keeps fixed; the TTC at the
    reference frame is dt / (1 - alpha), larger by dt.  alpha == 1 (no
    apparent size change) maps to the +20 s truncation boundary.  The
    result is truncated to [-20, 20].
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise DomainError(f"scale ratio must be positive and finite, got {alpha}")
    if dt <= 0:
        raise DomainError(f"frame interval must be positive, got {dt}")
    if alpha == 1.0:
        return TTC_MAX
    tau = dt / (1.0 - alpha)
    tau *= alpha
    return truncate_ttc(tau)


def scale_ratio_from_ttc(tau: float, dt: float) -> float:
    """Inverse of :func:`ttc_from_scale_ratio`: alpha = tau / (tau + dt).

    A TTC of exactly -dt has no scale ratio and raises ``DomainError``,
    as does any TTC whose ratio would not be positive.
    """
    if dt <= 0:
        raise DomainError(f"frame interval must be positive, got {dt}")
    if tau == 0 or not math.isfinite(tau):
        raise DomainError(f"TTC must be finite and nonzero, got {tau}")
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
