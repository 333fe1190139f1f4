"""TTC algebra: hand-evaluated conversions, round trips, interval logic."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ttckit.core import (
    TTC_MAX,
    TTC_MIN,
    TtcInterval,
    convert_scale_ratio_fps,
    scale_ratio_from_ttc,
    truncate_ttc,
    ttc_from_depth_velocity,
    ttc_from_scale_ratio,
    ttc_interval,
)
from ttckit.errors import DomainError, ScaleConversionError


def test_ttc_from_depth_velocity_hand_values():
    assert ttc_from_depth_velocity(46.0, 10.0) == pytest.approx(4.6)
    assert ttc_from_depth_velocity(50.0, 0.0) == TTC_MAX
    assert ttc_from_depth_velocity(30.0, -6.0) == pytest.approx(-5.0)


def test_ttc_from_depth_velocity_domain():
    with pytest.raises(DomainError):
        ttc_from_depth_velocity(0.0, 5.0)
    with pytest.raises(DomainError):
        ttc_from_depth_velocity(-3.0, 5.0)
    with pytest.raises(DomainError):
        ttc_from_depth_velocity(10.0, math.nan)
    # sub-epsilon closing rate hits the +20 boundary, not a division blowup
    assert ttc_from_depth_velocity(10.0, 1e-9) == TTC_MAX


def test_ttc_from_scale_ratio_hand_values():
    # at the target frame: tau = dt * alpha / (1 - alpha)
    assert ttc_from_scale_ratio(0.95, 0.1) == pytest.approx(1.9)
    assert ttc_from_scale_ratio(1.0, 0.1) == TTC_MAX
    assert ttc_from_scale_ratio(1.05, 0.1) == pytest.approx(-2.1)


def test_ttc_from_scale_ratio_truncates():
    # alpha barely below 1 -> enormous tau -> clamped
    assert ttc_from_scale_ratio(0.999999, 0.1) == TTC_MAX
    assert ttc_from_scale_ratio(1.000001, 0.1) == TTC_MIN


def test_scale_ratio_from_ttc_hand_values():
    # alpha = tau / (tau + dt)
    assert scale_ratio_from_ttc(1.9, 0.1) == pytest.approx(0.95)
    assert scale_ratio_from_ttc(20.0, 0.1) == pytest.approx(200.0 / 201.0)
    assert scale_ratio_from_ttc(-2.1, 0.1) == pytest.approx(1.05)
    with pytest.raises(DomainError):
        scale_ratio_from_ttc(0.0, 0.1)
    with pytest.raises(DomainError):
        scale_ratio_from_ttc(-0.1, 0.1)


def test_round_trip_reference_frame():
    # the TTC at the reference frame is dt later than at the target frame,
    # and inverts by the one-line formula alpha = 1 - dt / tau
    for alpha in np.linspace(0.65, 1.5, 171):
        if abs(alpha - 1.0) < 1e-9:
            continue
        tau = ttc_from_scale_ratio(alpha, 0.1)
        if abs(tau) >= 20.0:
            continue
        back = 1.0 - 0.1 / (tau + 0.1)
        assert back == pytest.approx(alpha, rel=1e-12)


def test_round_trip_target_frame():
    for alpha in (0.7, 0.9, 0.99, 1.01, 1.3):
        tau = ttc_from_scale_ratio(alpha, 0.1)
        back = scale_ratio_from_ttc(tau, 0.1)
        assert back == pytest.approx(alpha, rel=1e-12)


@given(alpha=st.floats(0.05, 20.0), dt=st.floats(1e-3, 2.0))
def test_round_trip_property(alpha, dt):
    # every scale ratio whose TTC is not truncated comes back from it
    tau = ttc_from_scale_ratio(alpha, dt)
    assume(abs(tau) < TTC_MAX)
    assert scale_ratio_from_ttc(tau, dt) == pytest.approx(alpha, rel=1e-12)


def test_convert_scale_ratio_fps_hand_value():
    # alpha 0.95 at 10 Hz expressed at 2 Hz is exactly 19/24
    assert convert_scale_ratio_fps(0.95, 10.0, 2.0) == pytest.approx(19.0 / 24.0, rel=1e-15)


def test_convert_scale_ratio_fps_identity_and_round_trip():
    assert convert_scale_ratio_fps(0.7, 5.0, 5.0) == 0.7
    down = convert_scale_ratio_fps(0.9, 10.0, 2.0)
    assert convert_scale_ratio_fps(down, 2.0, 10.0) == pytest.approx(0.9, rel=1e-12)


@given(
    alpha=st.floats(0.05, 20.0),
    fps_n=st.floats(0.1, 100.0),
    fps_m=st.floats(0.1, 100.0),
)
def test_convert_scale_ratio_fps_there_and_back_property(alpha, fps_n, fps_m):
    # wherever a rate has an equivalent, converting back recovers the ratio;
    # the rounding of 1/alpha - 1 grows with the rate ratio (at most 1e3 here)
    # and alpha (at most 20), to about 5e-12
    try:
        there = convert_scale_ratio_fps(alpha, fps_n, fps_m)
    except ScaleConversionError:
        assume(False)
    assert there > 0
    assert convert_scale_ratio_fps(there, fps_m, fps_n) == pytest.approx(alpha, rel=1e-10)


def test_convert_scale_ratio_fps_preserves_target_frame_ttc():
    alpha, fps_n, fps_m = 0.92, 10.0, 2.5
    tau = ttc_from_scale_ratio(alpha, 1.0 / fps_n)
    converted = convert_scale_ratio_fps(alpha, fps_n, fps_m)
    tau_m = ttc_from_scale_ratio(converted, 1.0 / fps_m)
    assert tau_m == pytest.approx(tau, rel=1e-12)


def test_convert_scale_ratio_fps_range_error():
    # strongly receding ratio cannot be slowed down 5x
    with pytest.raises(ScaleConversionError):
        convert_scale_ratio_fps(1.3, 10.0, 2.0)


def test_truncate():
    assert truncate_ttc(25.0) == 20.0
    assert truncate_ttc(-33.0) == -20.0
    assert truncate_ttc(4.2) == 4.2
    assert truncate_ttc(math.inf) == 20.0
    assert truncate_ttc(-math.inf) == -20.0
    with pytest.raises(DomainError):
        truncate_ttc(math.nan)


def test_interval_examples():
    assert ttc_interval(2.5) is TtcInterval.CRUCIAL
    assert ttc_interval(20.0) is TtcInterval.LARGE
    assert ttc_interval(-0.5) is TtcInterval.NEGATIVE


def test_interval_boundaries():
    assert ttc_interval(0.0) is TtcInterval.CRUCIAL
    assert ttc_interval(3.0) is TtcInterval.SMALL
    assert ttc_interval(6.0) is TtcInterval.LARGE
    assert ttc_interval(-20.0) is TtcInterval.NEGATIVE
    with pytest.raises(DomainError):
        ttc_interval(20.5)


def test_interval_grid_partition():
    # every truncated value gets exactly one tag; tags match the bounds
    grid = np.concatenate([np.arange(-20.0, 20.0, 1e-3), [20.0]])
    for tau in grid:
        tag = ttc_interval(float(tau))
        lo, hi = tag.bounds
        if tag is TtcInterval.LARGE:
            assert lo - 1e-12 <= tau <= hi + 1e-12
        elif tag is TtcInterval.NEGATIVE:
            assert lo - 1e-12 <= tau < hi or tau == lo
        else:
            assert lo - 1e-12 <= tau < hi


def test_ttc_from_scale_ratio_monotone_in_alpha():
    dt = 0.1
    lows = [ttc_from_scale_ratio(a, dt) for a in np.linspace(0.65, 0.9999, 80)]
    highs = [ttc_from_scale_ratio(a, dt) for a in np.linspace(1.0001, 1.5, 80)]
    # strictly increasing on both branches (before truncation kicks in)
    for seq in (lows, highs):
        untruncated = [t for t in seq if TTC_MIN < t < TTC_MAX]
        assert all(b > a for a, b in zip(untruncated, untruncated[1:]))

