"""Scripted straight-lane kinematics for the synthetic data oracle.

A scenario is an initial state (ego speed, target speed, longitudinal
gap, relative lateral offset) plus a list of constant-acceleration
phases.  Each phase ends at the earliest of: a fixed duration, the gap
dropping below a trigger distance, the relative speed reaching zero, a
lateral offset being reached, contact (gap 0), or the horizon.  Within
a phase everything is integrated in closed form, so trajectory queries
are exact.

Each built-in template is a grid over its parameter axes (speeds,
trigger distances, acceleration magnitudes), a few thousand variants in
all, covering braking leads, cut-ins, lane changes, and pull-away cases.
A variant is built from its index alone, so a caller that picks a few
builds only those.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import DomainError

KMH = 1.0 / 3.6  # km/h -> m/s

#: Relative lateral offset treated as "fully in another lane".
LANE_WIDTH = 3.5


@dataclass(frozen=True)
class Phase:
    """One constant-acceleration phase. Accelerations in m/s^2, rates in m/s."""

    ego_accel: float = 0.0
    target_accel: float = 0.0
    lateral_rate: float = 0.0
    duration: float | None = None
    until_gap_below: float | None = None
    until_speed_matched: bool = False
    until_lateral_reaches: float | None = None


@dataclass(frozen=True)
class ScenarioScript:
    script_id: int
    v_ego0: float  # km/h
    v_target0: float  # km/h
    y0: float  # m, initial longitudinal gap
    phases: tuple[Phase, ...] = ()
    lateral0: float = 0.0  # m, initial relative lateral offset
    template: int = 0
    description: str = ""
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.y0 <= 0:
            raise DomainError(f"initial gap must be positive, got {self.y0}")


@dataclass(frozen=True)
class _Segment:
    t0: float
    t1: float
    y0: float
    v_close0: float  # closing rate, m/s; positive approaches
    a_close: float
    lat0: float
    lat_rate: float

    def depth(self, t: float) -> float:
        dt = t - self.t0
        return self.y0 - self.v_close0 * dt - 0.5 * self.a_close * dt * dt

    def closing_speed(self, t: float) -> float:
        return self.v_close0 + self.a_close * (t - self.t0)

    def lateral(self, t: float) -> float:
        return self.lat0 + self.lat_rate * (t - self.t0)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise closed-form relative motion of one target."""

    segments: tuple[_Segment, ...]
    t_end: float
    contact_time: float | None

    def _segment_at(self, t: float) -> _Segment:
        if t < 0 or t > self.t_end + 1e-12:
            raise DomainError(f"time {t} outside trajectory range [0, {self.t_end}]")
        for seg in self.segments:
            if t < seg.t1:
                return seg
        return self.segments[-1]

    def depth(self, t: float) -> float:
        return self._segment_at(t).depth(t)

    def closing_speed(self, t: float) -> float:
        return self._segment_at(t).closing_speed(t)

    def lateral(self, t: float) -> float:
        return self._segment_at(t).lateral(t)


def _smallest_positive_root(a: float, b: float, c: float) -> float:
    """Smallest root >= 0 of a*t^2 + b*t + c = 0, or inf if none."""
    if abs(a) < 1e-15:
        if abs(b) < 1e-15:
            return 0.0 if abs(c) < 1e-12 else math.inf
        t = -c / b
        return t if t >= 0 else math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return math.inf
    sq = math.sqrt(disc)
    roots = sorted(((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)))
    for t in roots:
        if t >= -1e-12:
            return max(t, 0.0)
    return math.inf


def _time_to_gap(y: float, v_close: float, a_close: float, gap: float) -> float:
    """Smallest dt >= 0 at which depth reaches `gap`, or inf."""
    if y <= gap:
        return 0.0
    # y - v*dt - a/2*dt^2 = gap  ->  (a/2) dt^2 + v dt - (y - gap) = 0
    return _smallest_positive_root(0.5 * a_close, v_close, -(y - gap))


def simulate_script(script: ScenarioScript, horizon: float) -> Trajectory:
    """Integrate a scenario into a piecewise closed-form trajectory.

    The trajectory ends at the horizon or at contact (gap 0), whichever
    comes first.  Contact ending is a normal outcome, not an error.
    """
    if horizon <= 0:
        raise DomainError(f"horizon must be positive, got {horizon}")
    t = 0.0
    y = script.y0
    v_ego = script.v_ego0 * KMH
    v_tgt = script.v_target0 * KMH
    lat = script.lateral0

    segments: list[_Segment] = []
    contact_time: float | None = None
    # Terminal coast keeps the trajectory defined up to the horizon.
    phases = list(script.phases) + [Phase()]

    for phase in phases:
        if t >= horizon or contact_time is not None:
            break
        a_close = phase.ego_accel - phase.target_accel
        v_close = v_ego - v_tgt

        dt_candidates = [horizon - t]
        if phase.duration is not None:
            dt_candidates.append(max(phase.duration, 0.0))
        if phase.until_gap_below is not None:
            dt_candidates.append(_time_to_gap(y, v_close, a_close, phase.until_gap_below))
        if phase.until_speed_matched:
            if v_close <= 0:
                dt_candidates.append(0.0)
            elif a_close < 0:
                dt_candidates.append(-v_close / a_close)
        if phase.until_lateral_reaches is not None:
            delta = phase.until_lateral_reaches - lat
            if abs(delta) < 1e-12:
                dt_candidates.append(0.0)
            elif phase.lateral_rate != 0 and delta / phase.lateral_rate >= 0:
                dt_candidates.append(delta / phase.lateral_rate)

        dt_contact = _time_to_gap(y, v_close, a_close, 0.0)
        dt = min(min(dt_candidates), dt_contact)
        if not math.isfinite(dt):
            dt = horizon - t

        if dt > 0:
            segments.append(
                _Segment(t, t + dt, y, v_close, a_close, lat, phase.lateral_rate)
            )
        if dt >= dt_contact and math.isfinite(dt_contact):
            contact_time = t + dt_contact

        y = y - v_close * dt - 0.5 * a_close * dt * dt
        v_ego += phase.ego_accel * dt
        v_tgt += phase.target_accel * dt
        lat += phase.lateral_rate * dt
        t += dt

    if not segments:
        segments.append(_Segment(0.0, horizon, y, 0.0, 0.0, lat, 0.0))
        t = horizon
    return Trajectory(tuple(segments), t_end=t, contact_time=contact_time)


def run_script(
    script: ScenarioScript, fps: float, horizon: float
) -> list[tuple[float, float, float, float]]:
    """Sample a scenario at frame times; returns (t, depth, closing, lateral).

    Sampling stops before contact, so every emitted depth is positive.
    Demo 02 prints a scenario with it; the CLI renders from
    ``simulate_script`` trajectories instead.
    """
    if fps <= 0:
        raise DomainError(f"fps must be positive, got {fps}")
    traj = simulate_script(script, horizon)
    samples = []
    k = 0
    while True:
        t = k / fps
        if t > traj.t_end or (traj.contact_time is not None and t >= traj.contact_time):
            break
        y = traj.depth(t)
        if y <= 0:
            break
        samples.append((t, y, traj.closing_speed(t), traj.lateral(t)))
        k += 1
    return samples


def constant_velocity_script(
    v_ego_kmh: float, v_target_kmh: float, y0: float, script_id: int = 0
) -> ScenarioScript:
    """A coasting scenario: both vehicles hold speed on a straight lane."""
    return ScenarioScript(
        script_id=script_id,
        v_ego0=v_ego_kmh,
        v_target0=v_target_kmh,
        y0=y0,
        description="constant speeds",
    )


def _frange(lo: float, hi: float, step: float) -> tuple[float, ...]:
    values = []
    v = lo
    while v <= hi + 1e-9:
        values.append(round(v, 9))
        v += step
    return tuple(values)


def _fields(v_ego0: float, v_target0: float, y0: float, phases, lateral0: float = 0.0,
            **params) -> dict:
    """A variant's script fields, its named parameters sorted by name."""
    return {"v_ego0": v_ego0, "v_target0": v_target0, "y0": y0, "phases": tuple(phases),
            "lateral0": lateral0, "params": tuple(sorted(params.items()))}


@dataclass(frozen=True)
class ScenarioTemplate:
    """A built-in scenario template: a grid over its parameter axes.

    Variant ``i`` (0-based) is the grid point whose axis indices are the
    digits of ``i`` in the mixed radix of the axis lengths, the last axis
    varying fastest: the order in which nested loops over the axes, the
    first outermost, visit the grid.  ``make`` maps a point's axis values,
    in axis order, to the variant's script fields.  A variant is built
    only when asked for, so counting and indexing variants builds none.
    """

    template: int
    description: str
    axes: tuple[tuple[float, ...], ...]
    make: Callable[..., dict]

    def __len__(self) -> int:
        return math.prod(len(axis) for axis in self.axes)

    def script(self, variant: int, script_id: int) -> ScenarioScript:
        """Variant ``variant`` of the template, numbered ``script_id``."""
        if not 0 <= variant < len(self):
            raise DomainError(f"template {self.template} has {len(self)} variants, "
                              f"got variant {variant}")
        values = []
        for axis in reversed(self.axes):
            variant, i = divmod(variant, len(axis))
            values.append(axis[i])
        return ScenarioScript(script_id=script_id, template=self.template,
                              description=self.description, **self.make(*reversed(values)))


_SPEEDS = (40.0, 60.0, 80.0)
_LEAD_BRAKES = "lead brakes at -3 for 3 s, ego then brakes at -4 until matched"
_LEAD_BRAKES_PHASES = (
    Phase(target_accel=-3.0, duration=3.0),
    Phase(ego_accel=-4.0, until_speed_matched=True),
)

#: The built-in templates by id: speeds, trigger distances and acceleration
#: magnitudes permuted over braking leads, lane changes, cut-ins and
#: pull-aways, 3,218 variants in all.
BUILTIN_TEMPLATES = {t.template: t for t in (
    ScenarioTemplate(
        1, _LEAD_BRAKES, (_SPEEDS,),
        lambda v: _fields(v, v, 50.0, _LEAD_BRAKES_PHASES),
    ),
    ScenarioTemplate(
        2, "closing on slower lead, ego changes lane at trigger gap",
        (_SPEEDS, _frange(10.0, 50.0, 5.0)),
        lambda v, d: _fields(
            v, v - 20.0, 65.0,
            [Phase(until_gap_below=d),
             Phase(lateral_rate=2.0, until_lateral_reaches=LANE_WIDTH)],
            trigger_gap=d),
    ),
    ScenarioTemplate(
        3, "ego accelerates toward slow car that cuts in as ego brakes",
        ((60.0, 80.0), (20.0, 40.0), _frange(0.5, 3.0, 0.5), _frange(10.0, 50.0, 5.0)),
        lambda v_ego, v_tgt, accel, d: _fields(
            v_ego, v_tgt, 65.0,
            [Phase(ego_accel=accel, until_gap_below=d),
             Phase(ego_accel=-4.0, lateral_rate=-2.0, until_lateral_reaches=0.0,
                   until_speed_matched=True)],
            lateral0=LANE_WIDTH, ego_accel=accel, trigger_gap=d),
    ),
    ScenarioTemplate(
        4, _LEAD_BRAKES, ((60.0, 80.0),),
        lambda v: _fields(v, 60.0, 65.0, _LEAD_BRAKES_PHASES),
    ),
    ScenarioTemplate(
        5, "lead pulls away while ego drifts across at trigger gap",
        ((40.0, 60.0), (20.0, 30.0), _frange(0.5, 3.0, 0.5), _frange(20.0, 60.0, 4.0),
         _frange(0.5, 1.5, 0.2)),
        lambda v_ego, v_tgt, accel, d, rate: _fields(
            v_ego, v_tgt, 65.0,
            [Phase(target_accel=accel, until_gap_below=d),
             Phase(target_accel=accel, lateral_rate=rate, until_lateral_reaches=LANE_WIDTH,
                   until_gap_below=5.0)],
            target_accel=accel, trigger_gap=d, lateral_rate=rate),
    ),
    ScenarioTemplate(
        6, "lead accelerates, ego brakes at trigger gap until matched",
        (_SPEEDS, _frange(0.5, 3.0, 0.5), _frange(10.0, 50.0, 4.0), _frange(1.0, 4.0, 0.5)),
        lambda v_ego, accel, d, dec: _fields(
            v_ego, v_ego - 30.0, 65.0,
            [Phase(target_accel=accel, until_gap_below=d),
             Phase(target_accel=accel, ego_accel=-dec, until_speed_matched=True,
                   until_gap_below=5.0)],
            target_accel=accel, trigger_gap=d, ego_decel=dec),
    ),
)}

#: Ids of the built-in scenario templates.
TEMPLATE_IDS = tuple(BUILTIN_TEMPLATES)


def template_expansion(templates) -> list[tuple[ScenarioTemplate, int]]:
    """The built-in templates ``templates`` names, each once and in id order,
    each with the ``script_id`` of its variant 0.

    Variant ``i`` of a template is script ``first + i``: its 1-based
    position in the expansion of these templates, every variant of each in
    turn.  Sequence names and texture seeds carry that number, so it
    depends on which templates are expanded.
    """
    expansion, first = [], 1
    for template in sorted(set(templates)):
        grid = BUILTIN_TEMPLATES[template]
        expansion.append((grid, first))
        first += len(grid)
    return expansion
