"""Kinematic scenario engine: hand-checked closed-form trajectories."""

import hashlib

import numpy as np
import pytest

from ttckit.errors import DomainError
from ttckit.scenarios import (
    BUILTIN_TEMPLATES,
    TEMPLATE_IDS,
    Phase,
    ScenarioScript,
    constant_velocity_script,
    run_script,
    simulate_script,
    template_expansion,
)

KMH = 1.0 / 3.6


def _braking_lead(v_kmh: float, y0: float) -> ScenarioScript:
    return ScenarioScript(
        script_id=1,
        v_ego0=v_kmh,
        v_target0=v_kmh,
        y0=y0,
        phases=(
            Phase(target_accel=-3.0, duration=3.0),
            Phase(ego_accel=-4.0, until_speed_matched=True),
        ),
    )


def test_braking_lead_closing_speed():
    traj = simulate_script(_braking_lead(60.0, 50.0), horizon=12.0)
    # target decelerates at -3 for 3 s: closing speed grows 0 -> 9 m/s
    assert traj.closing_speed(3.0) == pytest.approx(9.0)
    assert traj.closing_speed(1.0) == pytest.approx(3.0)
    # ego then brakes at -4 relative to a coasting target: matched after 2.25 s
    assert traj.closing_speed(3.0 + 2.25) == pytest.approx(0.0, abs=1e-12)
    assert traj.closing_speed(8.0) == pytest.approx(0.0, abs=1e-12)


def test_braking_lead_depth_hand_integration():
    traj = simulate_script(_braking_lead(60.0, 50.0), horizon=12.0)
    # depth after phase 1: y = 50 - (1/2)(3)(3^2) = 36.5 m
    assert traj.depth(3.0) == pytest.approx(36.5)
    # mid-phase check at t=2: y = 50 - 0.5*3*4 = 44
    assert traj.depth(2.0) == pytest.approx(44.0)


def test_constant_speeds_depth_constant():
    traj = simulate_script(constant_velocity_script(60.0, 60.0, 40.0), horizon=10.0)
    for t in np.linspace(0, 10, 23):
        assert traj.depth(float(t)) == pytest.approx(40.0)
        assert traj.closing_speed(float(t)) == 0.0


def test_constant_closing_contact_time():
    # 80 vs 60 km/h over 65 m: contact at 65 / (20/3.6) = 11.7 s
    traj = simulate_script(constant_velocity_script(80.0, 60.0, 65.0), horizon=20.0)
    assert traj.contact_time == pytest.approx(11.7)
    samples = run_script(constant_velocity_script(80.0, 60.0, 65.0), fps=10.0, horizon=20.0)
    assert all(y > 0 for _, y, _, _ in samples)
    assert samples[-1][0] < traj.contact_time
    # depth at 1 Hz spot checks
    t, y, v, _ = samples[36]
    assert t == pytest.approx(3.6)
    assert y == pytest.approx(65.0 - 20.0 * KMH * 3.6)
    assert v == pytest.approx(20.0 * KMH)


def test_lane_change_phase_trigger():
    script = ScenarioScript(
        script_id=2,
        v_ego0=60.0,
        v_target0=40.0,
        y0=65.0,
        phases=(
            Phase(until_gap_below=30.0),
            Phase(lateral_rate=2.0, until_lateral_reaches=3.5),
        ),
    )
    traj = simulate_script(script, horizon=30.0)
    # gap hits 30 m after (65-30)/(20/3.6) = 6.3 s; lane change takes 1.75 s
    assert traj.depth(6.3) == pytest.approx(30.0)
    assert traj.lateral(6.3) == pytest.approx(0.0)
    assert traj.lateral(6.3 + 1.0) == pytest.approx(2.0)
    assert traj.lateral(6.3 + 1.75) == pytest.approx(3.5)
    assert traj.lateral(10.0) == pytest.approx(3.5)  # rate stops after completion


def test_depth_ratio_composes_multiplicatively():
    traj = simulate_script(_braking_lead(80.0, 50.0), horizon=8.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t0, t1, t2 = np.sort(rng.uniform(0.1, 7.5, size=3))
        a01 = traj.depth(t1) / traj.depth(t0)
        a12 = traj.depth(t2) / traj.depth(t1)
        a02 = traj.depth(t2) / traj.depth(t0)
        assert a02 == pytest.approx(a01 * a12, rel=1e-12)


def _expansion(templates=TEMPLATE_IDS) -> list[ScenarioScript]:
    """Every variant of ``templates``, built one by one from the grids, in
    script_id order."""
    return [grid.script(i, first + i) for grid, first in template_expansion(templates)
            for i in range(len(grid))]


# sha256 of repr() of the list of every variant of the selected templates,
# as nested loops over each template's axes built it before the templates
# became indexable grids
_LOOP_EXPANSION_SHA256 = {
    TEMPLATE_IDS: "4eb811e1c203582fdabb35cd174e7b8291a063e0840d91c13fd8db1f673f42b9",
    (1,): "d0f646ea5f51bcf0e854b045d1cea50cc60e6ca5777917693beb428ad842097f",
    (2,): "207ce6da68b5609655039631aa74bc53eda32097fff6478b60e5e65db25520fa",
    (3,): "40fa25e5dacac878b31f6fd166d74f36e4872c4353888ca40575c6d04551b4a8",
    (4,): "3f798b12f77f28322f1108fdba1c1409f7bdddd6635d324af13e39d29ae61f52",
    (5,): "353157261632ccaf805337b7cc8339fe0fed11f6c9fcd8430451de72fcbc5a2c",
    (6,): "cfe1f09f3dae03902999b0f18a96cd2dfb78edbd4bd8bda4676b38f7df2b83a0",
    (2, 4): "a4134e4eb7c7afee88b273ca024bcec2d2847de3d66bcad91d10f3978bb771a5",
    (1, 1, 3): "7a5bcc5df49e195ec1f32e3d8455cfd49c674bbfe05f3b14d881de28e6a20e19",
}


@pytest.mark.parametrize("templates", list(_LOOP_EXPANSION_SHA256), ids=str)
def test_template_grids_rebuild_the_loop_expansion(templates):
    # every field of every variant, script_id included, in the same order:
    # the script_ids name sequences and seed textures, so a changed one
    # changes the dataset bytes
    digest = hashlib.sha256(repr(_expansion(templates)).encode()).hexdigest()
    assert digest == _LOOP_EXPANSION_SHA256[templates]


def test_builtin_scripts_expansion():
    scripts = _expansion()
    assert len(scripts) == 3218
    ids = [s.script_id for s in scripts]
    assert ids == list(range(1, len(scripts) + 1))  # unique, ascending
    per_template = {t: 0 for t in range(1, 7)}
    for s in scripts:
        per_template[s.template] += 1
    assert per_template[1] == 3
    assert per_template[2] == 3 * 9
    assert per_template[4] == 2
    assert per_template == {t: len(grid) for t, grid in BUILTIN_TEMPLATES.items()}
    # spot-simulate a deterministic subset; depths stay positive up to t_end
    for s in scripts[:: max(1, len(scripts) // 40)]:
        traj = simulate_script(s, horizon=10.0)
        for t in np.linspace(0, traj.t_end * 0.999, 7):
            if traj.contact_time is not None and t >= traj.contact_time:
                break
            assert traj.depth(float(t)) > 0


def test_builtin_scripts_template_filter():
    only_two = _expansion(templates=[2])
    assert {s.template for s in only_two} == {2}
    assert len(only_two) == 27
    assert [s.script_id for s in only_two] == list(range(1, 28))
    # a template's variants are numbered after those of the templates before it
    assert [(grid.template, first) for grid, first in template_expansion([4, 2, 4])] == [
        (2, 1), (4, 28)]


@pytest.mark.parametrize("variant", [-1, 27])
def test_a_template_refuses_a_variant_outside_its_grid(variant):
    # a negative index would otherwise wrap around like a list's
    with pytest.raises(DomainError, match="template 2 has 27 variants"):
        BUILTIN_TEMPLATES[2].script(variant, 1)
