"""Quick self-check of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.cap_threads()
run.import_ttckit()

from layers import PER_LAYER  # noqa: E402
from reference import NOMINAL_S, Reference, at_nominal  # noqa: E402
from spans import wrappers_present  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace):
    result = run.run_benchmark(name, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in table]
    assert not wrappers_present()
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    stages = sum(v for k, v in values.items() if k.startswith("cli."))
    assert stages + values["trace.unattributed_s"] == pytest.approx(values["trace.timed_s"])
    assert values["trace.unattributed_s"] < 0.05 * values["trace.timed_s"]
    if name == "pixel-search":
        covered = values["sampling.bilinear_s"] + values["estimate.pixel_mse_self_s"]
        assert covered > 0.5 * values["cli.eval_pixel_mse_s"]
        assert values["estimate.candidates_scored"] == values["estimate.pixel_mse_calls"] * 125 * 49
    if name == "dataset":
        assert values["synth.render_calls"] == 6 * values["annotate.sequence_calls"] > 0
        untouched = [k for k in values if k.startswith(("learn.", "estimate.pixel_mse",
                                                         "estimate.feature_scale", "sampling."))]
        assert all(values[k] == 0 for k in untouched if not k.endswith("_top_pct"))
    if name == "feature-train":
        assert values["learn.epochs"] == TINY.train_epochs
        assert values["learn.save_weights_calls"] == TINY.train_epochs + 1


def test_reference_scales_wall_time_to_the_nominal_host_speed():
    ref = Reference()
    assert ref.seconds() > 0 and ref.last == ref.history[-1]
    assert at_nominal(3.0, NOMINAL_S, NOMINAL_S) == pytest.approx(3.0)
    # a host running the reference at half speed ran the work at half speed too
    assert at_nominal(3.0, 2 * NOMINAL_S, 2 * NOMINAL_S) == pytest.approx(1.5)


def test_seed_selects_the_inputs(tmp_path):
    def digest(seed: int, dest: Path) -> dict[str, bytes]:
        dest.mkdir()
        WORKLOADS["pixel-search"](seed, TINY).generate(dest, None)
        return {str(p.relative_to(dest)): p.read_bytes() for p in sorted(dest.rglob("*"))
                if p.is_file()}

    first, again = digest(3, tmp_path / "a"), digest(3, tmp_path / "b")
    assert first == again
    assert digest(4, tmp_path / "c") != first


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "dataset",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
