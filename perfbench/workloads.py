"""The three workloads: the inputs each builds from a seed and the CLI steps of one pass.

Every pass drives the public ``ttckit.cli.main(argv)`` in this process,
one sequence after another, as the command line does.

* ``dataset`` -- synth -> annotate -> eval detection -> report on a
  scenario-script config.  Rendering, PNG, manifests and labelling; no
  scale search and no training.
* ``pixel-search`` -- eval pixel_mse on suite-built sequences whose box
  sides sit in three bands, because pixel-search cost grows with box area.
  The sequences are split over two datasets of one box per band each, so a
  pass is two equal halves and the reference kernel runs between them.
* ``feature-train`` -- train -> eval feature_scale on a scenario-script
  dataset; ``learn`` dominates, sampling runs through the fixed 50x50 grid.

The scenario-script workloads keep their window plan (which script
variants and window start times) fixed at ``PLAN_SEED``: render and ROI
cost follow the box sizes those windows produce, and a seed-drawn plan
moved dataset throughput by 2x between seeds.  ``--seed`` selects the
textures, box jitter, illumination noise and the annotate/train seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ttckit.config import RunConfig, config_hash
from ttckit.manifest import write_index, write_sequence_dir
from ttckit.suites import DEFAULT_SUITE_CAMERA, constant_velocity_suite
from ttckit.synth import NoiseModel

PLAN_SEED = 7
CAMERA = {"f": 800.0, "width": 320, "height": 192}
# pixel-search box sides (px) at the target frame, one band each: 25-35,
# 45-60 and 75-95; the 1.1x box expansion puts the crops at 31, 53, 86 px
PIXEL_SIDES = (28.0, 48.0, 78.0)
# TTC ranges inside crucial/small/large/negative, kept off the closing-speed
# clamp of the suites so box sides stay in their band
PIXEL_TAU_RANGES = ((2.3, 2.9), (3.1, 5.9), (6.1, 18.0), (-18.0, -2.3))


@dataclass(frozen=True)
class Sizes:
    dataset_templates: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    dataset_variants: int = 3
    dataset_seqs_per_variant: int = 3
    pixel_sides: tuple[float, ...] = PIXEL_SIDES
    pixel_per_side: int = 2
    feature_templates: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    feature_variants: int = 1
    train_epochs: int = 36


FULL = Sizes()
TINY = Sizes(dataset_templates=(1, 2), dataset_variants=1, dataset_seqs_per_variant=1,
             pixel_sides=(28.0,), pixel_per_side=2,
             feature_templates=(1, 2), feature_variants=2, train_epochs=2)


def _noise(seed: int) -> dict:
    return {"box_center_jitter_px": 1, "box_scale_jitter": 0.02,
            "gain_range": [0.95, 1.05], "bias_range": [-0.02, 0.02], "seed": seed}


def _write_config(dest: Path, cfg: dict) -> Path:
    path = dest / "config.json"
    path.write_text(json.dumps(cfg, sort_keys=True, indent=1) + "\n")
    return path


class Workload:
    """One workload at one seed.  ``generate`` writes the inputs under a
    directory; ``segments`` gives the CLI argv lists of one pass, grouped
    into segments between which the reference kernel runs."""

    name = ""
    # files of a pass whose sha256 must repeat exactly across passes at one
    # seed
    report_names: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Sizes = FULL) -> None:
        self.seed = seed
        self.sizes = sizes

    def generate(self, dest: Path, cli_main) -> None:
        raise NotImplementedError

    def segments(self, inputs: Path, out: Path) -> list[list[list[str]]]:
        raise NotImplementedError

    def datasets(self, inputs: Path, out: Path) -> dict[str, Path]:
        """Each evaluation report of a pass and the dataset it covers."""
        raise NotImplementedError


class DatasetWorkload(Workload):
    name = "dataset"
    report_names = ("report_detection.json", "report_detection.csv", "results.csv")

    def generate(self, dest, cli_main):
        s = self.sizes
        _write_config(dest, {
            "camera": CAMERA,
            "target": {"texture_seed": self.seed},
            "noise": _noise(self.seed),
            "synth": {"templates": list(s.dataset_templates),
                      "variants_per_template": s.dataset_variants,
                      "sequences_per_variant": s.dataset_seqs_per_variant},
            "seed": PLAN_SEED,
        })

    def datasets(self, inputs, out):
        return {"report_detection.json": out / "data"}

    def segments(self, inputs, out):
        cfg, data = str(inputs / "config.json"), str(out / "data")
        report = str(out / "report_detection.json")
        return [[
            ["synth", "--config", cfg, "--out", data],
            ["annotate", "--dataset", data, "--seed", str(self.seed)],
            ["eval", "--dataset", data, "--estimator", "detection", "--config", cfg,
             "--out", report],
            ["report", "--inputs", report, "--out", str(out / "results.csv")],
        ]]


class PixelSearchWorkload(Workload):
    name = "pixel-search"
    halves = ("a", "b")
    report_names = tuple(f"report_pixel_mse_{h}.{ext}" for h in halves for ext in ("json", "csv"))

    def generate(self, dest, cli_main):
        cfg = {"camera": CAMERA,
               "search_pixel": {"n_bins": 125, "top_k": 3, "shift_c": 3},
               "seed": self.seed}
        _write_config(dest, cfg)
        for half in self.halves:
            (dest / f"data_{half}").mkdir()
        rng = np.random.Generator(np.random.PCG64(self.seed))
        ids: dict[str, list[str]] = {half: [] for half in self.halves}
        # sequence k: side band k // per_side, TTC interval k % 4, so the
        # bands hold a third of the sequences each and all four intervals
        # occur; k alternates between the halves, which then hold the same
        # box sides and cost the same
        for k in range(len(self.sizes.pixel_sides) * self.sizes.pixel_per_side):
            side = self.sizes.pixel_sides[k // self.sizes.pixel_per_side]
            sub = int(rng.integers(1 << 31))
            (seq,) = constant_velocity_suite(
                1, tau_range=PIXEL_TAU_RANGES[k % 4], camera=DEFAULT_SUITE_CAMERA,
                seed=sub, y_last=DEFAULT_SUITE_CAMERA.f * 2.0 / side, prefix=f"px{k:02d}_",
                noise=NoiseModel(box_center_jitter_px=2, box_scale_jitter=0.03, seed=sub),
            )
            half = self.halves[k % len(self.halves)]
            write_sequence_dir(seq, dest / f"data_{half}")
            ids[half].append(seq.sequence_id)
        for half in self.halves:
            write_index(dest / f"data_{half}", ids[half], config_hash(RunConfig.from_dict(cfg)))

    def datasets(self, inputs, out):
        return {f"report_pixel_mse_{h}.json": inputs / f"data_{h}" for h in self.halves}

    def segments(self, inputs, out):
        return [[["eval", "--dataset", str(data), "--estimator", "pixel_mse",
                  "--config", str(inputs / "config.json"), "--out", str(out / report)]]
                for report, data in self.datasets(inputs, out).items()]


class FeatureTrainWorkload(Workload):
    name = "feature-train"
    report_names = ("report_feature_scale.json", "report_feature_scale.csv",
                    "train/weights.bin")

    def generate(self, dest, cli_main):
        s = self.sizes
        cfg = _write_config(dest, {
            "camera": CAMERA,
            "target": {"texture_seed": self.seed},
            "noise": _noise(self.seed),
            "synth": {"templates": list(s.feature_templates),
                      "variants_per_template": s.feature_variants},
            "train": {"epochs": s.train_epochs, "seed": self.seed},
            "seed": PLAN_SEED,
        })
        if cli_main(["synth", "--config", str(cfg), "--out", str(dest / "data")]) != 0:
            raise RuntimeError("feature-train: synth of the input dataset failed")

    def datasets(self, inputs, out):
        return {"report_feature_scale.json": inputs / "data"}

    def segments(self, inputs, out):
        cfg, data = str(inputs / "config.json"), str(inputs / "data")
        weights = str(out / "train" / "weights.bin")
        return [
            [["train", "--dataset", data, "--out", str(out / "train"), "--config", cfg]],
            [["eval", "--dataset", data, "--estimator", "feature_scale", "--weights", weights,
              "--config", cfg, "--out", str(out / "report_feature_scale.json")]],
        ]


WORKLOADS = {w.name: w for w in (DatasetWorkload, PixelSearchWorkload, FeatureTrainWorkload)}
