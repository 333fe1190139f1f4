"""End-to-end CLI pipelines on a small synthetic dataset."""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import ttckit
from ttckit.cli import main
from ttckit.config import RunConfig, config_hash
from ttckit.errors import DomainError, ManifestError
from ttckit.manifest import read_index, read_sequence_dir

SMALL_CONFIG = {
    "camera": {"f": 800.0, "width": 320, "height": 192},
    "synth": {
        "templates": [1, 4],
        "variants_per_template": 2,
        "sequences_per_variant": 1,
    },
    "search_pixel": {"n_bins": 40, "shift_c": 1},
    "search_feature": {
        "n_bins": 20, "top_k": 4, "shift_c": 1, "target_w": 20, "target_h": 20,
    },
    "train": {"epochs": 3, "batch_size": 4},
    "seed": 11,
}


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    return root, cfg_path, out


@pytest.fixture(scope="module")
def validated_dataset(tmp_path_factory):
    # eight sequences: every fifth is held out, so one is for validation
    root = tmp_path_factory.mktemp("cli_val")
    cfg_path = root / "config.json"
    cfg = {**SMALL_CONFIG, "synth": {**SMALL_CONFIG["synth"], "sequences_per_variant": 2}}
    cfg_path.write_text(json.dumps(cfg))
    out = root / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert read_index(out)["count"] >= 5
    return root, cfg_path, out


def test_synth_writes_indexed_dataset(small_dataset):
    _, cfg_path, out = small_dataset
    index = read_index(out)
    assert index["count"] == len(index["sequences"]) > 0
    expected_hash = config_hash(RunConfig.from_json_file(cfg_path))
    assert index["config_hash"] == expected_hash
    seq = read_sequence_dir(out / index["sequences"][0])
    assert len(seq.frames) == 6
    assert seq.label is not None
    assert (out / index["sequences"][0] / "frame_0.png").is_file()


def test_synth_rerun_is_byte_identical(small_dataset, tmp_path):
    _, cfg_path, out = small_dataset
    out2 = tmp_path / "data2"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out2)]) == 0
    index = read_index(out)
    assert (out2 / "index.json").read_bytes() == (out / "index.json").read_bytes()
    for seq_id in index["sequences"]:
        for name in ("manifest.json", "frame_0.png", "frame_5.png"):
            assert (out2 / seq_id / name).read_bytes() == (out / seq_id / name).read_bytes()


def test_synth_empty_selection(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "synth": {"templates": []}}))
    out = tmp_path / "empty"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert read_index(out)["count"] == 0


def test_synth_refuses_out_of_range_settings(tmp_path, capsys):
    # each setting used to die inside the run (exit 1), write an empty or
    # nonsense dataset (exit 0), or fail with an unrelated message
    nan = float("nan")
    bad = [
        {"templates": [9]}, {"templates": [0]}, {"templates": [1.0]}, {"templates": [True]},
        {"templates": "1"}, {"variants_per_template": 1.5}, {"variants_per_template": 0},
        {"sequences_per_variant": 1.5}, {"sequences_per_variant": 0},
        {"length": 6.5}, {"length": 1}, {"fps": -10.0}, {"fps": 0.0}, {"fps": nan},
        {"start_min": -1.0}, {"start_min": nan}, {"background": 3.0}, {"background": -0.1},
        {"background": nan}, {"vary_texture": 1},
    ]
    for i, synth in enumerate(bad):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "synth": {**SMALL_CONFIG["synth"], **synth}}))
        out = tmp_path / f"out{i}"
        rc = main(["synth", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2, synth
        assert err.startswith("error: synth ") and "internal error" not in err, synth
        assert not out.exists(), synth


def _synth_small(tmp_path) -> tuple[int, Path]:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "data"
    return main(["synth", "--config", str(cfg_path), "--out", str(out)]), out


def test_synth_reports_a_write_error_and_stops_its_writer(tmp_path, capsys, monkeypatch):
    # the 8th PNG is the second window's second frame, written on the
    # writer thread; its error reaches the main thread with exit 2
    import ttckit.manifest

    write_png = ttckit.manifest.write_png
    calls = []

    def failing_write_png(path, image):
        calls.append(path)
        if len(calls) == 8:
            raise ManifestError(f"disk full writing {path.name}")
        write_png(path, image)

    monkeypatch.setattr(ttckit.manifest, "write_png", failing_write_png)
    threads = threading.active_count()
    rc, out = _synth_small(tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == "error: disk full writing frame_1.png\n"
    assert not (out / "index.json").exists()
    assert threading.active_count() == threads


def test_synth_keeps_the_windows_written_before_a_render_error(
    small_dataset, tmp_path, capsys, monkeypatch
):
    # the window in flight when the third render fails is still written
    # whole: every frame and its manifest, byte for byte as a full run
    import ttckit.cli

    generate = ttckit.cli.generate_from_trajectory
    rendered = []

    def failing_generate(*args, **kwargs):
        if len(rendered) == 2:
            raise DomainError("render failed")
        rendered.append(kwargs["sequence_id"])
        return generate(*args, **kwargs)

    monkeypatch.setattr(ttckit.cli, "generate_from_trajectory", failing_generate)
    threads = threading.active_count()
    rc, out = _synth_small(tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == "error: render failed\n"
    assert not (out / "index.json").exists()
    assert threading.active_count() == threads
    full = small_dataset[2]
    assert sorted(p.name for p in out.iterdir()) == sorted(rendered)
    for seq_id in rendered:
        names = [f"frame_{i}.png" for i in range(6)] + ["manifest.json"]
        assert sorted(p.name for p in (out / seq_id).iterdir()) == sorted(names)
        for name in names:
            assert (out / seq_id / name).read_bytes() == (full / seq_id / name).read_bytes()


def test_annotate_round_trip(small_dataset, tmp_path):
    _, cfg_path, out = small_dataset
    copy = tmp_path / "annotated"
    import shutil

    shutil.copytree(out, copy)
    assert main(["annotate", "--dataset", str(copy)]) == 0
    index = read_index(copy)
    assert index["annotated"] is True
    for seq_id in index["sequences"]:
        seq = read_sequence_dir(copy / seq_id)
        assert "annotated" in seq.label.flags
        assert seq.label.q_used in (3, 5, 10)
        # exact per-gap ratios from the generator survive re-annotation
        assert seq.label.alpha_by_gap is not None


def test_estimate_prints_profile(small_dataset, capsys):
    _, cfg_path, out = small_dataset
    seq_id = read_index(out)["sequences"][0]
    rc = main([
        "estimate", "--dataset", str(out), "--seq", seq_id,
        "--estimator", "pixel_mse", "--config", str(cfg_path),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "alpha_hat" in printed and "top bins:" in printed


def test_eval_writes_reports(small_dataset, capsys):
    _, cfg_path, out = small_dataset
    report_path = out / "rep_detection.json"
    rc = main([
        "eval", "--dataset", str(out), "--estimator", "detection",
        "--config", str(cfg_path), "--out", str(report_path),
    ])
    assert rc == 0
    data = json.loads(report_path.read_text())
    assert data["estimator_id"] == "detection"
    assert data["n_sequences"] == read_index(out)["count"]
    assert report_path.with_suffix(".csv").is_file()
    assert "MiD_c" in capsys.readouterr().out


def test_train_then_eval_with_weights(small_dataset, tmp_path, capsys):
    _, cfg_path, out = small_dataset
    train_dir = tmp_path / "trained"
    rc = main([
        "train", "--dataset", str(out), "--out", str(train_dir),
        "--config", str(cfg_path),
    ])
    assert rc == 0
    assert (train_dir / "weights.bin").is_file()
    assert (train_dir / "loss_curve.csv").read_text().startswith("epoch,train_loss,val_mid")
    rc = main([
        "eval", "--dataset", str(out), "--estimator", "feature_scale",
        "--config", str(cfg_path), "--weights", str(train_dir / "weights.bin"),
        "--out", str(tmp_path / "rep_fs.json"),
    ])
    assert rc == 0


def test_train_rerun_is_byte_identical(small_dataset, tmp_path):
    _, cfg_path, out = small_dataset

    def train(tag: str) -> bytes:
        train_dir = tmp_path / tag
        assert main([
            "train", "--dataset", str(out), "--out", str(train_dir),
            "--config", str(cfg_path),
        ]) == 0
        return (train_dir / "weights.bin").read_bytes()

    first = train("run_a")
    assert first == train("run_b")
    assert len(first) == 4 * (20 * 20 + 20)  # float32 head weights and biases


def test_eval_rejects_hash_mismatch(small_dataset, tmp_path):
    _, cfg_path, out = small_dataset
    # weights claiming a different dataset hash must be refused without --force
    from ttckit.learn import save_weights
    from ttckit.estimate import identity_head

    w, b = identity_head(20)
    wpath = tmp_path / "foreign.bin"
    save_weights(wpath, {"fc.weight": w, "fc.bias": b},
                 extra={"dataset_config_hash": "deadbeef"})
    args = [
        "eval", "--dataset", str(out), "--estimator", "feature_scale",
        "--config", str(cfg_path), "--weights", str(wpath),
        "--out", str(tmp_path / "r.json"),
    ]
    assert main(args) == 2
    assert main(args + ["--force"]) == 0


def test_eval_rejects_weights_that_do_not_fit_the_head(small_dataset, tmp_path, capsys):
    # a weights file that does not fit the 20-bin search fails before the
    # first sequence, with exit 2 and no report; a fitting head beside conv
    # stack weights is refused too, as the estimator's features are fixed
    _, cfg_path, out = small_dataset
    from ttckit.estimate import identity_head
    from ttckit.learn import save_weights

    w, b = identity_head(20)
    w7, b7 = identity_head(7)
    # a 5x5 conv stack over the 12 feature channels, 2 channels wide
    conv = {
        "conv1.weight": np.zeros((5 * 5 * 12, 2)), "conv1.bias": np.zeros(2),
        "up.weight": np.zeros((3 * 3 * 2, 2)), "up.bias": np.zeros(2),
        "conv2.weight": np.zeros((5 * 5 * 2, 2)), "conv2.bias": np.zeros(2),
        "conv3.weight": np.zeros((5 * 5 * 2, 2)), "conv3.bias": np.zeros(2),
    }
    bad = {
        "seven_bins": {"fc.weight": w7, "fc.bias": b7},
        "unknown_key": {"fc.weight": w, "fc.bias": b, "fc.scale": b},
        "no_head": {"other.weight": w},
        "bias_only": {"fc.bias": b},
        "conv_stack": {**conv, "fc.weight": w, "fc.bias": b},
    }
    for name, params in bad.items():
        wpath = tmp_path / f"{name}.bin"
        save_weights(wpath, params)
        report = tmp_path / f"{name}.json"
        rc = main([
            "eval", "--dataset", str(out), "--estimator", "feature_scale",
            "--config", str(cfg_path), "--weights", str(wpath), "--out", str(report),
        ])
        assert rc == 2, name
        assert "do not fit the 20-bin feature_scale head" in capsys.readouterr().err
        assert not report.exists()


def test_eval_rejects_malformed_weights_files(small_dataset, tmp_path, capsys):
    # a blob or sidecar that cannot be read is an input error: exit 2 and
    # no report, never an internal error
    _, cfg_path, out = small_dataset
    from ttckit.estimate import identity_head
    from ttckit.learn import save_weights, sidecar_path

    w, b = identity_head(20)
    cases = {
        "short_blob": lambda p: p.write_bytes(p.read_bytes()[:-8]),
        "sidecar_not_json": lambda p: sidecar_path(p).write_text("not json {"),
        "empty_sidecar": lambda p: sidecar_path(p).write_text("{}"),
    }
    for name, corrupt in cases.items():
        wpath = tmp_path / f"{name}.bin"
        save_weights(wpath, {"fc.weight": w, "fc.bias": b})
        corrupt(wpath)
        report = tmp_path / f"{name}.json"
        rc = main([
            "eval", "--dataset", str(out), "--estimator", "feature_scale",
            "--config", str(cfg_path), "--weights", str(wpath), "--out", str(report),
        ])
        assert rc == 2, name
        assert "internal error" not in capsys.readouterr().err, name
        assert not report.exists(), name


def test_train_rejects_a_gap_the_sequences_cannot_hold(small_dataset, tmp_path, capsys):
    _, cfg_path, out = small_dataset
    for gap in ("6", "9"):
        rc = main([
            "train", "--dataset", str(out), "--out", str(tmp_path / f"gap{gap}"),
            "--config", str(cfg_path), "--gap", gap,
        ])
        assert rc == 2
        assert f"gap {gap} needs {int(gap) + 1} frames" in capsys.readouterr().err
        assert not (tmp_path / f"gap{gap}" / "weights.bin").exists()


def test_eval_rejects_a_gap_no_sequence_can_hold(small_dataset, tmp_path, capsys):
    # the sequences have 6 frames: gap 5 fits, gap 6 fails every sequence
    _, cfg_path, out = small_dataset
    for gap in ("6", "9"):
        report = tmp_path / f"gap{gap}.json"
        rc = main([
            "eval", "--dataset", str(out), "--estimator", "detection",
            "--config", str(cfg_path), "--gap", gap, "--out", str(report),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"gap {gap} needs {int(gap) + 1} frames, the longest sequence has 6" in err
        assert not report.exists()


def test_eval_refuses_when_every_sequence_fails(small_dataset, tmp_path, capsys):
    # with no PNG left every estimate fails; a report of zeros would read
    # as a perfect score, so eval exits 2 and writes none
    _, cfg_path, out = small_dataset
    copy = tmp_path / "no_frames"
    shutil.copytree(out, copy)
    for png in copy.glob("*/*.png"):
        png.unlink()
    report = tmp_path / "report.json"
    rc = main([
        "eval", "--dataset", str(copy), "--estimator", "pixel_mse",
        "--config", str(cfg_path), "--out", str(report),
    ])
    assert rc == 2
    first = sorted(read_index(copy)["sequences"])[0]
    assert capsys.readouterr().err == (
        f"error: every one of 4 sequences failed "
        f"(first: frame image not found: {copy / first / 'frame_0.png'})\n"
    )
    assert not report.exists() and not report.with_suffix(".csv").exists()


def test_eval_feature_scale_records_a_reference_frame_error_from_its_worker(
    small_dataset, tmp_path, capsys
):
    # the reference frame (frame 0 at gap 5) is decoded on the estimate's
    # worker thread; its error is that sequence's failure record, as when
    # it was decoded on the calling thread, and no thread outlives eval
    _, cfg_path, out = small_dataset
    copy = tmp_path / "data"
    shutil.copytree(out, copy)
    first, *rest = sorted(read_index(copy)["sequences"])
    (copy / first / "frame_0.png").unlink()
    report = tmp_path / "report.json"
    argv = ["eval", "--dataset", str(copy), "--estimator", "feature_scale",
            "--config", str(cfg_path), "--out", str(report)]
    threads = threading.active_count()
    assert main(argv) == 0
    assert threading.active_count() == threads
    records = {rec["id"]: rec for rec in json.loads(report.read_text())["records"]}
    assert records[first]["failed"] is True
    assert records[first]["error"] == f"frame image not found: {copy / first / 'frame_0.png'}"
    assert not any(records[seq_id]["failed"] for seq_id in rest)
    capsys.readouterr()
    # with every reference frame gone every estimate fails: exit 2, no report
    for seq_id in rest:
        (copy / seq_id / "frame_0.png").unlink()
    report.unlink()
    assert main(argv) == 2
    assert threading.active_count() == threads
    assert capsys.readouterr().err == (
        f"error: every one of 4 sequences failed "
        f"(first: frame image not found: {copy / first / 'frame_0.png'})\n"
    )
    assert not report.exists()
    # the target frame, read on the calling thread, fails first, as before
    (copy / first / "frame_5.png").unlink()
    assert main(argv) == 2
    assert threading.active_count() == threads
    assert f"(first: frame image not found: {copy / first / 'frame_5.png'})" in (
        capsys.readouterr().err
    )


def test_eval_refuses_an_unlabeled_sequence_before_estimating(
    small_dataset, tmp_path, capsys, monkeypatch
):
    # the last sequence in id order is unlabeled: eval exits 2 with no
    # report, and no sequence is estimated first
    import ttckit.estimate

    _, cfg_path, out = small_dataset
    data = tmp_path / "data"
    shutil.copytree(out, data)
    seq_id = sorted(read_index(data)["sequences"])[-1]
    manifest = data / seq_id / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw["label"] = None
    manifest.write_text(json.dumps(raw))
    estimated = []
    real = ttckit.estimate.pixel_mse_estimate

    def counting_estimate(seq, cfg):
        estimated.append(seq.sequence_id)
        return real(seq, cfg)

    monkeypatch.setattr(ttckit.estimate, "pixel_mse_estimate", counting_estimate)
    report = tmp_path / "report.json"
    rc = main(["eval", "--dataset", str(data), "--estimator", "pixel_mse",
               "--config", str(cfg_path), "--out", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: sequence {seq_id} is unlabeled\n"
    assert estimated == []
    assert not report.exists() and not report.with_suffix(".csv").exists()


@pytest.mark.parametrize("untrained, trained, warned", [
    (55.41, 55.72, True),
    (55.41, 55.41, False),
    (55.41, 40.0, False),
])
def test_train_warns_when_training_worsened_val_mid(
    validated_dataset, tmp_path, capsys, monkeypatch, untrained, trained, warned
):
    import ttckit.cli
    from ttckit.estimate import identity_head
    from ttckit.learn import TrainResult

    w, b = identity_head(20)
    result = TrainResult(params={"fc.weight": w, "fc.bias": b},
                         history=[(0, 1.0, trained)], val_mid_untrained=untrained)
    monkeypatch.setattr(ttckit.cli, "train_loop", lambda *args, **kwargs: result)
    _, cfg_path, out = validated_dataset
    train_dir = tmp_path / "trained"
    rc = main(["train", "--dataset", str(out), "--out", str(train_dir), "--config", str(cfg_path)])
    assert rc == 0
    printed = capsys.readouterr()
    warning = f"warning: training worsened val MiD ({untrained:.2f} -> {trained:.2f})"
    assert (warning in printed.out.splitlines()) == warned
    assert "warning" not in printed.err
    # the warning is console output only, never part of an artifact
    assert "warning" not in (train_dir / "loss_curve.csv").read_text()


def test_train_without_validation_sequences_says_so(small_dataset, tmp_path, capsys):
    # four sequences hold out none for validation; no val MiD is printed,
    # since 0.00 would read as a perfect score
    _, cfg_path, out = small_dataset
    assert read_index(out)["count"] == 4
    train_dir = tmp_path / "trained"
    rc = main(["train", "--dataset", str(out), "--out", str(train_dir), "--config", str(cfg_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("(0 validation)")
    assert lines[1] == "val MiD not measured: no validation sequences"
    assert not any("untrained" in line or "warning" in line for line in lines)
    # nor is one written: loss_curve.csv leaves the val_mid field empty
    header, *rows = (train_dir / "loss_curve.csv").read_text().splitlines()
    assert header == "epoch,train_loss,val_mid"
    assert len(rows) == SMALL_CONFIG["train"]["epochs"]
    for epoch, row in enumerate(rows):
        fields = row.split(",")
        assert fields[0] == str(epoch) and np.isfinite(float(fields[1]))
        assert fields[2] == ""


def test_train_with_validation_sequences_writes_val_mid(validated_dataset, tmp_path):
    _, cfg_path, out = validated_dataset
    train_dir = tmp_path / "trained"
    rc = main(["train", "--dataset", str(out), "--out", str(train_dir), "--config", str(cfg_path)])
    assert rc == 0
    rows = (train_dir / "loss_curve.csv").read_text().splitlines()[1:]
    assert rows and all(float(row.split(",")[2]) > 0.0 for row in rows)


@pytest.mark.parametrize("position", [1, 4])
def test_train_refuses_an_unlabeled_sequence(validated_dataset, tmp_path, capsys, position):
    # position 1 is a training sequence, 4 the validation one; either
    # stops training with exit 2 and leaves no training thread behind
    _, cfg_path, out = validated_dataset
    data = tmp_path / "data"
    shutil.copytree(out, data)
    seq_id = read_index(data)["sequences"][position]
    manifest = data / seq_id / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw["label"] = None
    manifest.write_text(json.dumps(raw))
    threads = threading.active_count()
    rc = main(["train", "--dataset", str(data), "--out", str(tmp_path / "t"),
               "--config", str(cfg_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: sequence {seq_id} is unlabeled\n"
    assert not (tmp_path / "t" / "weights.bin").exists()
    assert threading.active_count() == threads


def test_importing_the_cli_starts_no_thread():
    # every thread pool is opened by the command that uses it, never at import
    src = str(Path(ttckit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import threading, ttckit.cli; print(threading.active_count())"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "1\n"


def test_train_refuses_out_of_range_settings(small_dataset, tmp_path, capsys):
    # each setting would train on nonsense (gradient ascent, one-hot labels)
    # or fail inside the loop; the config is refused with exit 2 instead
    _, cfg_path, out = small_dataset
    nan, inf = float("nan"), float("inf")
    bad = [
        {"base_lr": -0.1}, {"base_lr": nan}, {"momentum": nan}, {"momentum": -0.5},
        {"weight_decay": inf}, {"sigma_bins": -1}, {"sigma_bins": "1"},
        {"gain_range": [0.9, 1.1, 2]}, {"gain_range": [1.1, 0.9]}, {"gain_range": [0.0, 1.1]},
        {"gain_range": [-0.5, 1.1]}, {"gain_range": 1.0}, {"bias_range": [0.05]},
        {"bias_range": [0.05, -0.05]}, {"bias_range": [-0.05, nan]},
        {"epochs": 2.5}, {"epochs": True}, {"batch_size": 4.0}, {"batch_size": "4"},
        {"seed": -1}, {"seed": 0.5},
    ]
    for i, train in enumerate(bad):
        cfg = {**SMALL_CONFIG, "train": {**SMALL_CONFIG["train"], **train}}
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(cfg))
        rc = main(["train", "--dataset", str(out), "--out", str(tmp_path / f"t{i}"),
                   "--config", str(path)])
        err = capsys.readouterr().err
        assert rc == 2, train
        assert err.startswith("error: train ") and "internal error" not in err, train
        assert not (tmp_path / f"t{i}" / "weights.bin").exists()


def test_bad_seeds_exit_2(small_dataset, tmp_path, capsys):
    # numpy takes only non-negative integer seeds; each of these used to
    # fail inside the run with exit 1
    _, cfg_path, out = small_dataset
    index_bytes = (out / "index.json").read_bytes()
    configs = []
    for i, bad in enumerate([{"seed": -3}, {"seed": 1.5}, {"noise": {"seed": -1}},
                             {"noise": {"seed": False}}]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, **bad}))
        configs.append(["synth", "--config", str(path)])
    runs = [
        *configs,
        ["synth", "--seed", "-2"],
        ["train", "--dataset", str(out), "--config", str(cfg_path), "--seed", "-1"],
        ["annotate", "--dataset", str(out), "--seed", "-1"],
    ]
    for i, argv in enumerate(runs):
        if argv[0] != "annotate":
            argv = argv + ["--out", str(tmp_path / f"out{i}")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, argv
        assert err.startswith("error: ") and "seed" in err and "internal error" not in err, argv
        assert not (tmp_path / f"out{i}").exists(), argv
    assert (out / "index.json").read_bytes() == index_bytes


def test_report_merges(small_dataset, tmp_path, capsys):
    _, cfg_path, out = small_dataset
    paths = []
    for name in ("detection", "pixel_mse"):
        p = tmp_path / f"r_{name}.json"
        assert main([
            "eval", "--dataset", str(out), "--estimator", name,
            "--config", str(cfg_path), "--out", str(p),
        ]) == 0
        paths.append(str(p))
    merged = tmp_path / "merged.csv"
    assert main(["report", "--inputs", *paths, "--out", str(merged)]) == 0
    text = merged.read_text()
    assert text.startswith("estimator,MiD")
    assert "detection" in text and "pixel_mse" in text


def test_usage_errors_exit_2(tmp_path):
    assert main(["eval", "--dataset", str(tmp_path / "missing"),
                 "--estimator", "detection"]) == 2
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "y")]) == 2


def test_pipeline_annotate_labels_match_synth(small_dataset, tmp_path):
    # synth -> annotate label agreement on constant-velocity stretches
    _, cfg_path, out = small_dataset
    copy = tmp_path / "check"
    shutil.copytree(out, copy)
    before = {
        sid: read_sequence_dir(copy / sid).label.tau_s
        for sid in read_index(copy)["sequences"]
    }
    assert main(["annotate", "--dataset", str(copy)]) == 0
    for sid, old_tau in before.items():
        seq = read_sequence_dir(copy / sid)
        # braking scenarios are piecewise constant-acceleration; windows on
        # constant-velocity stretches must agree to 1e-6, others much closer
        # than the truncation range
        assert abs(seq.label.tau_s - old_tau) < 2.0
