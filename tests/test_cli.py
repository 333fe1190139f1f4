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
from ttckit.cli import _plan_windows, main
from ttckit.config import RunConfig, config_hash
from ttckit.errors import DomainError, ManifestError
from ttckit.manifest import read_index, read_sequence_dir, write_index, write_sequence_dir

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
        # a bool is not a number: each was read as 1 or 0
        {"fps": True}, {"start_min": False}, {"background": True},
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


@pytest.mark.parametrize("section, key, value", [
    ("camera", "width", 160.5),  # exit 1 before
    ("camera", "width", True),  # exit 0 before, with 0 sequences written
    ("camera", "height", 0),
    ("camera", "f", "400"),  # exit 1 before
    ("camera", "f", float("nan")),  # named box field cx before
    ("camera", "f", -800.0),
    ("camera", "cx", "a"),
    ("target", "texture_seed", 1.5),  # exit 1 before
    ("target", "texture_seed", -1),
    ("target", "texture", "wood"),
    ("target", "physical_width", 0.0),
    ("target", "texture_low", 0.95),
    ("target", "texture_high", float("inf")),
    ("target", "lateral_offset_x", None),
    ("noise", "box_center_jitter_px", 1.5),  # exit 0 before
    ("noise", "box_center_jitter_px", -1),
    ("noise", "box_scale_jitter", 1.0),
    ("noise", "box_scale_jitter", "0.1"),
    ("noise", "gain_range", [0.0, 1.1]),
    ("noise", "gain_range", [1.1, 0.9]),
    ("noise", "bias_range", [float("nan"), 0.0]),
], ids=lambda v: repr(v) if not isinstance(v, str) else v)
def test_synth_refuses_malformed_config_sections(tmp_path, capsys, section, key, value):
    # camera, target and noise check their fields: each value exits 2 naming
    # its section and field, before anything is written
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL_CONFIG, section: {**SMALL_CONFIG.get(section, {}),
                                                          key: value}}))
    out = tmp_path / "out"
    rc = main(["synth", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {section} {key}") and "internal error" not in err, err
    assert not out.exists()


def _synth_small(tmp_path) -> tuple[int, Path]:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "data"
    return main(["synth", "--config", str(cfg_path), "--out", str(out)]), out


def _plan_ids(cfg: dict) -> list[str]:
    return [window.keywords["sequence_id"] for window in _plan_windows(RunConfig.from_dict(cfg))]


def _assert_whole_windows(out: Path, full: Path, ids: list[str], failed: int) -> None:
    # every window before the failing one is written whole, byte for byte
    # as a full run; the window after it, which the other thread may have
    # held, may be there too, whole as well; no later window was claimed
    names = [f"frame_{i}.png" for i in range(6)] + ["manifest.json"]
    kept = sorted(p.name for p in out.iterdir() if p.name != ids[failed])
    assert set(ids[:failed]) <= set(kept) <= set(ids[: failed + 2])
    for seq_id in kept:
        assert sorted(p.name for p in (out / seq_id).iterdir()) == sorted(names)
        for name in names:
            assert (out / seq_id / name).read_bytes() == (full / seq_id / name).read_bytes()


def test_synth_reports_a_write_error_and_stops_its_writer(
    small_dataset, tmp_path, capsys, monkeypatch
):
    # the second frame of the second window fails to write, on whichever
    # thread holds that window; its error reaches the caller with exit 2,
    # no new window is claimed, and both threads are awaited
    import ttckit.manifest

    ids = _plan_ids(SMALL_CONFIG)
    write_png = ttckit.manifest.write_png

    def failing_write_png(path, image):
        if path.parent.name == ids[1] and path.name == "frame_1.png":
            raise ManifestError(f"disk full writing {ids[1]}/{path.name}")
        write_png(path, image)

    monkeypatch.setattr(ttckit.manifest, "write_png", failing_write_png)
    threads = threading.active_count()
    rc, out = _synth_small(tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == f"error: disk full writing {ids[1]}/frame_1.png\n"
    assert not (out / "index.json").exists()
    assert threading.active_count() == threads
    assert sorted(p.name for p in (out / ids[1]).iterdir()) == ["frame_0.png"]
    _assert_whole_windows(out, small_dataset[2], ids, 1)


def test_synth_keeps_the_windows_written_before_a_render_error(
    small_dataset, tmp_path, capsys, monkeypatch
):
    # the third window fails to render; the windows before it are still
    # written whole, and the failing one is not written at all
    import ttckit.cli

    ids = _plan_ids(SMALL_CONFIG)
    generate = ttckit.cli.generate_from_trajectory

    def failing_generate(*args, **kwargs):
        if kwargs["sequence_id"] == ids[2]:
            raise DomainError(f"render of {ids[2]} failed")
        return generate(*args, **kwargs)

    monkeypatch.setattr(ttckit.cli, "generate_from_trajectory", failing_generate)
    threads = threading.active_count()
    rc, out = _synth_small(tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == f"error: render of {ids[2]} failed\n"
    assert not (out / "index.json").exists()
    assert threading.active_count() == threads
    assert not (out / ids[2]).exists()
    _assert_whole_windows(out, small_dataset[2], ids, 2)


def test_synth_reports_the_failure_first_in_plan_order(
    small_dataset, tmp_path, capsys, monkeypatch
):
    # windows 1 and 2 both fail, on different threads, and window 2 fails
    # first: window 1 waits for that before it fails.  The error is window
    # 1's, as in a serial run, which never gets to window 2
    import ttckit.cli

    ids = _plan_ids(SMALL_CONFIG)
    generate = ttckit.cli.generate_from_trajectory
    later_failed = threading.Event()

    def failing_generate(*args, **kwargs):
        seq_id = kwargs["sequence_id"]
        if seq_id == ids[1]:
            assert later_failed.wait(timeout=60)
            raise DomainError(f"render of {seq_id} failed")
        if seq_id == ids[2]:
            later_failed.set()
            raise DomainError(f"render of {seq_id} failed")
        return generate(*args, **kwargs)

    monkeypatch.setattr(ttckit.cli, "generate_from_trajectory", failing_generate)
    threads = threading.active_count()
    rc, out = _synth_small(tmp_path)
    assert rc == 2
    assert later_failed.is_set()
    assert capsys.readouterr().err == f"error: render of {ids[1]} failed\n"
    assert not (out / "index.json").exists()
    assert threading.active_count() == threads
    assert not (out / ids[1]).exists() and not (out / ids[2]).exists()
    _assert_whole_windows(out, small_dataset[2], ids, 1)


MIXED_BOX_CONFIG = {
    **SMALL_CONFIG,
    # boxes of 27 to 192 px, with illumination noise
    "synth": {"templates": [1, 2, 3, 4, 5, 6], "variants_per_template": 1,
              "sequences_per_variant": 2},
    "noise": {"box_center_jitter_px": 1, "box_scale_jitter": 0.02,
              "gain_range": [0.95, 1.05], "bias_range": [-0.02, 0.02], "seed": 3},
}


@pytest.mark.parametrize("cfg", [SMALL_CONFIG, MIXED_BOX_CONFIG], ids=["small", "mixed_boxes"])
def test_synth_writes_the_bytes_of_a_serial_run(tmp_path, cfg):
    # the reference writes the planned windows in plan order on one thread
    run_cfg = RunConfig.from_dict(cfg)
    ref = tmp_path / "serial"
    for window in _plan_windows(run_cfg):
        write_sequence_dir(window(), ref)
    write_index(ref, _plan_ids(cfg), config_hash(run_cfg))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert len(files) == 1 + 7 * len(_plan_ids(cfg))
    for name in files:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def test_synth_frames_decode_to_the_rounded_render(tmp_path):
    # the pixel contract, whatever the deflate level: each written frame
    # decodes to the in-memory render of its planned window, scaled to
    # [0, 255], rounded and clipped
    from ttckit.png import read_png

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(MIXED_BOX_CONFIG))
    out = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    plan = _plan_windows(RunConfig.from_dict(MIXED_BOX_CONFIG))
    assert plan
    for window in plan:
        seq = window()
        for i, frame in enumerate(seq.frames):
            want = np.clip(np.rint(frame.image * 255.0), 0, 255).astype(np.uint8)
            got = read_png(out / seq.sequence_id / f"frame_{i}.png")
            assert got.dtype == np.uint8 and np.array_equal(got, want), (seq.sequence_id, i)


def test_synth_renders_on_both_threads(tmp_path, monkeypatch):
    # the first two windows each wait until both are rendering, so the
    # test fails (a broken barrier, exit 1) unless two threads render
    import ttckit.cli

    ids = _plan_ids(SMALL_CONFIG)
    generate = ttckit.cli.generate_from_trajectory
    rendering = set()
    both = threading.Barrier(2, timeout=60)

    def recording_generate(*args, **kwargs):
        rendering.add(threading.current_thread())
        if kwargs["sequence_id"] in ids[:2]:
            both.wait()
        return generate(*args, **kwargs)

    monkeypatch.setattr(ttckit.cli, "generate_from_trajectory", recording_generate)
    rc, out = _synth_small(tmp_path)
    assert rc == 0
    assert len(rendering) == 2 and threading.main_thread() in rendering
    assert read_index(out)["sequences"] == sorted(ids)


@pytest.mark.parametrize("command, starts", [
    ("synth", 1), ("estimate", 1), ("train", 1), ("eval pixel_mse", 1),
    ("eval feature_scale", 1), ("eval detection", 0), ("annotate", 0), ("report", 0),
])
def test_each_command_starts_at_most_one_thread_and_leaves_none(
    small_dataset, tmp_path, monkeypatch, command, starts
):
    # cli.main opens the one worker of a command, which starts on the
    # first task: every search of an eval shares it, and a command that
    # submits nothing starts none
    _, cfg_path, out = small_dataset
    data = tmp_path / "data"
    shutil.copytree(out, data)
    name, _, estimator = command.partition(" ")
    argv = {
        "synth": ["--config", str(cfg_path), "--out", str(tmp_path / "synth")],
        "estimate": ["--dataset", str(data), "--seq", read_index(data)["sequences"][0],
                     "--estimator", "pixel_mse", "--config", str(cfg_path)],
        "train": ["--dataset", str(data), "--out", str(tmp_path / "train"),
                  "--config", str(cfg_path)],
        "eval": ["--dataset", str(data), "--estimator", estimator, "--config", str(cfg_path),
                 "--out", str(tmp_path / "report.json")],
        "annotate": ["--dataset", str(data)],
        "report": ["--inputs", str(tmp_path / "report.json")],
    }[name]
    if name == "report":
        assert main(["eval", "--dataset", str(data), "--estimator", "detection",
                     "--config", str(cfg_path), "--out", argv[1]]) == 0
    real_start, started = threading.Thread.start, []

    def counting_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    threads = threading.active_count()
    assert main([name, *argv]) == 0
    assert len(started) == starts
    assert not any(thread.is_alive() for thread in started)
    assert threading.active_count() == threads


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


def test_estimate_prints_the_exact_bins_in_stable_order(small_dataset, capsys, monkeypatch):
    # a tied 40-bin profile whose default (unstable) argsort starts
    # 3 6 5 4 7, with one pruned bin holding a bound below every score
    import ttckit.cli
    from ttckit.estimate import SimilarityProfile, TtcEstimate

    scores = np.random.default_rng(0).integers(0, 3, size=40).astype(float)
    assert np.argsort(scores)[:5].tolist() == [3, 6, 5, 4, 7]
    exact = np.ones(40, dtype=bool)
    exact[5] = False
    scores[5] = -1.0
    profile = SimilarityProfile(scores, "mse", np.zeros((40, 2), dtype=int), exact)
    est = TtcEstimate(0.9, 0.98, 4.5, profile, "pixel_mse")
    monkeypatch.setattr(ttckit.cli, "make_estimator", lambda *args: lambda seq: est)
    _, cfg_path, out = small_dataset
    seq_id = read_index(out)["sequences"][0]
    assert main(["estimate", "--dataset", str(out), "--seq", seq_id,
                 "--estimator", "pixel_mse", "--config", str(cfg_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    head = printed.index("top bins: (the 39 of 40 scored exactly)")
    bins = RunConfig.from_json_file(cfg_path).search_pixel.bins()
    want = [f"  alpha {bins[i]:.4f}  score 0  shift (+0,+0)" for i in (3, 4, 6, 7, 8)]
    assert printed[head + 1 : head + 6] == want


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


def test_train_refuses_gap_zero(small_dataset, tmp_path, capsys):
    # gap 0 is refused, not read as "no --gap" and run at the config's 5
    _, cfg_path, out = small_dataset
    rc = main([
        "train", "--dataset", str(out), "--out", str(tmp_path / "train"),
        "--config", str(cfg_path), "--gap", "0",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "scale search frame_gap must be an integer >= 1, got 0" in captured.err
    assert "trained" not in captured.out
    assert not (tmp_path / "train").exists()


def test_eval_refuses_gap_zero(small_dataset, tmp_path, capsys):
    _, cfg_path, out = small_dataset
    report = tmp_path / "report.json"
    rc = main([
        "eval", "--dataset", str(out), "--estimator", "pixel_mse",
        "--config", str(cfg_path), "--gap", "0", "--out", str(report),
        "--csv", str(tmp_path / "report.csv"),
    ])
    assert rc == 2
    assert "scale search frame_gap must be an integer >= 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_estimate_refuses_gap_zero(small_dataset, tmp_path, capsys):
    _, cfg_path, out = small_dataset
    seq = sorted(read_index(out)["sequences"])[0]
    before = sorted(p.relative_to(out) for p in out.rglob("*"))
    rc = main([
        "estimate", "--dataset", str(out), "--seq", seq, "--estimator", "feature_scale",
        "--config", str(cfg_path), "--gap", "0",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert "scale search frame_gap must be an integer >= 1, got 0" in captured.err
    assert captured.out == ""
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == before


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


def test_eval_records_a_truncated_frame_as_that_sequences_failure(small_dataset, tmp_path):
    # a malformed PNG fails its sequence like a missing one: eval exits 0
    # and reports the other sequences
    _, cfg_path, out = small_dataset
    copy = tmp_path / "data"
    shutil.copytree(out, copy)
    first, *rest = sorted(read_index(copy)["sequences"])
    frame = copy / first / "frame_5.png"
    frame.write_bytes(frame.read_bytes()[:200])
    report = tmp_path / "report.json"
    assert main([
        "eval", "--dataset", str(copy), "--estimator", "pixel_mse",
        "--config", str(cfg_path), "--out", str(report),
    ]) == 0
    doc = json.loads(report.read_text())
    assert doc["n_failures"] == 1
    records = {rec["id"]: rec for rec in doc["records"]}
    assert records[first]["failed"] is True
    assert records[first]["error"] == (
        f"frame image unreadable: {frame} (truncated PNG b'IDAT' chunk)"
    )
    assert not any(records[seq_id]["failed"] for seq_id in rest)


def test_eval_feature_scale_records_a_reference_frame_error_from_its_worker(
    small_dataset, tmp_path, capsys
):
    # the reference frame (frame 0 at gap 5) is decoded after the target
    # frame and the pair's checks; its error is that sequence's failure
    # record, and no thread outlives eval
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
    # the target frame, read first, fails first
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
    # the one thread pool is opened by cli.main for each command, never at import
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
        {"seed": -1}, {"seed": 0.5}, {"base_lr": True}, {"gain_range": [True, 1.1]},
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


@pytest.mark.parametrize("field, bad", [
    ("sequences", lambda first, other: [1]),  # exit 1 before
    ("sequences", lambda first, other: [f"../other/{first}"]),  # read silently before
    ("sequences", lambda first, other: [str(other / first)]),
    ("sequences", lambda first, other: first),
    ("count", lambda first, other: "1"),
    ("config_hash", lambda first, other: 5),
    ("config_hash", None),
], ids=["int-id", "parent-dir", "absolute", "not-a-list", "count-str", "hash-int", "no-hash"])
def test_eval_refuses_a_malformed_index(small_dataset, tmp_path, capsys, field, bad):
    # index.json is checked where it is read: a bad field exits 2 naming
    # the file and the field, and no sequence outside the dataset is read
    _, cfg_path, out = small_dataset
    data, other = tmp_path / "data", tmp_path / "other"
    shutil.copytree(out, data)
    shutil.copytree(out, other)
    index = json.loads((data / "index.json").read_text())
    if bad is None:
        del index[field]
    else:
        index[field] = bad(index["sequences"][0], other)
    (data / "index.json").write_text(json.dumps(index))
    report = tmp_path / "report.json"
    rc = main(["eval", "--dataset", str(data), "--estimator", "detection",
               "--config", str(cfg_path), "--out", str(report)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: {data / 'index.json'}: index field {field} is missing or malformed: ")
    assert not report.exists()


@pytest.mark.parametrize("change, message", [
    (lambda raw: raw.update(fps="10"), "fps must be a finite number > 0, got '10'"),  # exit 1 before
    (lambda raw: raw.update(fps=0), "fps must be a finite number > 0, got 0"),  # exit 1 before
    (lambda raw: raw.update(fps=True), "fps must be a finite number > 0, got True"),  # 1 Hz before
    (lambda raw: raw["label"]["alpha_by_gap"].update(x=0.9),
     "label alpha_by_gap key must be a frame gap >= 1, got 'x'"),  # exit 1 before
    (lambda raw: raw["label"].update(alpha_by_gap=[0.9]),
     "label alpha_by_gap must be an object, got [0.9]"),  # exit 1 before
    (lambda raw: raw["frames"][2].update(timestamp_s="a"),
     "frame timestamp_s must be a finite number, got 'a'"),  # exit 0 before
    (lambda raw: raw["frames"][2].update(timestamp_s=float("nan")),
     "frame timestamp_s must be a finite number, got nan"),  # exit 0 before
    (lambda raw: raw["frames"][0].update(image_path=3),
     "frame image_path must be a string, got 3"),  # exit 1 before
    (lambda raw: raw["frames"][0].update(bbox="x"),
     "frame bbox must be four finite numbers [cx, cy, w, h], got 'x'"),
    (lambda raw: raw["frames"][0].update(bbox=[1.0, 2.0, 30.0]),
     "frame bbox must be four finite numbers [cx, cy, w, h], got [1.0, 2.0, 30.0]"),
    (lambda raw: raw["frames"][0].update(bbox=None),
     "frame bbox must be four finite numbers [cx, cy, w, h], got None"),
    (lambda raw: raw["frames"][0].update(bbox=[1.0, 2.0, -30.0, 30.0]),
     "frame bbox: box dims must be positive, got -30.0x30.0"),
    (lambda raw: raw["frames"][5].update(exact_bbox=[1.0, 2.0, float("inf"), 30.0]),
     "frame exact_bbox must be four finite numbers [cx, cy, w, h], "
     "got [1.0, 2.0, inf, 30.0]"),
], ids=["fps-str", "fps-zero", "fps-bool", "gap-key-str", "gap-list", "timestamp-str",
        "timestamp-nan", "path-int", "bbox-str", "bbox-three", "bbox-null", "bbox-negative",
        "exact-bbox-inf"])
def test_eval_refuses_a_malformed_manifest_field(small_dataset, tmp_path, capsys, change, message):
    # a sequence manifest's fps, alpha_by_gap keys and frame fields are
    # checked where they are read: a bad value exits 2 naming the field, and
    # no report is written
    _, cfg_path, out = small_dataset
    data = tmp_path / "data"
    shutil.copytree(out, data)
    manifest = data / sorted(read_index(data)["sequences"])[0] / "manifest.json"
    raw = json.loads(manifest.read_text())
    change(raw)
    manifest.write_text(json.dumps(raw))
    report = tmp_path / "report.json"
    rc = main(["eval", "--dataset", str(data), "--estimator", "detection",
               "--config", str(cfg_path), "--out", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: malformed sequence manifest: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("estimator", ["detection", "pixel_mse"])
def test_eval_refuses_an_empty_dataset(tmp_path, capsys, estimator):
    # no window fits an 8x8 camera, so synth writes no sequence (exit 0);
    # eval used to report MiD and RTE 0.0000 on it, a perfect score
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**SMALL_CONFIG, "camera": {"f": 800.0, "width": 8,
                                                                "height": 8}}))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert read_index(data)["count"] == 0
    capsys.readouterr()
    report = tmp_path / "report.json"
    rc = main(["eval", "--dataset", str(data), "--estimator", estimator,
               "--config", str(cfg_path), "--out", str(report)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: dataset {data} is empty\n"
    assert not report.exists()


def test_eval_refuses_non_integer_and_non_finite_search_settings(small_dataset, tmp_path, capsys):
    # the first three used to fail inside eval with exit 1 (TypeError), the
    # last two to run silently with exit 0
    _, _, out = small_dataset
    for i, (key, value) in enumerate([("n_bins", 20.0), ("top_k", 2.0), ("shift_c", 1.5),
                                      ("frame_gap", True), ("expand_cap", float("nan"))]):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, "search_pixel": {key: value}}))
        report = tmp_path / f"r{i}.json"
        rc = main(["eval", "--dataset", str(out), "--estimator", "pixel_mse",
                   "--config", str(path), "--out", str(report)])
        err = capsys.readouterr().err
        assert rc == 2, key
        assert err.startswith(f"error: scale search {key} must be"), err
        assert not report.exists()


@pytest.mark.parametrize("section", ["search_pixel", "search_feature"])
def test_a_removed_search_key_exits_2_as_unknown(small_dataset, tmp_path, capsys, section):
    # ttc_reference, detection_sqrt, multi_reference and eps were search
    # settings once; a config that still sets one is refused, naming it
    _, _, out = small_dataset
    removed = {"ttc_reference": "reference_frame", "detection_sqrt": True,
               "multi_reference": False, "eps": 1e-12}
    for key, value in removed.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**SMALL_CONFIG, section: {key: value}}))
        rc = main(["eval", "--dataset", str(out), "--estimator", "detection",
                   "--config", str(path), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == 2, key
        assert f"unknown config keys under {section}: ['{key}']" in err, err
        assert not (tmp_path / "r.json").exists()


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
