"""Command-line entry point tying the modules into reproducible pipelines.

Subcommands: synth, annotate, estimate, train, eval, report.  Exit codes:
0 success, 1 internal error, 2 usage/input error.  All outputs are
deterministic given the seeds in the run configuration, and no
environment variable changes them.

``main`` opens one ``ThreadPoolExecutor(max_workers=1)`` per command and
passes it down: the only thread the library starts.  Its worker starts on
the first task, so ``annotate``, ``report`` and detection ``eval`` start
none, and it is joined before ``main`` returns.

``synth`` plans every window first (variant and start draws, textures,
trajectories and ``window_drop_reason``, all analytic), then renders and
writes the plan on two threads: the calling thread and the worker each
claim the next unclaimed window in plan order, render it and write it,
until the plan runs out.  zlib and numpy release the GIL, so the two
overlap, and claiming shares out windows of very different cost.  At most
two windows are in flight.  Once a window fails to render or write, no new
window is claimed, both threads are awaited, and the error of the failing
window first in plan order is reported (exit 2, no ``index.json``): the
error a serial run gives, with every window before it written whole.
"""

from __future__ import annotations

import argparse
import sys
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash
from .core import check_int
from .errors import DomainError, TtcKitError
from .estimate import ESTIMATOR_NAMES, ScaleSearchConfig, make_estimator
from .evaluation import (
    EvaluationReport,
    evaluate_dataset,
    format_report_table,
    reports_to_csv,
)
from .annotate import annotate_sequence
from .learn import TrainConfig, load_weights, save_weights, train_loop, write_loss_curve
from .manifest import (
    canonical_json_bytes,
    load_dataset,
    read_dataset_sequence,
    read_index,
    read_sequence_dir,
    sequence_to_manifest,
    write_index,
    write_sequence_dir,
)
from .scenarios import builtin_scripts, simulate_script
from .synth import generate_from_trajectory, window_drop_reason

USAGE_ERROR = 2
INTERNAL_ERROR = 1


def cmd_synth(args, pool) -> int:
    cfg = RunConfig.from_json_file(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = RunConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(cfg)

    plan = _plan_windows(cfg)
    _render_and_write(plan, out_dir, pool)
    written = [window.keywords["sequence_id"] for window in plan]

    write_index(out_dir, written, chash)
    print(f"wrote {len(written)} sequences to {out_dir} (config {chash})")
    return 0


def _plan_windows(cfg: RunConfig) -> list[partial]:
    """Every configured window, in plan and RNG-draw order, not yet rendered.

    Each window is a call of ``generate_from_trajectory`` with all of its
    arguments bound: calling it renders that window.  Planning draws the
    variants and window starts, makes the textures and trajectories and
    keeps the windows ``window_drop_reason`` admits; all of it is analytic.
    """
    camera = cfg.camera.to_model()
    scripts = builtin_scripts(list(cfg.synth.templates)) if cfg.synth.templates else []
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    horizon = 14.0

    plan = []
    by_template: dict[int, list] = {}
    for script in scripts:
        by_template.setdefault(script.template, []).append(script)
    for template in sorted(by_template):
        variants = by_template[template]
        count = min(cfg.synth.variants_per_template, len(variants))
        picks = sorted(rng.choice(len(variants), size=count, replace=False).tolist())
        for pick in picks:
            script = variants[pick]
            target = cfg.target.to_target(
                seed_offset=script.script_id if cfg.synth.vary_texture else 0
            )
            traj = simulate_script(script, horizon)
            made = 0
            for attempt in range(24):
                if made >= cfg.synth.sequences_per_variant:
                    break
                span = max(traj.t_end - (cfg.synth.length - 1) / cfg.synth.fps - cfg.synth.start_min, 0.0)
                start = cfg.synth.start_min + float(rng.uniform(0.0, span)) if span > 0 else cfg.synth.start_min
                start = round(start, 3)
                if window_drop_reason(traj, camera, target, start, cfg.synth.fps,
                                      cfg.synth.length) is not None:
                    continue
                plan.append(partial(
                    generate_from_trajectory,
                    traj,
                    camera,
                    target,
                    cfg.noise,
                    fps=cfg.synth.fps,
                    length=cfg.synth.length,
                    start_time=start,
                    sequence_id=f"t{template}v{script.script_id:05d}k{made}",
                    background=cfg.synth.background,
                    provenance={
                        "generator": "synth",
                        "seed": cfg.noise.seed,
                        "script_id": script.script_id,
                        "template": script.template,
                        "start_time": start,
                    },
                ))
                made += 1
    return plan


def _render_and_write(plan: list[partial], out_dir: Path, pool: Executor) -> None:
    """Render and write every planned window on the calling thread and ``pool``'s worker.

    Each thread claims the next unclaimed window in plan order, renders
    it and writes it, until the plan runs out.  Once a window fails no
    new one is claimed; both threads finish the window they hold, and the
    error raised is that of the failing window first in plan order.
    Windows are claimed in order, so every window before it was rendered
    and written: the error is the one a serial run gives.
    """
    lock = threading.Lock()
    windows = iter(enumerate(plan))
    failures: dict[int, BaseException] = {}

    def claim_render_write() -> None:
        while True:
            with lock:
                claimed = None if failures else next(windows, None)
            if claimed is None:
                return
            index, window = claimed
            try:
                write_sequence_dir(window(), out_dir)
            except BaseException as exc:  # re-raised below, in plan order
                with lock:
                    failures[index] = exc
                return

    worker = pool.submit(claim_render_write)
    claim_render_write()
    worker.result()
    if failures:
        raise failures[min(failures)]


def cmd_annotate(args, pool) -> int:
    seed = check_int("annotate --seed", args.seed or 0)
    dataset_dir = Path(args.dataset)
    index = read_index(dataset_dir)
    deltas = []
    for seq_id in index["sequences"]:
        seq = read_sequence_dir(dataset_dir / seq_id)
        old_tau = seq.label.tau_s if seq.label else None
        new_label = annotate_sequence(seq, seed=seed)
        seq.label = new_label
        if old_tau is not None:
            deltas.append(abs(new_label.tau_s - old_tau))
        (dataset_dir / seq_id / "manifest.json").write_bytes(
            canonical_json_bytes(sequence_to_manifest(seq))
        )
    write_index(dataset_dir, list(index["sequences"]), index["config_hash"],
                extra={"annotated": True})
    worst = max(deltas) if deltas else 0.0
    print(f"annotated {len(index['sequences'])} sequences; max |d tau| vs prior labels {worst:.2e} s")
    return 0


def _search_config(cfg: RunConfig, estimator: str, gap: int | None) -> ScaleSearchConfig:
    base = cfg.search_feature if estimator == "feature_scale" else cfg.search_pixel
    return base if gap is None else base.with_gap(gap)


def _build_estimator(args, cfg: RunConfig, pool: Executor):
    name = args.estimator
    if name not in ESTIMATOR_NAMES:
        raise DomainError(f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}")
    search = _search_config(cfg, name, getattr(args, "gap", None))
    if getattr(args, "weights", None):
        path = Path(args.weights)
        if not path.is_file():
            raise DomainError(f"weights file not found: {path}")
        weights, meta = load_weights(path)
        return make_estimator(name, search, weights, pool), search, meta
    return make_estimator(name, search, None, pool), search, None


def cmd_estimate(args, pool) -> int:
    cfg = RunConfig.from_json_file(args.config) if args.config else RunConfig()
    seq = read_dataset_sequence(Path(args.dataset), args.seq)
    estimator, search, _ = _build_estimator(args, cfg, pool)
    est = estimator(seq)
    print(f"sequence {args.seq}  estimator {est.estimator}  gap {search.frame_gap}")
    print(f"alpha_hat {est.alpha_hat:.6f}  alpha_10hz {est.alpha_hat_10hz:.6f}  tau_hat {est.tau_hat:.3f} s")
    if seq.label is not None:
        print(f"label     alpha_10hz {seq.label.alpha_10hz:.6f}  tau {seq.label.tau_s:.3f} s")
    if est.low_confidence:
        print("low-confidence profile (flat similarity)")
    if est.profile is not None:
        scores = est.profile.scores
        # exact scores only, in the stable order both estimators fuse by: a
        # bin the pixel search pruned holds just a lower bound on its MSE
        if est.profile.exact is None:
            exact = np.arange(len(scores))
            print("top bins:")
        else:
            exact = np.flatnonzero(est.profile.exact)
            print(f"top bins: (the {len(exact)} of {len(scores)} scored exactly)")
        keys = scores[exact] if est.profile.semantics == "mse" else -scores[exact]
        order = exact[np.argsort(keys, kind="stable")][:5]
        bins = search.bins()
        for i in order:
            dx, dy = est.profile.best_shift[i]
            print(f"  alpha {bins[i]:.4f}  score {scores[i]:.6g}  shift ({dx:+d},{dy:+d})")
    return 0


def cmd_train(args, pool) -> int:
    cfg = RunConfig.from_json_file(args.config) if args.config else RunConfig()
    dataset_dir = Path(args.dataset)
    index = read_index(dataset_dir)
    sequences = load_dataset(dataset_dir)
    if not sequences:
        raise DomainError(f"dataset {dataset_dir} is empty")
    val = [s for i, s in enumerate(sequences) if i % 5 == 4]
    train = [s for i, s in enumerate(sequences) if i % 5 != 4]
    search = _search_config(cfg, "feature_scale", args.gap)
    tcfg = cfg.train if args.seed is None else TrainConfig(
        **{**cfg.train.__dict__, "seed": args.seed}
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train_loop(train, val, search, tcfg, out_dir / "checkpoints", pool)
    save_weights(out_dir / "weights.bin", result.params,
                 extra={"dataset_config_hash": index["config_hash"]})
    write_loss_curve(out_dir / "loss_curve.csv", result.history)
    last = result.history[-1]
    print(f"trained {tcfg.epochs} epochs on {len(train)} sequences ({len(val)} validation)")
    if not val:
        # every fifth sequence is held out, so a dataset of fewer than five
        # has none; a val MiD of 0.00 would read as a perfect score
        print("val MiD not measured: no validation sequences")
    else:
        print(f"val MiD untrained {result.val_mid_untrained:.2f} -> trained {last[2]:.2f}")
        if last[2] > result.val_mid_untrained:
            print(f"warning: training worsened val MiD "
                  f"({result.val_mid_untrained:.2f} -> {last[2]:.2f})")
    print(f"weights: {out_dir / 'weights.bin'}")
    return 0


def cmd_eval(args, pool) -> int:
    cfg = RunConfig.from_json_file(args.config) if args.config else RunConfig()
    dataset_dir = Path(args.dataset)
    index = read_index(dataset_dir)
    estimator, search, weights_meta = _build_estimator(args, cfg, pool)
    if weights_meta is not None and not args.force:
        trained_on = weights_meta.get("dataset_config_hash")
        if trained_on is not None and trained_on != index["config_hash"]:
            raise DomainError(
                f"weights were trained on config {trained_on} but dataset has "
                f"{index['config_hash']}; pass --force to evaluate anyway"
            )
    sequences = load_dataset(dataset_dir)
    # an empty dataset, a gap no sequence can hold, or every sequence
    # failing would each report a table of zeros, which reads as a
    # perfect score
    if not sequences:
        raise DomainError(f"dataset {dataset_dir} is empty")
    longest = max(len(seq.frames) for seq in sequences)
    if search.frame_gap >= longest:
        raise DomainError(f"gap {search.frame_gap} needs {search.frame_gap + 1} frames, "
                          f"the longest sequence has {longest}")
    report = evaluate_dataset(sequences, estimator, args.estimator,
                              config_hash=index["config_hash"])
    if report.n_failures == len(sequences):
        raise DomainError(f"every one of {len(sequences)} sequences failed "
                          f"(first: {report.records[0]['error']})")
    out = Path(args.out) if args.out else dataset_dir / f"report_{args.estimator}.json"
    out.write_bytes(report.to_json_bytes())
    csv_path = Path(args.csv) if args.csv else out.with_suffix(".csv")
    csv_path.write_text(reports_to_csv([report]))
    print(format_report_table([report]))
    print(f"report: {out}")
    return 0


def cmd_report(args, pool) -> int:
    reports = []
    for path in args.inputs:
        p = Path(path)
        if not p.is_file():
            raise DomainError(f"report not found: {p}")
        reports.append(EvaluationReport.from_json(p))
    table = format_report_table(reports)
    if args.out:
        Path(args.out).write_text(reports_to_csv(reports))
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttckit",
        description="Monocular time-to-contact estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic dataset")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("annotate", help="re-derive labels from depth tracks")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_annotate)

    p = sub.add_parser("estimate", help="run one estimator on one sequence")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seq", required=True, help="sequence id")
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
    p.add_argument("--weights")
    p.add_argument("--gap", type=int)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("train", help="train the feature-scale head")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory for weights")
    p.add_argument("--config")
    p.add_argument("--gap", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate an estimator on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
    p.add_argument("--weights")
    p.add_argument("--gap", type=int)
    p.add_argument("--config")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="report CSV path")
    p.add_argument("--force", action="store_true", help="ignore config-hash mismatches")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("report", help="merge evaluation reports into one grid")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", help="combined CSV path")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            return args.fn(args, pool)
    except (TtcKitError, FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - last-resort diagnostics
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
