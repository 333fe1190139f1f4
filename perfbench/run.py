"""Benchmark for ttckit: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pixel-search --seed 7 --seconds 40 --trace 0

Run from the root of a checkout; ttckit is imported from its ``src``.
Set-up imports ttckit in a fresh interpreter and builds the workload's
inputs from ``--seed``, three times; the median counts.  One untimed
warm-up pass follows, then timed passes of the workload's CLI steps until
the next one would end after ``--seconds`` from the start of set-up (at
least two passes); every pass's outputs are checked.  The reference kernel
of ``reference.py`` runs between the timed segments, and times are also
reported at the nominal host speed it defines.  The last
stdout line is one JSON object: with ``--trace 0`` the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a run that alternates untraced
and traced passes.  A traced run also writes its spans to
``.perfbench_traces/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Reference, at_nominal
from spans import SpanRecorder, install, uninstall, wrappers_present

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 7  # seed 1009 is held out for confirming claims; see README.md
SETUP_REPEATS = 3
MIN_PASSES = 2
END_TO_END = {"setup_s": "s", "nominal_seqs_per_s": "seq/s", "peak_rss_mb": "MB"}
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_IMPORT_PROBE = "import time; t = time.perf_counter(); import ttckit.cli; print(time.perf_counter() - t)"
_LABEL_ERR = re.compile(r"max \|d tau\| vs prior labels (\S+) s")


def cap_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; unset TTCKIT_THREADS.

    Must run before numpy is imported.
    """
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in _BLAS_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))
    os.environ.pop("TTCKIT_THREADS", None)


def import_ttckit() -> None:
    """Import the checkout's ttckit from source, or exit if the checkout has none."""
    src = (ROOT / "src").resolve()
    if not (src / "ttckit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ttckit sources under {src}")
    sys.path.insert(0, str(src))
    import ttckit.cli

    if Path(ttckit.cli.__file__).resolve().parent != src / "ttckit":
        raise SystemExit(f"perfbench: imported ttckit from {ttckit.cli.__file__}, not {src}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing ``ttckit.cli`` from the checkout."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """``ttckit.cli.main(argv)`` with its stdout captured."""
    import ttckit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ttckit.cli.main(argv)  # looked up per call, so a traced pass reaches the wrapper
    return rc, buf.getvalue()


def run_pass(workload, inputs: Path, out: Path, reference: Reference):
    """One pass of the workload's CLI steps, with a reference run after each segment.

    Returns the wall time of the CLI calls, the same at the nominal host
    speed, and each call as (argv, exit code, stdout).
    """
    calls = []
    wall = nominal = 0.0
    for segment in workload.segments(inputs, out):
        before = reference.last
        start = time.perf_counter()
        for argv in segment:
            rc, stdout = quiet_main(argv)
            calls.append((argv, rc, stdout))
        seconds = time.perf_counter() - start
        wall += seconds
        nominal += at_nominal(seconds, before, reference.seconds())
    return wall, nominal, calls


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class Checks:
    """Output checks over every pass; a failed check is printed and counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.hashes: dict[str, str] | None = None
        self.reports: dict[str, dict] = {}  # each evaluation report of the first pass
        self.label_err: float | None = None

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"check failed: {message}", flush=True)

    def check_pass(self, workload, inputs: Path, out: Path, calls, traced: bool) -> int:
        """Check one pass; returns the dataset size it went through (0 if unknown)."""
        for argv, rc, stdout in calls:
            self.attempted += 1
            if rc != 0:
                self.fail(f"`ttckit {argv[0]}` exited {rc}")
            if argv[0] == "annotate":
                self._check_label_err(stdout)
        if not traced and (found := wrappers_present()):
            self.fail(f"untraced pass ran with span wrappers on {found}")
        try:
            n_seqs = 0
            for name, data in workload.datasets(inputs, out).items():
                count = json.loads((data / "index.json").read_text())["count"]
                self._check_report(name, json.loads((out / name).read_text()), count)
                n_seqs += count
            hashes = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                      for name in workload.report_names}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.fail(f"pass outputs unreadable: {exc!r}")
            return 0
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            changed = sorted(k for k in hashes if hashes[k] != self.hashes.get(k))
            self.fail(f"output bytes differ from the first pass at this seed: {changed}")
        return n_seqs

    def _check_report(self, name: str, report: dict, n_seqs: int) -> None:
        self.attempted += len(report["records"])
        if report["n_failures"]:
            self.fail(f"{name} has {report['n_failures']} failed sequences", report["n_failures"])
        if report["n_sequences"] != n_seqs:
            self.fail(f"{name}: n_sequences {report['n_sequences']} != dataset size {n_seqs}")
        for rec in report["records"]:
            alpha, tau = rec.get("alpha_hat_10hz"), rec.get("tau_hat")
            if not rec.get("failed") and not (_finite(alpha) and alpha > 0 and _finite(tau)):
                self.fail(f"{name}: {rec['id']} has alpha_hat_10hz={alpha} tau_hat={tau}")
        self.reports.setdefault(name, report)

    def _check_label_err(self, stdout: str) -> None:
        # largest |re-annotated tau - synth tau|, as `ttckit annotate` prints it
        match = _LABEL_ERR.search(stdout)
        value = float(match.group(1)) if match else math.nan
        if not math.isfinite(value):
            self.fail(f"annotate printed no label difference: {stdout.strip()!r}")
        elif self.label_err is None:
            self.label_err = value
        elif value != self.label_err:
            self.fail(f"annotate label difference changed: {value} vs {self.label_err}")


def _setup(workload, work: Path, reference: Reference) -> tuple[Path, list[float]]:
    """Import and input generation, repeated; returns the inputs and each
    repeat's wall time at the nominal host speed."""
    walls = []
    for i in range(SETUP_REPEATS):
        dest = work / f"inputs{i}"
        dest.mkdir()
        before = reference.last
        import_s = import_seconds()
        start = time.perf_counter()
        workload.generate(dest, lambda argv: quiet_main(argv)[0])
        wall = import_s + time.perf_counter() - start
        walls.append(at_nominal(wall, before, reference.seconds()))
        if i:
            shutil.rmtree(dest)
    return work / "inputs0", walls


def _throughput(passes: list[tuple[int, float, float]], time_field: int) -> float:
    """Sequences through the untraced passes over their summed time.

    With two to nine long passes a run, the ratio of sums uses every pass;
    it spread less between runs than the median pass rate."""
    return sum(p[0] for p in passes) / sum(p[time_field] for p in passes)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Set up, run the timed phase and return the result object."""
    from layers import LAYERS, PER_LAYER, per_layer_metrics
    from workloads import FULL, WORKLOADS

    workload = WORKLOADS[name](seed, sizes or FULL)
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    recorder = SpanRecorder()
    walls: dict[bool, list[float]] = {False: [], True: []}
    # per untraced pass: (sequences, wall, wall at the nominal host speed)
    untraced: list[tuple[int, float, float]] = []
    unattributed: list[float] = []
    try:
        deadline = time.perf_counter() + seconds
        reference = Reference()
        inputs, setup_walls = _setup(workload, work, reference)
        # warm-up pass: checked but not timed, so lazy imports and first-touch
        # memory are paid before the timed passes
        out = work / "warmup"
        out.mkdir()
        _, _, calls = run_pass(workload, inputs, out, reference)
        checks.check_pass(workload, inputs, out, calls, traced=False)
        shutil.rmtree(out)
        longest = 0.0
        k = 0
        # no pass starts that would likely end after the deadline
        while k < MIN_PASSES or time.perf_counter() + longest < deadline:
            traced = trace and k % 2 == 1
            out = work / f"pass{k}"
            out.mkdir()
            started = time.perf_counter()
            if traced:
                recorder.pass_index = k
                first = len(recorder.spans)
                patched = install(recorder, LAYERS)
                try:
                    wall, nominal, calls = run_pass(workload, inputs, out, reference)
                finally:
                    uninstall(patched)
                top = sum(s[3] - s[2] for s in recorder.spans[first:] if s[4] is None)
                unattributed.append(wall - top)
            else:
                wall, nominal, calls = run_pass(workload, inputs, out, reference)
            n_seqs = checks.check_pass(workload, inputs, out, calls, traced)
            walls[traced].append(wall)
            if not traced:
                untraced.append((n_seqs, wall, nominal))
            print(f"pass {k} {'traced' if traced else 'untraced'}: {wall:.3f} s, "
                  f"{nominal:.3f} s at nominal speed, {n_seqs} sequences", flush=True)
            shutil.rmtree(out)
            longest = max(longest, time.perf_counter() - started)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for artifact, digest in sorted((checks.hashes or {}).items()):
        print(f"sha256 {artifact} {digest}")
    if trace:
        recorder.write_jsonl(ROOT / ".perfbench_traces" / f"{name}-seed{seed}.jsonl")
        # overall MiD and RTE pooled over the records of every report, as
        # ``ttckit.evaluation`` pools them within one
        records = [rec for report in checks.reports.values() for rec in report["records"]]
        mids = [rec["mid"] for rec in records if rec.get("mid") is not None]
        rtes = [rec["rte"] for rec in records if rec.get("rte") is not None]
        n_traced = len(walls[True])
        metrics = per_layer_metrics(recorder, n_traced, {
            "label_err_s": checks.label_err or 0.0,
            "mid": statistics.fmean(mids) if mids else 0.0,
            "rte": statistics.fmean(rtes) if rtes else 0.0,
            "failed_share": checks.failed / max(checks.attempted, 1),
            "timed_s": statistics.fmean(walls[True]),
            "overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
            "unattributed_s": statistics.fmean(unattributed),
            "spans": len(recorder.spans) / n_traced,
            "passes": n_traced,
            "seqs_per_s": _throughput(untraced, 1),
            "reference_s": statistics.median(reference.history),
        })
        units = {metric: unit for metric, unit, *_ in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "nominal_seqs_per_s": _throughput(untraced, 2),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dataset", "pixel-search", "feature-train"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cap_threads()
    import_ttckit()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, entry in result["metrics"].items():
        print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
