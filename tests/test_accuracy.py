"""The accuracy ledger: ``ACCURACY.json`` at the repository root.

For each estimator at its default search, and each of three fixed suites,
the ledger holds MiD, RTE and count per TTC interval (crucial first,
then overall), as ``evaluate_dataset`` reports them.  An empty interval
has no mean, so its MiD and RTE are ``null`` there.  The test recomputes
every number and fails on any that moved by more than its estimator's
tolerance, worse (a regression) or better (the ledger is stale), and on
any count that changed.

The tolerances are set once, from the spread across the two noisy seeds,
and are never widened.  After a change that means to move the numbers,
rewrite the rows, keeping the tolerances, with::

    PYTHONPATH=src python tests/test_accuracy.py
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ttckit.estimate import FeatureSearchConfig, ScaleSearchConfig, make_estimator
from ttckit.evaluation import INTERVAL_ORDER, evaluate_dataset
from ttckit.suites import constant_velocity_suite, mixed_interval_suite
from ttckit.synth import NoiseModel

LEDGER = Path(__file__).resolve().parents[1] / "ACCURACY.json"
SEEDS = (7, 1009)
SUITES = {
    **{f"mixed_seed{seed}": f"mixed_interval_suite(24, seed={seed}), noise NoiseModel(2, "
                            f"0.03, (0.95, 1.05), (-0.02, 0.02), seed={seed})"
       for seed in SEEDS},
    "constant_velocity_seed0": "constant_velocity_suite(24, seed=0), noiseless",
}
ESTIMATORS = {
    "detection": ScaleSearchConfig(),
    "pixel_mse": ScaleSearchConfig(),
    "feature_scale": FeatureSearchConfig(),  # with no head given, the identity head
}


def build_suites() -> dict:
    suites = {f"mixed_seed{seed}": mixed_interval_suite(
        24, seed=seed, noise=NoiseModel(2, 0.03, (0.95, 1.05), (-0.02, 0.02), seed))
        for seed in SEEDS}
    suites["constant_velocity_seed0"] = constant_velocity_suite(24, seed=0)
    return suites


def _stats(stats) -> dict:
    empty = stats.count == 0
    return {"count": stats.count,
            "mid": None if empty else round(stats.mid, 4),
            "rte": None if empty else round(stats.rte, 4)}


def measure(pool) -> dict:
    """Every row of the ledger: estimator -> suite -> interval -> stats."""
    suites = build_suites()
    rows = {}
    for estimator, search in ESTIMATORS.items():
        rows[estimator] = {}
        for name, sequences in suites.items():
            report = evaluate_dataset(sequences, make_estimator(estimator, search, None, pool),
                                      estimator)
            cells = {iv.value: _stats(report.per_interval[iv.value]) for iv in INTERVAL_ORDER}
            rows[estimator][name] = {**cells, "overall": _stats(report.overall)}
    return rows


def seed_spread_tolerance(rows: dict) -> dict:
    """A tenth of how far the overall mean moves between the two noisy
    seeds, per estimator and metric, rounded up to two significant digits."""
    def round_up(x: float) -> float:
        digits = 1 - math.floor(math.log10(x))
        return math.ceil(x * 10**digits) / 10**digits

    a, b = (f"mixed_seed{seed}" for seed in SEEDS)
    return {estimator: {metric: round_up(0.1 * abs(row[a]["overall"][metric]
                                                  - row[b]["overall"][metric]))
                        for metric in ("mid", "rte")}
            for estimator, row in rows.items()}


def ledger_differences(ledger: dict, rows: dict) -> list[str]:
    """Each ledger number that ``rows`` moved beyond its tolerance."""
    found = []
    for estimator, suites in ledger["rows"].items():
        tolerance = ledger["tolerance"][estimator]
        for suite, cells in suites.items():
            for cell, want in cells.items():
                got = rows[estimator][suite][cell]
                where = f"{estimator} {suite} {cell}"
                if got["count"] != want["count"]:
                    found.append(f"{where}: count {want['count']} -> {got['count']}")
                    continue
                for metric, tol in tolerance.items():
                    old, new = want[metric], got[metric]
                    if (old is None) != (new is None):
                        found.append(f"{where}: {metric} {old} -> {new}")
                    elif old is not None and abs(new - old) > tol:
                        kind = "worse" if new > old else "better (rewrite the ledger)"
                        found.append(f"{where}: {metric} {old} -> {new}, more than {tol} {kind}")
    return found


def test_accuracy_ledger_holds(pool):
    ledger = json.loads(LEDGER.read_text())
    assert set(ledger["rows"]) == set(ESTIMATORS)
    assert all(set(suites) == set(SUITES) for suites in ledger["rows"].values())
    assert ledger_differences(ledger, measure(pool)) == []


def main() -> None:
    with ThreadPoolExecutor(max_workers=1) as pool:
        rows = measure(pool)
    old = json.loads(LEDGER.read_text()) if LEDGER.is_file() else {}
    ledger = {
        "about": "MiD (x1e4) and RTE (%) means and counts per TTC interval; null "
                 "where an interval is empty.  Recomputed by tests/test_accuracy.py.",
        "suites": SUITES,
        "searches": {"detection": "ScaleSearchConfig()", "pixel_mse": "ScaleSearchConfig()",
                     "feature_scale": "FeatureSearchConfig(), identity head"},
        "tolerance": old.get("tolerance") or seed_spread_tolerance(rows),
        "rows": rows,
    }
    LEDGER.write_text(json.dumps(ledger, indent=1) + "\n")


if __name__ == "__main__":
    main()
