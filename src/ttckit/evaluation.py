"""Evaluation metrics and benchmark harness.

Two sequence-level error measures:

* motion-in-depth (MiD) error: |log(alpha) - log(alpha_hat)| * 1e4, with
  both ratios first expressed at the 10 Hz reference rate so estimates
  made at different frame gaps are comparable;
* relative TTC error (RTE): |tau - tau_hat| / |tau| * 100%, both TTCs
  truncated to [-20, 20] first.

Reports break both down by ground-truth TTC interval
(crucial / small / large / negative) and serialize deterministically.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .core import TtcInterval, check_int, is_finite_real, truncate_ttc, ttc_interval
from .errors import DomainError, TtcKitError
from .estimate import TtcEstimate
from .manifest import Sequence, canonical_json_bytes

INTERVAL_ORDER = (
    TtcInterval.CRUCIAL,
    TtcInterval.SMALL,
    TtcInterval.LARGE,
    TtcInterval.NEGATIVE,
)


def mid_metric(alpha_hat: float, alpha_gt: float) -> float:
    """Motion-in-depth error (x 1e4) of two 10 Hz-equivalent scale ratios."""
    for alpha in (alpha_hat, alpha_gt):
        if not (is_finite_real(alpha) and alpha > 0):
            raise DomainError(f"scale ratios must be positive and finite, got {alpha!r}")
    return abs(math.log(alpha_gt) - math.log(alpha_hat)) * 1e4


def rte_metric(tau_hat: float, tau_gt: float) -> float:
    """Relative TTC error in percent; both TTCs truncated first."""
    tau_gt = truncate_ttc(tau_gt)
    tau_hat = truncate_ttc(tau_hat)
    if tau_gt == 0:
        raise DomainError("ground-truth TTC of 0 cannot be scored relatively")
    return abs((tau_gt - tau_hat) / tau_gt) * 100.0


@dataclass
class IntervalStats:
    count: int = 0
    mid: float = 0.0
    rte: float = 0.0


@dataclass
class EvaluationReport:
    estimator_id: str
    config_hash: str
    n_sequences: int
    n_failures: int
    n_rte_excluded: int
    overall: IntervalStats
    per_interval: dict[str, IntervalStats]
    records: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "estimator_id": self.estimator_id,
            "config_hash": self.config_hash,
            "n_sequences": self.n_sequences,
            "n_failures": self.n_failures,
            "n_rte_excluded": self.n_rte_excluded,
            "overall": vars(self.overall),
            "per_interval": {k: vars(v) for k, v in self.per_interval.items()},
            "records": self.records,
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_dict())

    @classmethod
    def from_dict(cls, data) -> "EvaluationReport":
        """The report ``to_dict`` wrote; any other field raises ``DomainError`` naming it."""
        keys = [f.name for f in fields(cls)]
        if not isinstance(data, dict) or set(data) != set(keys):
            raise DomainError(f"a report holds exactly {keys}, got "
                              f"{sorted(data) if isinstance(data, dict) else data!r}")
        for name in ("estimator_id", "config_hash"):
            if not isinstance(data[name], str):
                raise DomainError(f"{name} must be a string, got {data[name]!r}")
        for name in ("n_sequences", "n_failures", "n_rte_excluded"):
            check_int(name, data[name])
        per_interval = data["per_interval"]
        intervals = [iv.value for iv in INTERVAL_ORDER]
        if not isinstance(per_interval, dict) or set(per_interval) != set(intervals):
            raise DomainError(f"per_interval must hold exactly {intervals}, got {per_interval!r}")
        if not isinstance(data["records"], list):
            raise DomainError(f"records must be a list, got {data['records']!r}")
        return cls(
            estimator_id=data["estimator_id"],
            config_hash=data["config_hash"],
            n_sequences=data["n_sequences"],
            n_failures=data["n_failures"],
            n_rte_excluded=data["n_rte_excluded"],
            overall=_stats_from_dict(data["overall"], "overall"),
            per_interval={k: _stats_from_dict(v, f"per_interval.{k}")
                          for k, v in per_interval.items()},
            records=list(data["records"]),
        )

    @classmethod
    def from_json(cls, path: Path) -> "EvaluationReport":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except ValueError as exc:  # not JSON, or a DomainError naming the field
            raise DomainError(f"malformed report {path}: {exc}") from None


def _stats_from_dict(data, where: str) -> IntervalStats:
    if not isinstance(data, dict) or set(data) != {"count", "mid", "rte"}:
        raise DomainError(f"{where} must hold exactly count, mid and rte, got {data!r}")
    check_int(f"{where}.count", data["count"])
    for name in ("mid", "rte"):
        if not (is_finite_real(data[name]) and data[name] >= 0):
            raise DomainError(f"{where}.{name} must be finite and >= 0, got {data[name]!r}")
    return IntervalStats(**data)


def evaluate_dataset(
    sequences: list[Sequence],
    estimator: Callable[[Sequence], TtcEstimate],
    estimator_id: str,
    config_hash: str = "",
) -> EvaluationReport:
    """Run an estimator over labeled sequences and aggregate MiD/RTE.

    Sequences are processed in id order.  Every sequence must be
    labeled: the first unlabeled one raises ``DomainError`` before any
    estimate is made.  Estimator failures become failure records and are
    excluded from the means; sequences are bucketed by their ground-truth
    interval.
    """
    ordered = sorted(sequences, key=lambda s: s.sequence_id)
    for seq in ordered:
        if seq.label is None:
            raise DomainError(f"sequence {seq.sequence_id} is unlabeled")
    records: list[dict] = []
    mids: dict[TtcInterval, list[float]] = {iv: [] for iv in INTERVAL_ORDER}
    rtes: dict[TtcInterval, list[float]] = {iv: [] for iv in INTERVAL_ORDER}
    n_failures = 0
    n_rte_excluded = 0

    for seq in ordered:
        tau_gt = truncate_ttc(seq.label.tau_s)
        alpha_gt_10 = seq.label.alpha_10hz
        interval = ttc_interval(tau_gt)
        record = {
            "id": seq.sequence_id,
            "interval": interval.value,
            "tau_gt": tau_gt,
            "alpha_gt_10hz": alpha_gt_10,
        }
        try:
            est = estimator(seq)
        except TtcKitError as exc:
            n_failures += 1
            record.update({"failed": True, "error": str(exc)})
            records.append(record)
            continue
        mid = mid_metric(est.alpha_hat_10hz, alpha_gt_10)
        record.update(
            {
                "failed": False,
                "tau_hat": est.tau_hat,
                "alpha_hat_10hz": est.alpha_hat_10hz,
                "mid": mid,
                "low_confidence": est.low_confidence,
            }
        )
        mids[interval].append(mid)
        if tau_gt == 0:
            n_rte_excluded += 1
            record["rte"] = None
        else:
            rte = rte_metric(est.tau_hat, tau_gt)
            record["rte"] = rte
            rtes[interval].append(rte)
        records.append(record)

    def stats(mid_list, rte_list) -> IntervalStats:
        return IntervalStats(
            count=len(mid_list),
            mid=float(np.mean(mid_list)) if mid_list else 0.0,
            rte=float(np.mean(rte_list)) if rte_list else 0.0,
        )

    per_interval = {
        iv.value: stats(mids[iv], rtes[iv]) for iv in INTERVAL_ORDER
    }
    all_mids = [m for iv in INTERVAL_ORDER for m in mids[iv]]
    all_rtes = [r for iv in INTERVAL_ORDER for r in rtes[iv]]
    return EvaluationReport(
        estimator_id=estimator_id,
        config_hash=config_hash,
        n_sequences=len(sequences),
        n_failures=n_failures,
        n_rte_excluded=n_rte_excluded,
        overall=stats(all_mids, all_rtes),
        per_interval=per_interval,
        records=records,
    )


_CSV_COLUMNS = (
    "estimator", "MiD", "MiD_c", "MiD_s", "MiD_l", "MiD_n",
    "RTE", "RTE_c", "RTE_s", "RTE_l", "RTE_n", "count", "failures",
)

_SUFFIX = {
    TtcInterval.CRUCIAL: "c",
    TtcInterval.SMALL: "s",
    TtcInterval.LARGE: "l",
    TtcInterval.NEGATIVE: "n",
}


def report_grid_rows(reports: list[EvaluationReport]) -> list[dict]:
    rows = []
    for rep in reports:
        row = {
            "estimator": rep.estimator_id,
            "MiD": f"{rep.overall.mid:.4f}",
            "RTE": f"{rep.overall.rte:.4f}",
            "count": str(rep.overall.count),
            "failures": str(rep.n_failures),
        }
        for iv in INTERVAL_ORDER:
            st = rep.per_interval[iv.value]
            row[f"MiD_{_SUFFIX[iv]}"] = f"{st.mid:.4f}"
            row[f"RTE_{_SUFFIX[iv]}"] = f"{st.rte:.4f}"
        rows.append(row)
    return rows


def reports_to_csv(reports: list[EvaluationReport]) -> str:
    """One grid row per estimator: overall and per-interval MiD/RTE."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in report_grid_rows(reports):
        writer.writerow(row)
    return buf.getvalue()


def format_report_table(reports: list[EvaluationReport]) -> str:
    """Fixed-width text rendering of the CSV grid."""
    rows = report_grid_rows(reports)
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) if rows else len(c) for c in _CSV_COLUMNS}
    lines = ["  ".join(c.ljust(widths[c]) for c in _CSV_COLUMNS)]
    for row in rows:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in _CSV_COLUMNS))
    return "\n".join(lines)
