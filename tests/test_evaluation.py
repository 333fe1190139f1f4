"""Metrics and the benchmark harness."""

import math

import numpy as np
import pytest

from ttckit.core import scale_ratio_from_ttc
from ttckit.errors import DomainError, SequenceInvalidError
from ttckit.estimate import FeatureSearchConfig, ScaleSearchConfig, TtcEstimate, make_estimator
from ttckit.evaluation import (
    EvaluationReport,
    evaluate_dataset,
    format_report_table,
    mid_metric,
    reports_to_csv,
    rte_metric,
)
from ttckit.manifest import Sequence, SequenceLabel, load_dataset, write_index, write_sequence_dir
from ttckit.suites import mixed_interval_suite


def test_mid_identity_and_hand_value():
    assert mid_metric(0.95, 0.95) == 0.0
    got = mid_metric(0.96, 0.95)
    assert got == pytest.approx(abs(math.log(0.95) - math.log(0.96)) * 1e4, rel=1e-12)
    assert got == pytest.approx(104.71, abs=0.01)


def test_mid_symmetry_and_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b = rng.uniform(0.7, 1.4, size=2)
        k = rng.uniform(0.5, 2.0)
        assert mid_metric(a, b) == pytest.approx(mid_metric(b, a), rel=1e-12)
        # scaling both ratios by k > 0 cancels inside the log difference
        assert mid_metric(k * a, k * b) == pytest.approx(mid_metric(a, b), rel=1e-9)


def test_rte_hand_values():
    assert rte_metric(2.2, 2.0) == pytest.approx(10.0)
    assert rte_metric(2.0, 2.0) == 0.0
    assert rte_metric(40.0, 2.0) == pytest.approx(900.0)  # 40 truncates to 20
    with pytest.raises(DomainError):
        rte_metric(1.0, 0.0)


def test_metrics_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.uniform(0.7, 1.4, size=2)
        m = mid_metric(a, b)
        assert m >= 0.0
        assert (m == 0.0) == (a == b)


def _toy_sequence(i, tau):
    # the label convention: target-frame TTC, alpha_10 = tau / (tau + 0.1)
    alpha10 = scale_ratio_from_ttc(tau, 0.1) if tau != 0 else 1.0
    return Sequence(
        sequence_id=f"s{i:03d}",
        fps=10.0,
        frames=[],
        label=SequenceLabel(tau_s=tau, alpha_10hz=alpha10, velocity_mps=5.0),
    )


def _perfect_estimator(seq):
    return TtcEstimate(
        alpha_hat=seq.label.alpha_10hz,
        alpha_hat_10hz=seq.label.alpha_10hz,
        tau_hat=seq.label.tau_s,
        profile=None,
        estimator="perfect",
    )


def test_evaluate_perfect_estimator():
    seqs = [_toy_sequence(i, tau) for i, tau in enumerate((1.0, 2.5, 4.0, 8.0, -3.0))]
    report = evaluate_dataset(seqs, _perfect_estimator, "perfect", config_hash="h")
    assert report.overall.mid == 0.0
    assert report.overall.rte == 0.0
    assert report.overall.count == 5
    assert report.n_failures == 0


def test_evaluate_interval_counts_match_hand_count():
    taus = [0.5, 1.0, 2.9, 3.0, 3.5, 5.9, 6.0, 7.0, 19.0, 20.0,
            -0.2, -5.0, -20.0, 1.5, 2.0, 4.4, 6.6, 9.9, -2.2, 0.0]
    seqs = [_toy_sequence(i, tau) for i, tau in enumerate(taus)]
    report = evaluate_dataset(seqs, _perfect_estimator, "perfect")
    by_hand = {
        "crucial": sum(1 for t in taus if 0 <= t < 3),
        "small": sum(1 for t in taus if 3 <= t < 6),
        "large": sum(1 for t in taus if 6 <= t <= 20),
        "negative": sum(1 for t in taus if -20 <= t < 0),
    }
    for tag, expected in by_hand.items():
        assert report.per_interval[tag].count == expected
    assert sum(s.count for s in report.per_interval.values()) == len(taus)
    # the tau == 0 sequence cannot be scored relatively
    assert report.n_rte_excluded == 1


def test_evaluate_overall_is_count_weighted_mean():
    rng = np.random.default_rng(2)
    seqs = [_toy_sequence(i, float(t)) for i, t in enumerate(rng.uniform(-10, 15, 40))]

    def noisy(seq):
        jitter = 1.0 + 0.01 * ((hash(seq.sequence_id) % 7) - 3)
        alpha = seq.label.alpha_10hz * jitter
        return TtcEstimate(alpha, alpha, seq.label.tau_s * jitter, None, "noisy")

    report = evaluate_dataset(seqs, noisy, "noisy")
    total = sum(s.count for s in report.per_interval.values())
    weighted = sum(s.count * s.mid for s in report.per_interval.values()) / total
    assert report.overall.mid == pytest.approx(weighted, abs=1e-9)


def test_evaluate_records_failures():
    seqs = [_toy_sequence(i, 2.0 + i) for i in range(4)]

    def flaky(seq):
        if seq.sequence_id.endswith("2"):
            raise SequenceInvalidError("boom")
        return _perfect_estimator(seq)

    report = evaluate_dataset(seqs, flaky, "flaky")
    assert report.n_failures == 1
    assert report.overall.count == 3
    failed = [r for r in report.records if r["failed"]]
    assert len(failed) == 1 and failed[0]["id"] == "s002"


def test_report_serialization_round_trip_and_stability(tmp_path):
    seqs = [_toy_sequence(i, tau) for i, tau in enumerate((1.0, 4.0, 7.0, -2.0))]
    rep_a = evaluate_dataset(seqs, _perfect_estimator, "perfect", config_hash="abc")
    rep_b = evaluate_dataset(seqs, _perfect_estimator, "perfect", config_hash="abc")
    assert rep_a.to_json_bytes() == rep_b.to_json_bytes()
    path = tmp_path / "report.json"
    path.write_bytes(rep_a.to_json_bytes())
    back = EvaluationReport.from_json(path)
    assert back.to_json_bytes() == rep_a.to_json_bytes()


def test_report_csv_grid():
    seqs = [_toy_sequence(i, tau) for i, tau in enumerate((1.0, 4.0, 7.0, -2.0))]
    rep = evaluate_dataset(seqs, _perfect_estimator, "perfect")
    csv_text = reports_to_csv([rep])
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("estimator,MiD,MiD_c,MiD_s,MiD_l,MiD_n,RTE")
    assert lines[1].startswith("perfect,0.0000")
    table = format_report_table([rep])
    assert "perfect" in table and "MiD_c" in table


def test_evaluation_keeps_no_raster_of_an_on_disk_dataset(tmp_path):
    # memory stays flat in dataset size: rasters decoded from disk are
    # dropped once the estimate is made, while in-memory ones stay as given
    suite = mixed_interval_suite(3, seed=21)
    for seq in suite:
        write_sequence_dir(seq, tmp_path)
    write_index(tmp_path, [s.sequence_id for s in suite], config_hash="h")
    dataset = load_dataset(tmp_path)
    estimators = {
        "pixel_mse": make_estimator("pixel_mse", ScaleSearchConfig(n_bins=6, top_k=2, shift_c=1)),
        "feature_scale": make_estimator("feature_scale", FeatureSearchConfig()),
    }
    for name, estimator in estimators.items():
        on_disk = evaluate_dataset(dataset, estimator, name)
        assert on_disk.n_failures == 0
        assert all(f.image is None for seq in dataset for f in seq.frames)
        in_memory = evaluate_dataset(suite, estimator, name)
        assert in_memory.n_failures == 0
    for seq in suite:
        for frame in seq.frames:
            assert frame.image is not None and frame.load_image() is frame.image
