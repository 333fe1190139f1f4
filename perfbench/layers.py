"""Which ttckit functions the traced run wraps, and the per-layer metrics.

Each :class:`Layer` names one public function (or method) of a layer and
the span it records.  Hooks add work counts at the same boundary.  Counts
marked "computed" are derived from argument and result shapes, not
measured.  ``PER_LAYER`` is the metric table; ``BENCHMARK.json`` lists the
same names, units and directions.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spans import SpanRecorder


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str
    span: str | Callable
    before: Callable | None = None
    after: Callable | None = None


def _cli_span(args) -> str:
    argv = list(args[0])
    name = f"cli.{argv[0]}"
    if argv[0] == "eval" and "--estimator" in argv:
        name += "_" + argv[argv.index("--estimator") + 1]
    return name


def _bilinear_counts(rec: SpanRecorder, args, result, _pre) -> None:
    # computed: samples from the broadcast coordinate shape; bytes as four
    # corner reads per sample and channel, one float64 write, and the
    # float64 coordinate reads
    image, ys, xs = args[0], np.asarray(args[1]), np.asarray(args[2])
    samples = math.prod(np.broadcast_shapes(ys.shape, xs.shape))
    channels = image.shape[2] if image.ndim == 3 else 1
    rec.count("sampling.bilinear_samples", samples)
    rec.count("sampling.bilinear_bytes",
              samples * channels * (4 * image.itemsize + 8) + 8 * (ys.size + xs.size))


def _pixel_mse_counts(rec: SpanRecorder, args, result, _pre) -> None:
    cfg = args[1]
    rec.count("estimate.candidates_scored", cfg.n_bins * (2 * cfg.shift_c + 1) ** 2)
    rec.count("estimate.pixel_mse_low_confidence", int(result.low_confidence))


def _extract_counts(rec: SpanRecorder, args, result, _pre) -> None:
    rec.count("features.extract_mpix", args[0].shape[0] * args[0].shape[1] / 1e6)


def _train_counts(rec: SpanRecorder, args, result, _pre) -> None:
    rec.count("learn.train_samples", len(args[0]))
    rec.count("learn.epochs", len(result.history))


def _encode_counts(rec: SpanRecorder, args, result, _pre) -> None:
    rec.count("png.encode_bytes", len(result))


def _raster_cached(args) -> bool:
    return args[0].image is not None


def _cache_counts(rec: SpanRecorder, args, result, was_cached) -> None:
    rec.count("manifest.image_cache_hits", int(was_cached))


LAYERS = (
    Layer("ttckit.cli", "main", _cli_span),
    Layer("ttckit.sampling", "bilinear_sample", "sampling.bilinear", after=_bilinear_counts),
    Layer("ttckit.sampling", "crop_resize", "sampling.crop_resize"),
    Layer("ttckit.sampling", "grid_sample_features", "sampling.grid_sample"),
    Layer("ttckit.estimate", "pixel_mse_estimate", "estimate.pixel_mse", after=_pixel_mse_counts),
    Layer("ttckit.estimate", "feature_scale_estimate", "estimate.feature_scale"),
    Layer("ttckit.estimate", "pooled_cosine_scores", "estimate.cosine"),
    Layer("ttckit.estimate", "detection_ratio_estimate", "estimate.detection"),
    Layer("ttckit.features", "hand_crafted_features", "features.extract", after=_extract_counts),
    Layer("ttckit.learn", "train_loop", "learn.train_loop", after=_train_counts),
    Layer("ttckit.learn", "save_weights", "learn.save_weights"),
    Layer("ttckit.scenarios", "simulate_script", "scenarios.simulate"),
    Layer("ttckit.synth", "render_frame", "synth.render"),
    Layer("ttckit.png", "encode_png", "png.encode", after=_encode_counts),
    Layer("ttckit.png", "decode_png", "png.decode"),
    Layer("ttckit.manifest", "write_sequence_dir", "manifest.write_sequence"),
    Layer("ttckit.manifest", "load_dataset", "manifest.load_dataset"),
    Layer("ttckit.manifest", "FrameSample.load_image", "manifest.load_image",
          before=_raster_cached, after=_cache_counts),
    Layer("ttckit.annotate", "annotate_sequence", "annotate.sequence"),
    Layer("ttckit.annotate", "ransac_fit_velocity", "annotate.ransac"),
    Layer("ttckit.evaluation", "evaluate_dataset", "evaluation.evaluate"),
)


def _latency(span: str) -> list[tuple]:
    return [
        (f"{span}_ms_p50", "ms", "lower", "p50", span),
        (f"{span}_ms_top", "ms", "lower", "top", span),
        (f"{span}_top_pct", "%", "higher", "top_pct", span),
        (f"{span}_n", "count", "higher", "n", span),
    ]


# (metric, unit, better, kind, source).  Every value is per traced pass,
# except latencies (pooled over traced passes) and run-level "extra" values.
PER_LAYER = [
    ("cli.synth_s", "s", "lower", "total", "cli.synth"),
    ("cli.annotate_s", "s", "lower", "total", "cli.annotate"),
    ("cli.train_s", "s", "lower", "total", "cli.train"),
    ("cli.eval_detection_s", "s", "lower", "total", "cli.eval_detection"),
    ("cli.eval_pixel_mse_s", "s", "lower", "total", "cli.eval_pixel_mse"),
    ("cli.eval_feature_scale_s", "s", "lower", "total", "cli.eval_feature_scale"),
    ("cli.report_s", "s", "lower", "total", "cli.report"),
    ("sampling.bilinear_calls", "count", "lower", "calls", "sampling.bilinear"),
    ("sampling.bilinear_s", "s", "lower", "total", "sampling.bilinear"),
    ("sampling.bilinear_samples", "count", "lower", "counter", "sampling.bilinear_samples"),
    ("sampling.bilinear_bytes", "B", "lower", "counter", "sampling.bilinear_bytes"),
    ("sampling.crop_resize_s", "s", "lower", "total", "sampling.crop_resize"),
    ("sampling.grid_sample_s", "s", "lower", "total", "sampling.grid_sample"),
    ("estimate.pixel_mse_calls", "count", "lower", "calls", "estimate.pixel_mse"),
    ("estimate.pixel_mse_s", "s", "lower", "total", "estimate.pixel_mse"),
    ("estimate.pixel_mse_self_s", "s", "lower", "self", "estimate.pixel_mse"),
    *_latency("estimate.pixel_mse"),
    ("estimate.candidates_scored", "count", "lower", "counter", "estimate.candidates_scored"),
    ("estimate.low_confidence_share", "ratio", "lower", "share",
     ("estimate.pixel_mse_low_confidence", "estimate.pixel_mse")),
    ("estimate.feature_scale_s", "s", "lower", "total", "estimate.feature_scale"),
    ("estimate.feature_scale_self_s", "s", "lower", "self", "estimate.feature_scale"),
    *_latency("estimate.feature_scale"),
    ("estimate.cosine_s", "s", "lower", "total", "estimate.cosine"),
    ("estimate.detection_s", "s", "lower", "total", "estimate.detection"),
    ("features.extract_calls", "count", "lower", "calls", "features.extract"),
    ("features.extract_s", "s", "lower", "total", "features.extract"),
    ("features.extract_mpix", "Mpix", "lower", "counter", "features.extract_mpix"),
    ("learn.train_loop_s", "s", "lower", "total", "learn.train_loop"),
    ("learn.train_loop_self_s", "s", "lower", "self", "learn.train_loop"),
    ("learn.train_samples", "count", "higher", "counter", "learn.train_samples"),
    ("learn.epochs", "count", "higher", "counter", "learn.epochs"),
    ("learn.save_weights_calls", "count", "lower", "calls", "learn.save_weights"),
    ("learn.save_weights_s", "s", "lower", "total", "learn.save_weights"),
    ("scenarios.simulate_calls", "count", "lower", "calls", "scenarios.simulate"),
    ("scenarios.simulate_s", "s", "lower", "total", "scenarios.simulate"),
    ("synth.render_calls", "count", "lower", "calls", "synth.render"),
    ("synth.render_s", "s", "lower", "total", "synth.render"),
    *_latency("synth.render"),
    ("png.encode_calls", "count", "lower", "calls", "png.encode"),
    ("png.encode_s", "s", "lower", "total", "png.encode"),
    ("png.encode_bytes", "B", "lower", "counter", "png.encode_bytes"),
    ("png.decode_calls", "count", "lower", "calls", "png.decode"),
    ("png.decode_s", "s", "lower", "total", "png.decode"),
    ("manifest.write_sequence_s", "s", "lower", "total", "manifest.write_sequence"),
    ("manifest.load_dataset_s", "s", "lower", "total", "manifest.load_dataset"),
    ("manifest.image_loads", "count", "lower", "calls", "manifest.load_image"),
    ("manifest.image_cache_hit_ratio", "ratio", "higher", "share",
     ("manifest.image_cache_hits", "manifest.load_image")),
    ("annotate.sequence_calls", "count", "lower", "calls", "annotate.sequence"),
    ("annotate.sequence_s", "s", "lower", "total", "annotate.sequence"),
    ("annotate.ransac_calls", "count", "lower", "calls", "annotate.ransac"),
    ("annotate.ransac_s", "s", "lower", "total", "annotate.ransac"),
    ("annotate.label_err_s", "s", "lower", "extra", "label_err_s"),
    ("evaluation.evaluate_s", "s", "lower", "total", "evaluation.evaluate"),
    ("evaluation.evaluate_self_s", "s", "lower", "self", "evaluation.evaluate"),
    ("evaluation.mid", "1e-4", "lower", "extra", "mid"),
    ("evaluation.rte", "%", "lower", "extra", "rte"),
    ("checks.failed_share", "ratio", "lower", "extra", "failed_share"),
    ("trace.timed_s", "s", "lower", "extra", "timed_s"),
    ("trace.overhead_s", "s", "lower", "extra", "overhead_s"),
    ("trace.unattributed_s", "s", "lower", "extra", "unattributed_s"),
    ("trace.spans", "count", "lower", "extra", "spans"),
    ("trace.passes", "count", "higher", "extra", "passes"),
    ("trace.seqs_per_s", "seq/s", "higher", "extra", "seqs_per_s"),
    ("trace.reference_s", "s", "lower", "extra", "reference_s"),
]

_TOP_LEVELS = (99, 95, 90, 75)


def top_percentile(samples: list[float]) -> tuple[float, int]:
    """Highest of p99/p95/p90/p75 with at least ten samples above it.

    Falls back to the median (level 50) when fewer than 20 samples exist.
    """
    if not samples:
        return 0.0, 50
    n = len(samples)
    for level in _TOP_LEVELS:
        if n * (100 - level) / 100 >= 10:
            return statistics.quantiles(samples, n=100, method="inclusive")[level - 1], level
    return statistics.median(samples), 50


def per_layer_metrics(rec: SpanRecorder, n_passes: int, extra: dict[str, float]) -> dict[str, float]:
    """Reduce the recorder's spans and counters to the ``PER_LAYER`` values."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(rec.spans, rec.self_times()):
        name, dur = span[1], span[3] - span[2]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_s
        durations.setdefault(name, []).append(dur * 1e3)
    per_pass = 1.0 / max(n_passes, 1)
    out = {}
    for metric, _unit, _better, kind, source in PER_LAYER:
        if kind == "total":
            value = total.get(source, 0.0) * per_pass
        elif kind == "self":
            value = own.get(source, 0.0) * per_pass
        elif kind == "calls":
            value = calls.get(source, 0) * per_pass
        elif kind == "counter":
            value = rec.counters.get(source, 0) * per_pass
        elif kind == "share":
            hits, span = source
            value = rec.counters.get(hits, 0) / calls[span] if calls.get(span) else 0.0
        elif kind == "p50":
            samples = durations.get(source, [])
            value = statistics.median(samples) if samples else 0.0
        elif kind == "top":
            value = top_percentile(durations.get(source, []))[0]
        elif kind == "top_pct":
            value = top_percentile(durations.get(source, []))[1]
        elif kind == "n":
            value = len(durations.get(source, []))
        else:
            value = extra[source]
        out[metric] = value
    return out
