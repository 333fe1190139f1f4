"""Monocular time-to-contact estimation via scale-ratio search.

The package provides, end to end: exact synthetic ground truth from a
pinhole renderer (:mod:`ttckit.synth`), a labeling pipeline with robust
velocity fitting (:mod:`ttckit.annotate`), three TTC estimators built
on a shared scaled-candidate search (:mod:`ttckit.estimate`), desk-scale
training of the feature-space estimator (:mod:`ttckit.learn`), and an
evaluation harness with interval-resolved metrics
(:mod:`ttckit.evaluation`).
"""

from .boxes import BoundingBox, expand_box
from .core import (
    TTC_MAX,
    TTC_MIN,
    TtcInterval,
    convert_scale_ratio_fps,
    scale_ratio_from_ttc,
    truncate_ttc,
    ttc_from_depth_velocity,
    ttc_from_scale_ratio,
    ttc_interval,
)
from .manifest import FrameSample, Sequence, SequenceLabel

__all__ = [
    "BoundingBox",
    "expand_box",
    "TTC_MAX",
    "TTC_MIN",
    "TtcInterval",
    "convert_scale_ratio_fps",
    "scale_ratio_from_ttc",
    "truncate_ttc",
    "ttc_from_depth_velocity",
    "ttc_from_scale_ratio",
    "ttc_interval",
    "FrameSample",
    "Sequence",
    "SequenceLabel",
]

__version__ = "0.1.0"
