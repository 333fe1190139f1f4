"""No search setting that its search never reads.

A field of ``ScaleSearchConfig`` or ``FeatureSearchConfig`` enters
``config_hash``, so a field the search ignores still makes ``eval``
refuse a head trained on an identically rendered dataset.  Each search
runs here on a subclass of its config class that records every field it
reads after construction, and must read all of them.
"""

from dataclasses import fields

import pytest

from ttckit.estimate import (
    FeatureSearchConfig,
    ScaleSearchConfig,
    feature_scale_estimate,
    pixel_mse_estimate,
)
from ttckit.suites import constant_velocity_suite


def _recording(cls):
    class Recording(cls):
        reads: set[str] = set()

        def __getattribute__(self, name):
            type(self).reads.add(name)
            return super().__getattribute__(name)

    return Recording


@pytest.mark.parametrize("cls, search", [
    (ScaleSearchConfig, pixel_mse_estimate),
    (FeatureSearchConfig, feature_scale_estimate),
], ids=["pixel_mse", "feature_scale"])
def test_each_search_reads_every_field_of_its_config(cls, search):
    (seq,) = constant_velocity_suite(1, seed=3)
    recording = _recording(cls)
    cfg = recording(n_bins=9, shift_c=1)
    recording.reads.clear()  # __post_init__ reads every field to check it
    search(seq, cfg)
    unread = [f.name for f in fields(cls) if f.name not in recording.reads]
    assert unread == [], f"{cls.__name__} fields its search never reads: {unread}"
