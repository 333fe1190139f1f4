"""Run-config serialization and hashing."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttckit.config import (
    RunConfig,
    SynthConfig,
    TargetConfig,
    canonical_config_json,
    config_hash,
)
from ttckit.errors import DomainError
from ttckit.estimate import FeatureSearchConfig, ScaleSearchConfig
from ttckit.synth import CameraModel


def test_defaults_round_trip():
    cfg = RunConfig()
    back = RunConfig.from_dict(json.loads(canonical_config_json(cfg)))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_hash_changes_with_values():
    a = RunConfig()
    b = RunConfig.from_dict({**a.to_dict(), "seed": 99})
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


def test_tuples_survive_json():
    cfg = RunConfig.from_dict(
        {"noise": {"gain_range": [0.9, 1.1], "seed": 3}, "synth": {"templates": [2, 5]}}
    )
    assert cfg.noise.gain_range == (0.9, 1.1)
    assert cfg.synth.templates == (2, 5)
    # and the hash is insensitive to list-vs-tuple input form
    again = RunConfig.from_dict(json.loads(canonical_config_json(cfg)))
    assert config_hash(again) == config_hash(cfg)


def test_unknown_keys_rejected():
    with pytest.raises(DomainError):
        RunConfig.from_dict({"unknown_section": {}})
    with pytest.raises(DomainError):
        RunConfig.from_dict({"camera": {"focal": 3.0}})


def test_camera_and_target_builders():
    cam = CameraModel(500.0, width=100, height=80)
    assert (cam.cx, cam.cy) == (50.0, 40.0)
    tgt = TargetConfig(texture="checker").to_target()
    assert tgt.texture.max() > tgt.texture.min()
    with pytest.raises(DomainError):
        TargetConfig(texture="marble").to_target()


def test_missing_config_file(tmp_path):
    with pytest.raises(DomainError):
        RunConfig.from_json_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DomainError):
        RunConfig.from_json_file(bad)
    bad.write_text("3")  # raised TypeError before
    with pytest.raises(DomainError, match="config must be a JSON object, got 3"):
        RunConfig.from_json_file(bad)


def test_synth_config_defaults():
    s = SynthConfig()
    assert s.templates == (1, 2, 3, 4, 5, 6)
    assert s.fps == 10.0 and s.length == 6


@pytest.mark.parametrize("section", ["search_pixel", "search_feature"])
@pytest.mark.parametrize("key,value", [
    ("n_bins", 20.0), ("top_k", 2.0), ("shift_c", 1.5), ("frame_gap", True),
    ("frame_gap", 0), ("n_bins", 1),
    ("expand_cap", math.nan), ("expand_cap", 0.9), ("alpha_min", -math.inf),
    ("alpha_max", math.nan), ("alpha_max", "1.5"), ("alpha_min", True), ("expand_cap", True),
])
def test_scale_search_refuses_non_integer_and_non_finite_values(section, key, value):
    # each of these used to raise TypeError inside the run, or to run
    # silently (a frame_gap of true at gap 1, a NaN expand_cap, an alpha
    # range from true, read as 1)
    with pytest.raises(DomainError, match=f"scale search {key} must be"):
        RunConfig.from_dict({section: {key: value}})


@pytest.mark.parametrize("key,value", [("target_w", 20.0), ("target_h", "20"), ("target_w", 1)])
def test_feature_search_refuses_a_grid_size_that_is_not_an_integer_of_at_least_2(key, value):
    with pytest.raises(DomainError, match=f"scale search {key} must be"):
        RunConfig.from_dict({"search_feature": {key: value}})


def test_a_camera_without_cx_cy_hashes_as_one_centred_by_hand():
    # a null principal point is the image centre, stored as the number it
    # resolves to, so the two spellings are one config
    implicit = RunConfig.from_dict({"camera": {"f": 800.0, "width": 321, "height": 192}})
    explicit = RunConfig.from_dict({"camera": {"f": 800.0, "width": 321, "height": 192,
                                               "cx": 321 / 2.0, "cy": 192 / 2.0}})
    assert implicit == explicit
    assert (implicit.camera.cx, implicit.camera.cy) == (160.5, 96.0)
    assert config_hash(implicit) == config_hash(explicit)


@pytest.mark.parametrize("section, defaults", [
    ("search_pixel", ScaleSearchConfig),
    ("search_feature", FeatureSearchConfig),
], ids=["search_pixel-pixel_defaults", "search_feature-feature_defaults"])
def test_a_partial_search_section_keeps_its_own_defaults(section, defaults):
    # search_feature once took the pixel defaults for the keys not given:
    # {"top_k": 2} gave 125 bins at shift radius 3, and a 125 x 125 head
    cfg = RunConfig.from_dict({section: {"top_k": 2}})
    assert getattr(cfg, section) == defaults(top_k=2)
    assert RunConfig.from_dict({section: {}}) == RunConfig()


_REMOVED = object()
# a full valid config as JSON reads it, and (section,) and (section, field)
# paths into it
_CONFIG = json.loads(canonical_config_json(RunConfig()))
_CONFIG_PATHS = [(name,) for name in _CONFIG] + [
    (name, key) for name, section in _CONFIG.items() if isinstance(section, dict)
    for key in section]
_CONFIG_VALUES = st.one_of(
    st.sampled_from([_REMOVED, None, "a", [], [3], [0.5, 2.0], {}, {"a": 1}, math.nan,
                     math.inf, -math.inf, 0, 0.0, -1, -2.5, 0.5, 3.0, 20.5, True, False]),
    st.integers(-5, 25),
    st.floats(-5.0, 25.0).filter(lambda x: not x.is_integer()),
)


@settings(max_examples=500, deadline=None)
@given(where=st.sampled_from(_CONFIG_PATHS), value=_CONFIG_VALUES)
def test_a_changed_config_field_is_read_or_refused_by_name(where, value):
    # one field of a valid config set to a wrong type, NaN, +-inf, 0, a
    # negative, a non-integer float or a bool, or removed, or a whole
    # section replaced: from_dict returns a RunConfig, or raises
    # DomainError naming the section and field, nothing else
    data = json.loads(json.dumps(_CONFIG))
    *section, key = where
    holder = data[section[0]] if section else data
    if value is _REMOVED:
        del holder[key]
    else:
        holder[key] = value
    try:
        cfg = RunConfig.from_dict(data)
    except DomainError as exc:
        assert all(name in str(exc) for name in where), str(exc)
    else:
        assert isinstance(cfg, RunConfig)
