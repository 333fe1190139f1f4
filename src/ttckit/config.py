"""Run configuration tree: serializable, hashable, CLI-facing.

Every on-disk artifact embeds ``config_hash(cfg)`` so downstream steps
can refuse mismatched inputs.  Hashing uses a canonical JSON encoding
(sorted keys, minimal separators, shortest-repr floats), which is stable
across platforms.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .core import check_int, is_finite_real
from .errors import DomainError
from .estimate import FeatureSearchConfig, ScaleSearchConfig
from .learn import TrainConfig
from .scenarios import TEMPLATE_IDS
from .synth import CameraModel, NoiseModel, PlanarTarget, checker_texture, noise_texture


def _from_dict(cls, data: dict, path: str):
    """The config section ``cls(**data)``; the keys not given keep their defaults.

    Every error names the section: the search sections share their checks,
    whose messages say only "scale search", so theirs get the section's name.
    """
    if not isinstance(data, dict):
        raise DomainError(f"{path} must be a JSON object, got {data!r}")
    section = fields(cls)
    unknown = set(data) - {f.name for f in section}
    if unknown:
        raise DomainError(f"unknown config keys under {path}: {sorted(unknown)}")
    kwargs = {}
    for f in section:
        if f.name in data:
            value = data[f.name]
            if isinstance(value, list) and "tuple" in str(f.type):
                value = tuple(value)
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except DomainError as exc:
        if str(exc).startswith(f"{path} "):
            raise
        raise DomainError(f"{path}: {exc}") from None


def _check_positive(name: str, value) -> None:
    if not (is_finite_real(value) and value > 0):
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class TargetConfig:
    physical_width: float = 2.0
    physical_height: float = 2.0
    texture: str = "noise"  # "noise" | "checker"
    texture_seed: int = 7
    texture_low: float = 0.25
    texture_high: float = 0.95
    lateral_offset_x: float = 0.0
    vertical_offset_z: float = 0.0

    def __post_init__(self) -> None:
        _check_positive("target physical_width", self.physical_width)
        _check_positive("target physical_height", self.physical_height)
        if self.texture not in ("noise", "checker"):
            raise DomainError(f'target texture must be "noise" or "checker", '
                              f"got {self.texture!r}")
        check_int("target texture_seed", self.texture_seed)
        for name in ("texture_low", "texture_high"):
            value = getattr(self, name)
            if not (is_finite_real(value) and 0 <= value <= 1):
                raise DomainError(f"target {name} must be finite and in [0, 1], got {value!r}")
        # equal bounds would leave the texture flat, and its scale unobservable
        if self.texture_low >= self.texture_high:
            raise DomainError(f"target texture_low must be below texture_high, got "
                              f"{self.texture_low!r} and {self.texture_high!r}")
        for name in ("lateral_offset_x", "vertical_offset_z"):
            if not is_finite_real(getattr(self, name)):
                raise DomainError(f"target {name} must be a finite number, "
                                  f"got {getattr(self, name)!r}")

    def to_target(self, seed_offset: int = 0) -> PlanarTarget:
        if self.texture == "noise":
            tex = noise_texture(self.texture_seed + seed_offset,
                                low=self.texture_low, high=self.texture_high)
        else:
            tex = checker_texture(low=self.texture_low, high=self.texture_high)
        return PlanarTarget(
            self.physical_width,
            self.physical_height,
            tex,
            lateral_offset_x=self.lateral_offset_x,
            vertical_offset_z=self.vertical_offset_z,
        )


@dataclass(frozen=True)
class SynthConfig:
    templates: tuple[int, ...] = TEMPLATE_IDS
    variants_per_template: int = 2
    sequences_per_variant: int = 1
    fps: float = 10.0
    length: int = 6
    start_min: float = 0.7
    background: float = 0.08
    vary_texture: bool = True  # new texture seed per sequence

    def __post_init__(self) -> None:
        if not (isinstance(self.templates, (tuple, list)) and self.templates and all(
                isinstance(t, numbers.Integral) and not isinstance(t, bool)
                and t in TEMPLATE_IDS for t in self.templates)):
            raise DomainError(f"synth templates must be a non-empty list of template ids from "
                              f"{list(TEMPLATE_IDS)}, got {self.templates!r}")
        check_int("synth variants_per_template", self.variants_per_template, 1)
        check_int("synth sequences_per_variant", self.sequences_per_variant, 1)
        check_int("synth length", self.length, 2)
        if not (is_finite_real(self.fps) and self.fps > 0):
            raise DomainError(f"synth fps must be finite and > 0, got {self.fps!r}")
        if not (is_finite_real(self.start_min) and self.start_min >= 0):
            raise DomainError(f"synth start_min must be finite and >= 0, got {self.start_min!r}")
        if not (is_finite_real(self.background) and 0 <= self.background <= 1):
            raise DomainError(f"synth background must be finite and in [0, 1], "
                              f"got {self.background!r}")
        if not isinstance(self.vary_texture, bool):
            raise DomainError(f"synth vary_texture must be true or false, got {self.vary_texture!r}")


@dataclass(frozen=True)
class RunConfig:
    camera: CameraModel = field(default_factory=CameraModel)
    target: TargetConfig = field(default_factory=TargetConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    synth: SynthConfig = field(default_factory=SynthConfig)
    search_pixel: ScaleSearchConfig = field(default_factory=ScaleSearchConfig)
    search_feature: FeatureSearchConfig = field(default_factory=FeatureSearchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("seed", self.seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise DomainError(f"config must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for f in fields(cls):
            if f.name == "seed" and "seed" in data:
                kwargs["seed"] = data["seed"]
            elif f.name in data:
                kwargs[f.name] = _from_dict(f.default_factory, data[f.name], f.name)
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise DomainError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise DomainError(f"config is not valid JSON: {path}: {exc}") from exc
        return cls.from_dict(data)


def canonical_config_json(cfg: RunConfig) -> bytes:
    return json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":")).encode()


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_config_json(cfg)).hexdigest()[:16]
