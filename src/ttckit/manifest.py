"""Sequence data model and the on-disk dataset contract.

A dataset directory holds one subdirectory per sequence (six PNG frames
plus ``manifest.json``) and a top-level ``index.json`` listing sequence
ids and the configuration hash.  Manifests are serialized with sorted
keys and a fixed float representation so regeneration is byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boxes import BoundingBox
from .core import is_finite_real
from .errors import DomainError, ManifestError
from .png import read_png, write_png

SEQUENCE_LENGTH = 6
_TIMESTAMP_TOL = 1e-9


@dataclass
class FrameSample:
    """One frame of a sequence: raster, per-object box, timestamp."""

    timestamp_s: float
    box: BoundingBox
    exact_box: BoundingBox | None = None
    depth_m: float | None = None
    image: np.ndarray | None = None  # (H, W, 3) float32 in [0, 1]
    image_path: str | None = None

    def load_image(self) -> np.ndarray:
        """The in-memory raster if the frame holds one, else its PNG, decoded.

        A raster read from disk is not kept on the frame, so memory stays
        flat however many frames a pass reads; a caller that needs it
        twice keeps its own reference.  A missing PNG is a ManifestError,
        like an unreadable one, so ``eval`` records it as that sequence's
        failure.
        """
        if self.image is not None:
            return self.image
        if self.image_path is None:
            raise ManifestError("frame has neither raster nor image path")
        path = Path(self.image_path)
        try:
            raster = read_png(path)
        except FileNotFoundError as exc:
            raise ManifestError(f"frame image not found: {path}") from exc
        except ManifestError as exc:
            raise ManifestError(f"frame image unreadable: {path} ({exc})") from exc
        return raster.astype(np.float32) / 255.0


@dataclass
class SequenceLabel:
    tau_s: float
    alpha_10hz: float
    velocity_mps: float
    q_used: int | None = None
    flags: list[str] = field(default_factory=list)
    alpha_by_gap: dict[int, float] | None = None
    depth_m: float | None = None


@dataclass
class Sequence:
    """Six consecutive frames at fixed FPS, optionally labeled."""

    sequence_id: str
    fps: float
    frames: list[FrameSample]
    label: SequenceLabel | None = None
    provenance: dict = field(default_factory=dict)
    depth_history: list[tuple[float, float]] | None = None

    def validate(self, length: int = SEQUENCE_LENGTH) -> None:
        if len(self.frames) != length:
            raise ManifestError(
                f"sequence {self.sequence_id}: expected {length} frames, got {len(self.frames)}"
            )
        dt = 1.0 / self.fps
        for i in range(1, len(self.frames)):
            gap = self.frames[i].timestamp_s - self.frames[i - 1].timestamp_s
            if abs(gap - dt) > _TIMESTAMP_TOL:
                raise ManifestError(
                    f"sequence {self.sequence_id}: frame spacing {gap} != 1/fps {dt}"
                )


def _box_to_json(box: BoundingBox | None):
    return None if box is None else [box.cx, box.cy, box.w, box.h]


def sequence_to_manifest(seq: Sequence) -> dict:
    label = None
    if seq.label is not None:
        label = {
            "tau_s": seq.label.tau_s,
            "alpha_10hz": seq.label.alpha_10hz,
            "velocity_mps": seq.label.velocity_mps,
            "q_used": seq.label.q_used,
            "flags": list(seq.label.flags),
            "alpha_by_gap": (
                None
                if seq.label.alpha_by_gap is None
                else {str(k): v for k, v in sorted(seq.label.alpha_by_gap.items())}
            ),
            "depth_m": seq.label.depth_m,
        }
    return {
        "sequence_id": seq.sequence_id,
        "fps": seq.fps,
        "frames": [
            {
                "image_path": f.image_path,
                "timestamp_s": f.timestamp_s,
                "bbox": _box_to_json(f.box),
                "exact_bbox": _box_to_json(f.exact_box),
                "depth_m": f.depth_m,
            }
            for f in seq.frames
        ],
        "label": label,
        "provenance": seq.provenance,
        "depth_history": seq.depth_history,
    }


def _manifest_fps(fps) -> float:
    """A manifest's ``fps``: a finite number > 0."""
    if not (is_finite_real(fps) and fps > 0):
        raise ManifestError(f"malformed sequence manifest: fps must be a finite number > 0, "
                            f"got {fps!r}")
    return fps


def _alpha_by_gap(value) -> dict[int, float] | None:
    """A label's ``alpha_by_gap``: null, or an object whose keys are the
    decimal digits of frame gaps >= 1."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ManifestError(f"malformed sequence manifest: label alpha_by_gap must be "
                            f"an object, got {value!r}")
    for key in value:
        if not (key.isascii() and key.isdigit() and int(key) >= 1):
            raise ManifestError(f"malformed sequence manifest: label alpha_by_gap key must "
                                f"be a frame gap >= 1, got {key!r}")
    return {int(k): v for k, v in value.items()}


def _manifest_box(frame: dict, name: str) -> BoundingBox:
    """A frame's ``bbox`` or ``exact_bbox``: four finite numbers [cx, cy, w, h]."""
    value = frame[name]
    if not (isinstance(value, list) and len(value) == 4 and all(map(is_finite_real, value))):
        raise ManifestError(f"malformed sequence manifest: frame {name} must be four finite "
                            f"numbers [cx, cy, w, h], got {value!r}")
    try:
        return BoundingBox(*value)
    except DomainError as exc:
        raise ManifestError(f"malformed sequence manifest: frame {name}: {exc}") from exc


def _frame_from_manifest(frame: dict) -> FrameSample:
    """One manifest frame; a null ``exact_bbox`` means none was recorded."""
    timestamp = frame["timestamp_s"]
    if not is_finite_real(timestamp):
        raise ManifestError(f"malformed sequence manifest: frame timestamp_s must be a "
                            f"finite number, got {timestamp!r}")
    path = frame["image_path"]
    if not isinstance(path, str):
        raise ManifestError(f"malformed sequence manifest: frame image_path must be a "
                            f"string, got {path!r}")
    return FrameSample(
        timestamp_s=timestamp,
        box=_manifest_box(frame, "bbox"),
        exact_box=None if frame.get("exact_bbox") is None else _manifest_box(frame, "exact_bbox"),
        depth_m=frame.get("depth_m"),
        image_path=path,
    )


def sequence_from_manifest(data: dict) -> Sequence:
    try:
        frames = [_frame_from_manifest(f) for f in data["frames"]]
        label = None
        if data.get("label") is not None:
            raw = data["label"]
            label = SequenceLabel(
                tau_s=raw["tau_s"],
                alpha_10hz=raw["alpha_10hz"],
                velocity_mps=raw["velocity_mps"],
                q_used=raw.get("q_used"),
                flags=list(raw.get("flags", [])),
                alpha_by_gap=_alpha_by_gap(raw.get("alpha_by_gap")),
                depth_m=raw.get("depth_m"),
            )
        history = data.get("depth_history")
        if history is not None:
            history = [(t, y) for t, y in history]
        return Sequence(
            sequence_id=data["sequence_id"],
            fps=_manifest_fps(data["fps"]),
            frames=frames,
            label=label,
            provenance=dict(data.get("provenance", {})),
            depth_history=history,
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"malformed sequence manifest: {exc}") from exc


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, indent=1).encode() + b"\n"


def write_sequence_dir(seq: Sequence, dataset_dir: Path) -> Path:
    """Write frames and manifest under ``dataset_dir/<sequence_id>/``."""
    seq_dir = Path(dataset_dir) / seq.sequence_id
    seq_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq.frames):
        if frame.image is None:
            raise ManifestError(f"frame {i} of {seq.sequence_id} has no raster to write")
        name = f"frame_{i}.png"
        raster = np.clip(np.rint(frame.image * 255.0), 0, 255).astype(np.uint8)
        write_png(seq_dir / name, raster)
        frame.image_path = f"{seq.sequence_id}/{name}"
    (seq_dir / "manifest.json").write_bytes(
        canonical_json_bytes(sequence_to_manifest(seq))
    )
    return seq_dir


def read_sequence_dir(seq_dir: Path) -> Sequence:
    """Read a sequence manifest; frame rasters load lazily."""
    path = Path(seq_dir) / "manifest.json"
    if not path.is_file():
        raise ManifestError(f"no manifest.json under {seq_dir}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {path}") from exc
    return sequence_from_manifest(data)


def write_index(dataset_dir: Path, sequence_ids: list[str], config_hash: str, extra: dict | None = None) -> None:
    index = {
        "config_hash": config_hash,
        "count": len(sequence_ids),
        "sequences": sorted(sequence_ids),
    }
    if extra:
        index.update(extra)
    (Path(dataset_dir) / "index.json").write_bytes(canonical_json_bytes(index))


def _sequence_dir_name(name) -> bool:
    """Whether ``name`` names a directory directly under the dataset."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


def read_index(dataset_dir: Path) -> dict:
    """Read a dataset's ``index.json``; a malformed index raises
    ``ManifestError`` naming the file and the field.

    ``sequences`` must list directory names directly under the dataset
    (no separator, no ``..``, not absolute), ``count`` be an integer and
    ``config_hash`` a string.
    """
    path = Path(dataset_dir) / "index.json"
    if not path.is_file():
        raise ManifestError(f"no index.json under {dataset_dir}")
    try:
        index = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"index is not valid JSON: {path}") from exc
    if not isinstance(index, dict):
        raise ManifestError(f"{path}: the index must be a JSON object")
    checks = {
        "sequences": lambda v: isinstance(v, list) and all(map(_sequence_dir_name, v)),
        "count": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "config_hash": lambda v: isinstance(v, str),
    }
    for field_name, valid in checks.items():
        value = index.get(field_name)
        if not valid(value):
            raise ManifestError(f"{path}: index field {field_name} is missing or "
                                f"malformed: {value!r}")
    return index


def read_dataset_sequence(dataset_dir: Path, seq_id: str) -> Sequence:
    """Read one sequence of a dataset, its relative frame paths resolved
    against ``dataset_dir``; rasters stay lazy."""
    seq = read_sequence_dir(Path(dataset_dir) / seq_id)
    for frame in seq.frames:
        if frame.image_path is not None and not Path(frame.image_path).is_absolute():
            frame.image_path = str(Path(dataset_dir) / frame.image_path)
    return seq


def load_dataset(dataset_dir: Path) -> list[Sequence]:
    """Load every indexed sequence (sorted by id); rasters stay lazy."""
    index = read_index(dataset_dir)
    return [read_dataset_sequence(dataset_dir, seq_id) for seq_id in index["sequences"]]
