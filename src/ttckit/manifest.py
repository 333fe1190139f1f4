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


def _malformed(what: str, value) -> ManifestError:
    return ManifestError(f"malformed sequence manifest: {what}, got {value!r}")


def _field(holder: dict, key: str, name: str):
    """``holder[key]``; a missing field raises ManifestError naming it."""
    if key not in holder:
        raise ManifestError(f"malformed sequence manifest: {name} is missing")
    return holder[key]


def _object(value, name: str) -> dict:
    """A manifest value that must be a JSON object."""
    if not isinstance(value, dict):
        raise _malformed(f"{name} must be an object", value)
    return value


def _finite(value, name: str, nullable: bool = False):
    """A manifest number: finite, or also null if ``nullable``."""
    if not (is_finite_real(value) or (nullable and value is None)):
        raise _malformed(f"{name} must be {'null or ' if nullable else ''}a finite number",
                         value)
    return value


def _manifest_fps(fps) -> float:
    """A manifest's ``fps``: a finite number > 0."""
    if not (is_finite_real(fps) and fps > 0):
        raise _malformed("fps must be a finite number > 0", fps)
    return fps


def _alpha_by_gap(value) -> dict[int, float] | None:
    """A label's ``alpha_by_gap``: null, or an object whose keys are the
    decimal digits of frame gaps >= 1 and whose values are finite numbers."""
    if value is None:
        return None
    if not isinstance(value, dict):
        raise _malformed("label alpha_by_gap must be an object", value)
    for key in value:
        if not (key.isascii() and key.isdigit() and int(key) >= 1):
            raise _malformed("label alpha_by_gap key must be a frame gap >= 1", key)
    return {int(k): _finite(v, "label alpha_by_gap value") for k, v in value.items()}


def _manifest_box(frame: dict, name: str) -> BoundingBox:
    """A frame's ``bbox`` or ``exact_bbox``: four finite numbers [cx, cy, w, h]."""
    value = _field(frame, name, f"frame {name}")
    if not (isinstance(value, list) and len(value) == 4 and all(map(is_finite_real, value))):
        raise _malformed(f"frame {name} must be four finite numbers [cx, cy, w, h]", value)
    try:
        return BoundingBox(*value)
    except DomainError as exc:
        raise ManifestError(f"malformed sequence manifest: frame {name}: {exc}") from exc


def _frame_from_manifest(frame) -> FrameSample:
    """One manifest frame; a null ``exact_bbox`` means none was recorded."""
    frame = _object(frame, "frame")
    timestamp = _finite(_field(frame, "timestamp_s", "frame timestamp_s"), "frame timestamp_s")
    path = _field(frame, "image_path", "frame image_path")
    if not isinstance(path, str):
        raise _malformed("frame image_path must be a string", path)
    return FrameSample(
        timestamp_s=timestamp,
        box=_manifest_box(frame, "bbox"),
        exact_box=None if frame.get("exact_bbox") is None else _manifest_box(frame, "exact_bbox"),
        depth_m=_finite(frame.get("depth_m"), "frame depth_m", nullable=True),
        image_path=path,
    )


def _label_from_manifest(raw) -> SequenceLabel | None:
    """A manifest's ``label``: null, or an object of checked fields."""
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise _malformed("label must be null or an object", raw)
    q_used = raw.get("q_used")
    if not (q_used is None or (isinstance(q_used, int) and not isinstance(q_used, bool))):
        raise _malformed("label q_used must be null or an integer", q_used)
    flags = raw.get("flags", [])
    if not (isinstance(flags, list) and all(isinstance(flag, str) for flag in flags)):
        raise _malformed("label flags must be a list of strings", flags)
    return SequenceLabel(
        **{key: _finite(_field(raw, key, f"label {key}"), f"label {key}")
           for key in ("tau_s", "alpha_10hz", "velocity_mps")},
        q_used=q_used,
        flags=list(flags),
        alpha_by_gap=_alpha_by_gap(raw.get("alpha_by_gap")),
        depth_m=_finite(raw.get("depth_m"), "label depth_m", nullable=True),
    )


def _depth_history(value) -> list[tuple[float, float]] | None:
    """A manifest's ``depth_history``: null, or a list of [t, depth] pairs
    of finite numbers."""
    if value is None:
        return None
    if not (isinstance(value, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(map(is_finite_real, pair))
            for pair in value)):
        raise _malformed("depth_history must be null or a list of [t, depth] pairs of "
                         "finite numbers", value)
    return [(t, y) for t, y in value]


def sequence_from_manifest(data) -> Sequence:
    """A sequence from its parsed ``manifest.json``; a missing or malformed
    field raises ManifestError naming it."""
    data = _object(data, "the manifest")
    frames = _field(data, "frames", "frames")
    if not isinstance(frames, list):
        raise _malformed("frames must be a list", frames)
    sequence_id = _field(data, "sequence_id", "sequence_id")
    if not isinstance(sequence_id, str):
        raise _malformed("sequence_id must be a string", sequence_id)
    return Sequence(
        sequence_id=sequence_id,
        fps=_manifest_fps(_field(data, "fps", "fps")),
        frames=[_frame_from_manifest(f) for f in frames],
        label=_label_from_manifest(data.get("label")),
        provenance=dict(_object(data.get("provenance", {}), "provenance")),
        depth_history=_depth_history(data.get("depth_history")),
    )


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, indent=1).encode() + b"\n"


def write_frame(frame: FrameSample, dataset_dir: Path, sequence_id: str, index: int,
                consume: bool = False) -> None:
    """Write a frame's raster as ``dataset_dir/<sequence_id>/frame_<index>.png``,
    creating the sequence's directory, and record that path on the frame.

    The raster is scaled to [0, 255], rounded and clipped in one array of
    its shape and dtype, then cast to uint8: for a float32 raster, the
    float32 steps of ``clip(rint(image * 255.0), 0, 255)``, with no other
    full-frame float temporary.  That array is a new one, or with
    ``consume`` the raster itself, which the frame then drops.
    """
    if frame.image is None:
        raise ManifestError(f"frame {index} of {sequence_id} has no raster to write")
    seq_dir = Path(dataset_dir) / sequence_id
    seq_dir.mkdir(parents=True, exist_ok=True)
    name = f"frame_{index}.png"
    scratch = frame.image if consume else np.empty_like(frame.image)
    np.multiply(frame.image, 255.0, out=scratch)
    np.rint(scratch, out=scratch)
    np.clip(scratch, 0, 255, out=scratch)
    write_png(seq_dir / name, scratch.astype(np.uint8))
    frame.image_path = f"{sequence_id}/{name}"
    if consume:
        frame.image = None


def write_manifest(seq: Sequence, dataset_dir: Path) -> None:
    """Write ``dataset_dir/<sequence_id>/manifest.json``, after the frames,
    whose image paths it records."""
    (Path(dataset_dir) / seq.sequence_id / "manifest.json").write_bytes(
        canonical_json_bytes(sequence_to_manifest(seq))
    )


def write_sequence_dir(seq: Sequence, dataset_dir: Path) -> Path:
    """Write frames and manifest under ``dataset_dir/<sequence_id>/``; the
    frames keep their rasters."""
    seq_dir = Path(dataset_dir) / seq.sequence_id
    seq_dir.mkdir(parents=True, exist_ok=True)
    for i, frame in enumerate(seq.frames):
        write_frame(frame, dataset_dir, seq.sequence_id, i)
    write_manifest(seq, dataset_dir)
    return seq_dir


def read_sequence_dir(seq_dir: Path) -> Sequence:
    """Read a sequence manifest, whose ``sequence_id`` must be its
    directory's name; frame rasters load lazily."""
    path = Path(seq_dir) / "manifest.json"
    if not path.is_file():
        raise ManifestError(f"no manifest.json under {seq_dir}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest is not valid JSON: {path}") from exc
    seq = sequence_from_manifest(data)
    if seq.sequence_id != path.parent.name:
        raise ManifestError(f"{path}: sequence_id {seq.sequence_id!r} is not its "
                            f"directory's name {path.parent.name!r}")
    return seq


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

    ``sequences`` must list distinct directory names directly under the
    dataset (no separator, no ``..``, not absolute), ``count`` be their
    number and ``config_hash`` a string.
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
    sequences = index["sequences"]
    if len(set(sequences)) != len(sequences):
        repeated = next(name for name in sequences if sequences.count(name) > 1)
        raise ManifestError(f"{path}: index field sequences lists {repeated!r} more than once")
    if index["count"] != len(sequences):
        raise ManifestError(f"{path}: index field count {index['count']!r} is not the "
                            f"length of index field sequences ({len(sequences)})")
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
