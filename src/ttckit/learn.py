"""Desk-scale training of the feature-space scale classifier.

The trainable surface is the per-bin linear head over fixed hand-crafted
features; the loss is per-bin binary cross-entropy against a Gaussian
soft label centered on the ground-truth scale bin.  ``train_loop`` takes
its head step from :func:`head_loss_and_grads`, whose gradient the tests
check against central differences.

A pair is scored on the estimator's own path: ``estimate.pair_features``
gives the features of the pair's region of interest, and
``estimate.pooled_cosine_scores`` scores them at every (gain, bias) draw.
That routine exploits the hand-crafted extractor's affine response to
illumination, features(g*I + b) = g*features(I) + b*mask, so
photometric augmentation happens in feature space without touching
pixels; a val pair, like an estimate, is its identity draw.

Neither the shuffle nor the draws nor a pair's augmented scores depend on
the head, so ``train_loop`` draws the whole schedule up front, from the
same generator in the same order as its epochs consume it.  The pairs
are then scored one after another, each once for every draw the schedule
gives it, its bins in two halves at once: the calling thread takes the
first half and the one worker of the pool a caller passes (``cli.main``
opens it) the rest, or, with no pool, the calling thread all of it.  The
epochs run on the kept (n_draws, n_bins, n_off) scores alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import check_int, check_range, convert_scale_ratio_fps, is_finite_real
from .errors import DomainError, FitFailedError, TrainingDivergedError
from .estimate import (
    IDENTITY_DRAW,
    FeatureSearchConfig,
    ScaleSearchConfig,
    alpha_to_10hz,
    fuse_logits,
    head_logits,
    identity_head,
    pair_features,
    pooled_cosine_scores,
)
from .evaluation import mid_metric
from .manifest import Sequence

# the scale of training_head_init's common-mode removal
_HEAD_INIT_SHARPNESS = 45.0


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 36
    batch_size: int = 16
    base_lr: float | None = None  # default: 1e-4 * batch_size
    momentum: float = 0.9
    weight_decay: float = 5e-4
    seed: int = 0
    sigma_bins: float = 1.0
    gain_range: tuple[float, float] = (0.9, 1.1)
    bias_range: tuple[float, float] = (-0.05, 0.05)

    def __post_init__(self) -> None:
        check_int("train epochs", self.epochs, 1)
        check_int("train batch_size", self.batch_size, 1)
        check_int("train seed", self.seed)
        rates = {"momentum": self.momentum, "weight_decay": self.weight_decay,
                 "sigma_bins": self.sigma_bins}
        if self.base_lr is not None:
            rates["base_lr"] = self.base_lr
        for name, value in rates.items():
            if not (is_finite_real(value) and value >= 0):
                raise DomainError(f"train {name} must be finite and >= 0, got {value!r}")
        check_range("train gain_range", self.gain_range)
        check_range("train bias_range", self.bias_range)
        if self.gain_range[0] <= 0:
            raise DomainError(f"train gain_range must be positive, got {self.gain_range!r}")

    @property
    def lr(self) -> float:
        return 1e-4 * self.batch_size if self.base_lr is None else self.base_lr


def soft_label(alpha_gt: float, cfg: ScaleSearchConfig, sigma_bins: float = 1.0) -> np.ndarray:
    """Peak-normalized Gaussian bump over scale bins.

    The peak (value 1) sits at the continuous bin index of the clamped
    ground-truth ratio; sigma -> 0 degenerates to a one-hot at the
    nearest bin.
    """
    alpha = min(max(alpha_gt, cfg.alpha_min), cfg.alpha_max)
    i_star = (alpha - cfg.alpha_min) / cfg.bin_width
    idx = np.arange(cfg.n_bins, dtype=np.float64)
    if sigma_bins <= 1e-9:
        out = np.zeros(cfg.n_bins)
        out[int(round(i_star))] = 1.0
        return out
    return np.exp(-((idx - i_star) ** 2) / (2.0 * sigma_bins**2))


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-bin binary cross-entropy; returns (loss, dloss/dlogits).

    Uses the log-sum-exp-stable form, so large-magnitude logits cannot
    overflow the log.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape:
        raise DomainError(f"shape mismatch {z.shape} vs {y.shape}")
    per_bin = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    sigma = 1.0 / (1.0 + np.exp(-z))
    n = z.size
    return float(per_bin.mean()), (sigma - y) / n


def head_loss_and_grads(
    scores: np.ndarray, fc_weight: np.ndarray, fc_bias: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """BCE loss of ``estimate.head_logits`` on (n_bins, n_off) scores, and
    its ``fc.weight`` and ``fc.bias`` gradients."""
    logits, best_idx = head_logits(scores, fc_weight, fc_bias)
    loss, dlogits = bce_loss(logits, labels)
    best = scores[np.arange(len(best_idx)), best_idx]
    return loss, {"fc.weight": np.outer(dlogits, best), "fc.bias": dlogits}


def training_head_init(n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Head initialization for training: amplified common-mode removal.

    Pooled cosine scores sit on a large shared baseline (~0.95) with the
    discriminative profile shape only ~1e-2 deep, so an identity-
    initialized head gives BCE a gradient dominated by the baseline and
    training collapses onto a bin prior.  Starting from
    sharpness * (I - 11^T/n) puts the profile shape, not the baseline,
    at sigmoid scale; the layer itself stays a plain linear head.
    ``_HEAD_INIT_SHARPNESS`` was chosen where held-out error decreases
    monotonically over a full training run instead of overshooting.
    """
    eye = np.eye(n_bins)
    return _HEAD_INIT_SHARPNESS * (eye - np.ones((n_bins, n_bins)) / n_bins), np.zeros(n_bins)


def cosine_lr(base_lr: float, epoch_progress: float) -> float:
    """Cosine decay: base at progress 0, zero at progress 1."""
    if not (0.0 <= epoch_progress <= 1.0):
        raise DomainError(f"epoch progress must lie in [0, 1], got {epoch_progress}")
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch_progress))


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    momenta: dict[str, np.ndarray],
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
) -> None:
    """In-place SGD with momentum and decoupled-from-nothing weight decay:
    m <- momentum*m + (g + wd*p); p <- p - lr*m."""
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise DomainError(f"non-finite gradient in {name}")
        m = momenta.setdefault(name, np.zeros_like(p))
        m *= momentum
        m += g + weight_decay * p
        p -= lr * m


# ---------------------------------------------------------------------------
# weight serialization: flat little-endian float32 + JSON shape sidecar


def sidecar_path(path: Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".json")


def save_weights(path: Path, params: dict[str, np.ndarray], extra: dict | None = None) -> None:
    path = Path(path)
    order = sorted(params)
    blobs = [np.ascontiguousarray(params[k], dtype="<f4").tobytes() for k in order]
    path.write_bytes(b"".join(blobs))
    meta = {
        "order": order,
        "shapes": {k: list(params[k].shape) for k in order},
        "dtype": "<f4",
    }
    if extra:
        meta.update(extra)
    sidecar_path(path).write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")


def load_head(path: Path, search: FeatureSearchConfig, dataset_hash: str | None = None,
              force: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The (fc_weight, fc_bias) that ``save_weights`` wrote for ``search``'s head.

    A recorded ``search_feature`` must equal ``search``, and a recorded
    ``dataset_config_hash`` ``dataset_hash``, if given (``eval``'s, whose
    messages then name ``--force``); ``force`` skips both.  Anything else
    raises ``DomainError`` naming the field.
    """
    path = Path(path)
    if not path.is_file():
        raise DomainError(f"weights file not found: {path}")
    sidecar = sidecar_path(path)
    try:
        meta = json.loads(sidecar.read_text())
    except (OSError, ValueError) as exc:
        raise DomainError(f"malformed weights sidecar {sidecar}: {exc}") from None
    keys = {"order", "shapes", "dtype", "search_feature", "dataset_config_hash"}
    if not isinstance(meta, dict) or not set(meta) <= keys:
        raise DomainError(f"malformed weights sidecar {sidecar}: must be an object with no "
                          f"keys but {sorted(keys)}, got {meta!r}")
    n = search.n_bins
    # compared as JSON text, so neither 20.0 nor true passes for the integer 20
    for name, want in (("order", ["fc.bias", "fc.weight"]), ("dtype", "<f4"),
                       ("shapes", {"fc.bias": [n], "fc.weight": [n, n]})):
        if json.dumps(meta.get(name), sort_keys=True) != json.dumps(want, sort_keys=True):
            raise DomainError(f"weights do not fit the {n}-bin feature_scale head: {name} "
                              f"is {meta.get(name)!r}, need {want!r} ({sidecar})")
    hint = "" if dataset_hash is None else "; pass --force to evaluate anyway"
    if not force and "search_feature" in meta:
        trained, names = meta["search_feature"], [f.name for f in fields(FeatureSearchConfig)]
        if not isinstance(trained, dict) or set(trained) != set(names):
            raise DomainError(f"malformed weights sidecar {sidecar}: search_feature must "
                              f"hold exactly {names}, got {trained!r}")
        try:
            trained = FeatureSearchConfig(**trained)
        except DomainError as exc:
            raise DomainError(f"weights sidecar {sidecar} search_feature: {exc}") from None
        for name in names:
            if getattr(trained, name) != getattr(search, name):
                raise DomainError(f"weights were trained for search_feature {name} "
                                  f"{getattr(trained, name)!r}, but this run searches with "
                                  f"{getattr(search, name)!r}{hint}")
    if not force and "dataset_config_hash" in meta:
        trained_on = meta["dataset_config_hash"]
        if not isinstance(trained_on, str):
            raise DomainError(f"malformed weights sidecar {sidecar}: dataset_config_hash "
                              f"must be a string, got {trained_on!r}")
        if dataset_hash not in (None, trained_on):
            raise DomainError(f"weights were trained on config {trained_on} (their "
                              f"dataset_config_hash) but dataset has {dataset_hash}{hint}")
    raw = path.read_bytes()
    if len(raw) != 4 * (n + n * n):
        raise DomainError(f"weight blob size mismatch: {len(raw)} vs {4 * (n + n * n)}")
    values = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    return values[n:].reshape(n, n), values[:n]


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    """Trained head, per-epoch (epoch, train_loss, val_mid), and the
    identity head's val MiD.  Every val MiD is ``None`` when there are no
    validation sequences: none was measured, and 0 would read as a perfect
    score."""

    params: dict[str, np.ndarray]
    history: list[tuple[int, float, float | None]]
    val_mid_untrained: float | None


def _alpha_gt(seq: Sequence, gap: int) -> float:
    """The labeled scale ratio at the search gap."""
    if seq.label is None:
        raise DomainError(f"sequence {seq.sequence_id} is unlabeled")
    if seq.label.alpha_by_gap and gap in seq.label.alpha_by_gap:
        return float(seq.label.alpha_by_gap[gap])
    return float(convert_scale_ratio_fps(seq.label.alpha_10hz, 10.0, seq.fps / gap))


def _pair_scores(seq: Sequence, draws, cfg: FeatureSearchConfig, sigma: float, pool):
    """One pair's soft label and (n_draws, n_bins, n_off) scores, one
    (n_bins, n_off) array per (gain, bias) draw, on the estimator's path
    (``pair_features``, ``pooled_cosine_scores``); exact only for
    ``hand_crafted_features``, affine in light."""
    f0, f1, center, box = pair_features(seq, cfg)
    label = soft_label(_alpha_gt(seq, cfg.frame_gap), cfg, sigma)
    return label, pooled_cosine_scores(f0, f1, center, box, cfg, draws, pool)


def _val_mid(fc_w, fc_b, cfg, val_scores, val_alpha10, val_eff_fps) -> float:
    mids = []
    for scores, alpha_gt_10, eff in zip(val_scores, val_alpha10, val_eff_fps):
        logits, _ = head_logits(scores, fc_w, fc_b)
        alpha = fuse_logits(logits, cfg)
        alpha = min(max(alpha, cfg.alpha_min), cfg.alpha_max)
        mids.append(mid_metric(alpha_to_10hz(alpha, eff), alpha_gt_10))
    return float(np.mean(mids))


def _draw_schedule(n: int, train_cfg: TrainConfig):
    """Every epoch's batches and each pair's (gain, bias) draws.

    Draws from a fresh ``PCG64(seed)`` in the order the epochs consume
    them: per epoch one permutation of the n pairs, then for each batch
    (the next ``batch_size`` of the permutation, sorted) four uniforms per
    pair in ascending order.  Returns (epochs, draws): ``epochs`` holds
    each epoch's list of sorted index arrays, and ``draws[j]`` pair j's
    draws in the order its batches come.
    """
    rng = np.random.Generator(np.random.PCG64(train_cfg.seed))
    epochs: list[list[np.ndarray]] = []
    draws: list[list[tuple[float, float, float, float]]] = [[] for _ in range(n)]
    for _ in range(train_cfg.epochs):
        perm = rng.permutation(n)
        batches = [np.sort(perm[start : start + train_cfg.batch_size])
                   for start in range(0, n, train_cfg.batch_size)]
        for batch in batches:
            for idx in batch:
                draws[idx].append((
                    rng.uniform(*train_cfg.gain_range),
                    rng.uniform(*train_cfg.bias_range),
                    rng.uniform(*train_cfg.gain_range),
                    rng.uniform(*train_cfg.bias_range),
                ))
        epochs.append(batches)
    return epochs, draws


def train_loop(
    train_seqs: list[Sequence],
    val_seqs: list[Sequence],
    cfg: FeatureSearchConfig,
    train_cfg: TrainConfig,
    out_dir: Path | None = None,
    pool=None,
) -> TrainResult:
    """Train the per-bin head on labeled sequences; hand-crafted features.

    Deterministic for a fixed seed: the shuffle and photometric
    augmentation streams are drawn from one generator in a fixed order,
    and gradient accumulation within a batch runs in ascending dataset
    order.  The schedule is drawn before any pair is scored, and each
    pair is scored once for all its draws (``_pair_scores``), train pairs
    then val pairs, half of each pair's bins on ``pool``'s one worker if
    given; the epochs then consume those scores in schedule order.  Emits
    a checkpoint per epoch when ``out_dir`` is given and aborts (keeping
    the last good checkpoint) if the loss goes non-finite.
    """
    if not train_seqs:
        raise FitFailedError("no training sequences")
    n = len(train_seqs)
    epochs, draws = _draw_schedule(n, train_cfg)
    sigma = train_cfg.sigma_bins
    scored = [_pair_scores(seq, d, cfg, sigma, pool) for seq, d in zip(train_seqs, draws)]
    val_scores = [_pair_scores(seq, [IDENTITY_DRAW], cfg, sigma, pool)[1][0]
                  for seq in val_seqs]
    labels = [label for label, _ in scored]
    streams = [iter(scores) for _, scores in scored]
    val_alpha10 = [seq.label.alpha_10hz for seq in val_seqs]
    val_eff = [seq.fps / cfg.frame_gap for seq in val_seqs]

    fc_w, fc_b = training_head_init(cfg.n_bins)
    params = {"fc.weight": fc_w, "fc.bias": fc_b}
    momenta: dict[str, np.ndarray] = {}

    # the untrained reference is the estimator's default identity head
    id_w, id_b = identity_head(cfg.n_bins)
    val_mid_untrained = _val_mid(id_w, id_b, cfg, val_scores, val_alpha10, val_eff) if val_seqs else None
    history: list[tuple[int, float, float | None]] = []
    last_good = {k: v.copy() for k, v in params.items()}

    for epoch, batches in enumerate(epochs):
        lr = cosine_lr(train_cfg.lr, epoch / train_cfg.epochs)
        epoch_loss = 0.0
        for batch in batches:
            grad_w = np.zeros_like(fc_w)
            grad_b = np.zeros_like(fc_b)
            batch_loss = 0.0
            for idx in batch:
                loss, grads = head_loss_and_grads(next(streams[idx]), fc_w, fc_b, labels[idx])
                batch_loss += loss
                grad_w += grads["fc.weight"]
                grad_b += grads["fc.bias"]
            k = len(batch)
            grad_w /= k
            grad_b /= k
            batch_loss /= k
            epoch_loss += batch_loss * k
            sgd_step(params, {"fc.weight": grad_w, "fc.bias": grad_b}, momenta,
                     lr, train_cfg.momentum, train_cfg.weight_decay)
        epoch_loss /= n
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}", epoch, last_good
            )
        last_good = {k: v.copy() for k, v in params.items()}
        val_mid = _val_mid(fc_w, fc_b, cfg, val_scores, val_alpha10, val_eff) if val_seqs else None
        history.append((epoch, float(epoch_loss), val_mid))
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            save_weights(out_dir / f"weights_epoch{epoch:03d}.bin", params)

    return TrainResult(params=params, history=history, val_mid_untrained=val_mid_untrained)


def write_loss_curve(path: Path, history: list[tuple[int, float, float | None]]) -> None:
    """One CSV row per epoch; the ``val_mid`` field is left empty where it
    is ``None`` (no validation sequences)."""
    lines = ["epoch,train_loss,val_mid"]
    for epoch, loss, val_mid in history:
        val_field = "" if val_mid is None else f"{val_mid:.6f}"
        lines.append(f"{epoch},{loss:.8f},{val_field}")
    Path(path).write_text("\n".join(lines) + "\n")
