"""Soft labels, BCE, SGD, gradient checks, and the training loop."""

import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from feature_reference import augmented_scores_out_of_place, finite_diff_gradcheck, ingredients
from hypothesis import given, settings
from hypothesis import strategies as st

from ttckit import estimate
from ttckit.boxes import BoundingBox, expand_box
from ttckit.errors import (
    DomainError,
    FitFailedError,
    TrainingDivergedError,
)
from ttckit.estimate import (
    _DRAW_BATCH,
    IDENTITY_DRAW,
    FeatureSearchConfig,
    identity_head,
    pair_features,
    pooled_cosine_scores,
)
from ttckit.features import hand_crafted_features, intensity_mask
from ttckit.learn import (
    TrainConfig,
    TrainResult,
    _alpha_gt,
    _pair_scores,
    _val_mid,
    bce_loss,
    cosine_lr,
    head_loss_and_grads,
    load_head,
    save_weights,
    sgd_step,
    sidecar_path,
    soft_label,
    train_loop,
    training_head_init,
)
from ttckit.suites import mixed_interval_suite
from ttckit.synth import NoiseModel


def _cfg(n_bins=20, shift_c=0, target=12):
    return FeatureSearchConfig(
        n_bins=n_bins, top_k=min(4, n_bins), shift_c=shift_c,
        target_w=target, target_h=target,
    )


def test_soft_label_peak_and_symmetry():
    cfg = _cfg()
    bins = cfg.bins()
    label = soft_label(float(bins[7]), cfg)
    assert label[7] == pytest.approx(1.0)
    assert label[6] == pytest.approx(label[8], rel=1e-12)
    assert label[5] == pytest.approx(np.exp(-4.0 / 2.0), rel=1e-9)
    assert np.all(np.diff(label[7:]) < 0) and np.all(np.diff(label[:8]) > 0)


def test_soft_label_midway_between_bins():
    cfg = _cfg()
    bins = cfg.bins()
    mid = float((bins[7] + bins[8]) / 2.0)
    label = soft_label(mid, cfg)
    assert label[7] == pytest.approx(np.exp(-1.0 / 8.0), rel=1e-9)
    assert label[8] == pytest.approx(label[7], rel=1e-9)


def test_soft_label_sigma_zero_one_hot():
    cfg = _cfg()
    bins = cfg.bins()
    label = soft_label(float(bins[4]) + 0.3 * cfg.bin_width, cfg, sigma_bins=0.0)
    assert label[4] == 1.0
    assert label.sum() == 1.0


def test_soft_label_clamps_out_of_range():
    cfg = _cfg()
    label = soft_label(0.1, cfg)  # below alpha_min
    assert label[0] == pytest.approx(1.0)


def test_bce_symmetric_point_and_stationarity():
    z = np.zeros(8)
    y = np.full(8, 0.5)
    loss, grad = bce_loss(z, y)
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)
    rng = np.random.default_rng(0)
    z = rng.normal(size=8)
    y = 1.0 / (1.0 + np.exp(-z))
    _, grad = bce_loss(z, y)
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    z = rng.normal(scale=2.0, size=10)
    y = rng.uniform(0, 1, size=10)
    _, grad = bce_loss(z, y)
    eps = 1e-6
    for i in range(10):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        fd = (bce_loss(zp, y)[0] - bce_loss(zm, y)[0]) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_bce_numerically_stable_at_extremes():
    loss, grad = bce_loss(np.array([500.0, -500.0]), np.array([1.0, 0.0]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_bce_nonnegative_zero_iff_match():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(size=6)
        y = rng.uniform(0, 1, size=6)
        loss, _ = bce_loss(z, y)
        assert loss >= 0.0
    # for fixed soft targets the loss over z is minimized where sigmoid(z) = y
    z = np.array([2.0, -1.0])
    y = 1.0 / (1.0 + np.exp(-z))
    base = bce_loss(z, y)[0]
    for delta in (0.3, -0.3):
        assert bce_loss(z + delta, y)[0] > base


def test_sgd_step_hand_values():
    p = {"w": np.array([2.0])}
    m = {}
    sgd_step(p, {"w": np.array([0.1])}, m, lr=0.5, momentum=0.9, weight_decay=5e-4)
    # m = 0.1 + 5e-4*2 = 0.101; p = 2 - 0.5*0.101
    assert p["w"][0] == pytest.approx(2.0 - 0.5 * 0.101, rel=1e-12)
    sgd_step(p, {"w": np.array([0.0])}, m, lr=0.5, momentum=0.9, weight_decay=0.0)
    # momentum keeps moving the weight: m' = 0.9 * 0.101
    assert p["w"][0] == pytest.approx(2.0 - 0.5 * 0.101 - 0.5 * 0.9 * 0.101, rel=1e-12)


def test_sgd_fixed_point_and_nan_guard():
    p = {"w": np.array([1.5])}
    sgd_step(p, {"w": np.array([0.0])}, {}, lr=0.1, momentum=0.9, weight_decay=0.0)
    assert p["w"][0] == 1.5
    with pytest.raises(DomainError):
        sgd_step(p, {"w": np.array([np.nan])}, {}, lr=0.1)


def test_cosine_schedule_endpoints():
    assert cosine_lr(0.4, 0.0) == pytest.approx(0.4)
    assert cosine_lr(0.4, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(0.4, 0.5) == pytest.approx(0.2)


def test_weights_round_trip(tmp_path):
    params = {
        "fc.weight": np.arange(9, dtype=np.float64).reshape(3, 3) / 7.0,
        "fc.bias": np.array([0.5, -0.25, 0.125]),
    }
    path = tmp_path / "weights.bin"
    save_weights(path, params, extra={"dataset_config_hash": "ff00"})
    back_w, back_b = load_head(path, FeatureSearchConfig(n_bins=3, top_k=2), "ff00")
    assert np.allclose(back_w, params["fc.weight"], atol=1e-7)
    assert np.allclose(back_b, params["fc.bias"], atol=1e-7)
    assert (tmp_path / "weights.bin.json").is_file()


_REMOVED = object()
_SIDECAR_SEARCH = FeatureSearchConfig(n_bins=3, top_k=2, target_w=10, target_h=10)
# (key, ...) paths into a trained sidecar, and values a change may set there
_SIDECAR_PATHS = [("order",), ("shapes",), ("shapes", "fc.bias"), ("shapes", "fc.weight"),
                  ("dtype",), ("search_feature",), ("dataset_config_hash",)] + [
    ("search_feature", f.name) for f in dataclasses.fields(FeatureSearchConfig)]
_SIDECAR_VALUES = st.one_of(
    st.sampled_from([_REMOVED, None, "a", [], [3], {}, {"a": 1}, float("nan"), float("inf"),
                     -float("inf"), 0, 0.0, -1, -2.5, 0.5, 3.0, 20.5, True, False]),
    st.integers(-5, 25),
    st.floats(-5.0, 25.0).filter(lambda x: not x.is_integer()),
)


@pytest.fixture(scope="module")
def trained_weights(tmp_path_factory):
    """A head saved as ``cmd_train`` saves one: weights path, sidecar, head."""
    rng = np.random.default_rng(3)
    fc_w = rng.normal(size=(3, 3)).astype(np.float32).astype(np.float64)
    fc_b = rng.normal(size=3).astype(np.float32).astype(np.float64)
    path = tmp_path_factory.mktemp("sidecar") / "weights.bin"
    save_weights(path, {"fc.weight": fc_w, "fc.bias": fc_b},
                 extra={"dataset_config_hash": "ff00",
                        "search_feature": dataclasses.asdict(_SIDECAR_SEARCH)})
    return path, json.loads(sidecar_path(path).read_text()), (fc_w, fc_b)


@settings(max_examples=300, deadline=None)
@given(where=st.sampled_from(_SIDECAR_PATHS), value=_SIDECAR_VALUES)
def test_load_head_reads_a_changed_sidecar_field_as_saved_or_refuses_it_by_name(
        trained_weights, where, value):
    # one field of a trained sidecar set to a wrong type, NaN, +-inf, 0, a
    # negative, a non-integer float or a bool, or removed: load_head returns
    # the saved head, or raises DomainError naming the field, nothing else
    path, meta, (fc_w, fc_b) = trained_weights
    meta = json.loads(json.dumps(meta))
    *parents, key = where
    holder = meta
    for name in parents:
        holder = holder[name]
    if value is _REMOVED:
        del holder[key]
    else:
        holder[key] = value
    sidecar_path(path).write_text(json.dumps(meta))
    try:
        got_w, got_b = load_head(path, _SIDECAR_SEARCH, "ff00")
    except DomainError as exc:
        assert all(name in str(exc) for name in where), str(exc)
    else:
        assert np.array_equal(got_w, fc_w) and np.array_equal(got_b, fc_b)


def _gradcheck_sample(seed=0, size=32):
    """A random frame pair, its reference center, expanded target box and
    ground-truth ratio."""
    rng = np.random.default_rng(seed)
    img0 = rng.uniform(0.1, 0.9, size=(size, size, 3))
    img1 = rng.uniform(0.1, 0.9, size=(size, size, 3))
    return SimpleNamespace(
        image0=img0,
        image1=img1,
        center0=(size / 2.0 + rng.uniform(-2, 2), size / 2.0 + rng.uniform(-2, 2)),
        box1=BoundingBox(size / 2.0, size / 2.0, size * 0.45, size * 0.4),
        alpha_gt=float(rng.uniform(0.7, 1.3)),
    )


def _identity_scores(fmap0, fmap1, center, box, cfg):
    """A pair's (n_bins, n_off) scores at the identity draw, as eval takes them."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pooled_cosine_scores(fmap0, fmap1, center, box, cfg, [IDENTITY_DRAW], pool)[0]


def _sample_scores(sample, cfg):
    """A pair's (n_bins, n_off) pooled cosine scores on hand-crafted features."""
    fmap0 = hand_crafted_features(sample.image0).astype(np.float64)
    fmap1 = hand_crafted_features(sample.image1).astype(np.float64)
    return _identity_scores(fmap0, fmap1, sample.center0, sample.box1, cfg)


def test_gradcheck_fc_path():
    cfg = _cfg(n_bins=6, shift_c=0, target=8)
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        sample = _gradcheck_sample(seed)
        err = finite_diff_gradcheck(
            _sample_scores(sample, cfg),
            np.eye(6) + rng.normal(0, 0.1, size=(6, 6)),
            rng.normal(0, 0.1, size=6),
            soft_label(sample.alpha_gt, cfg),
            epsilon=1e-3,
        )
        assert err <= 1e-4


def test_gradcheck_fc_path_with_shift_max():
    # max-over-shifts is piecewise linear; away from ties the check still holds
    cfg = _cfg(n_bins=5, shift_c=1, target=6)
    sample = _gradcheck_sample(7)
    err = finite_diff_gradcheck(
        _sample_scores(sample, cfg), *identity_head(5), soft_label(sample.alpha_gt, cfg),
        epsilon=1e-4,
    )
    assert err <= 1e-3


def test_gradcheck_zero_input_finite():
    cfg = _cfg(n_bins=5, shift_c=0, target=6)
    sample = _gradcheck_sample(3, size=16)
    sample.image0 = np.zeros_like(sample.image0)
    sample.image1 = np.zeros_like(sample.image1)
    scores = _sample_scores(sample, cfg)
    label = soft_label(sample.alpha_gt, cfg)
    loss, grads = head_loss_and_grads(scores, *identity_head(5), label)
    assert np.isfinite(loss)
    for g in grads.values():
        assert np.all(np.isfinite(g))
    assert np.isfinite(finite_diff_gradcheck(scores, *identity_head(5), label))


def test_feature_augmentation_matches_pixel_augmentation():
    # features(g*I + b) == g*features(I) + b*intensity_mask
    rng = np.random.default_rng(4)
    img = rng.uniform(0.2, 0.7, size=(24, 24, 3))
    g, b = 1.12, -0.03
    direct = hand_crafted_features(img * g + b).astype(np.float64)
    mask = intensity_mask()
    affine = hand_crafted_features(img).astype(np.float64) * g + b * mask
    assert np.allclose(direct, affine, atol=1e-6)


def _scored(seq, draws, cfg, sigma=1.0):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return _pair_scores(seq, draws, cfg, sigma, pool)


def _draw_scores_on(f0, f1, center, box, cfg, draws):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pooled_cosine_scores(f0, f1, center, box, cfg, draws, pool)


def test_cached_ingredient_scores_match_direct_path():
    # the trainer's inner-product expansion must reproduce the scores of
    # explicitly augmented images fed through the estimator path
    cfg = _cfg(n_bins=10, shift_c=1, target=12)
    seq = mixed_interval_suite(1, seed=77)[0]
    draws = (1.07, -0.02, 0.95, 0.03)
    got, plain = _scored(seq, [draws, IDENTITY_DRAW], cfg)[1]

    ref, tgt = seq.frames[-1 - cfg.frame_gap], seq.frames[-1]
    image0, image1 = ref.load_image(), tgt.load_image()
    center = (ref.box.cx, ref.box.cy)
    box = expand_box(tgt.box, cfg.expand_cap, image1.shape[1::-1])
    fmap0 = hand_crafted_features(image0 * draws[0] + draws[1]).astype(np.float64)
    fmap1 = hand_crafted_features(image1 * draws[2] + draws[3]).astype(np.float64)
    want = _identity_scores(fmap0, fmap1, center, box, cfg)
    assert np.allclose(got, want, atol=2e-5)
    # identity draws reproduce the plain estimator scores
    fmap0p = hand_crafted_features(image0).astype(np.float64)
    fmap1p = hand_crafted_features(image1).astype(np.float64)
    want_plain = _identity_scores(fmap0p, fmap1p, center, box, cfg)
    assert np.allclose(plain, want_plain, atol=2e-5)


def _roi_pair(seq, cfg):
    """A pair's region-of-interest feature maps, the reference center and
    target box in their frame, and the ground-truth ratio, as the trainer
    takes them."""
    f0, f1, center, box = pair_features(seq, cfg)
    return f0.astype(np.float64), f1.astype(np.float64), center, box, _alpha_gt(seq, cfg.frame_gap)


def _flat_pair(level=0.4):
    # a flat reference map, every position's features level * mask, which
    # a bias of -gain * level cancels to patches of rounding residue
    rng = np.random.default_rng(9)
    f0 = np.ascontiguousarray(np.broadcast_to(level * intensity_mask(), (40, 48, 12)))
    f1 = rng.normal(size=(40, 48, 12))
    return f0, f1, (24.3, 19.6), BoundingBox(23.8, 20.4, 14.2, 12.7)


def _random_pair(seed=12):
    rng = np.random.default_rng(seed)
    f0, f1 = rng.normal(size=(2, 44, 52, 12)).astype(np.float32)
    return f0, f1, (26.4, 21.7), BoundingBox(25.2, 22.9, 15.6, 13.1)


_PREP_CFG = _cfg(n_bins=10, shift_c=1, target=12)


@pytest.fixture(scope="module")
def pairs():
    """The real and the flat pair, each with its whole-stack ingredients."""
    f0, f1, center, box, _ = _roi_pair(mixed_interval_suite(1, seed=77)[0], _PREP_CFG)
    return [(pair, ingredients(*pair, _PREP_CFG))
            for pair in ((f0, f1, center, box), _flat_pair())]


_gains = st.floats(0.5, 1.5)
_biases = st.floats(-0.2, 0.2)


@settings(max_examples=60, deadline=None)
@given(draws=st.lists(st.tuples(_gains, _biases, _gains, _biases),
                      min_size=1, max_size=2 * _DRAW_BATCH + 1))
def test_augmented_scores_equal_the_out_of_place_expression(pairs, draws):
    for pair, prep in pairs:
        got = _draw_scores_on(*pair, _PREP_CFG, draws)
        assert got.shape == (len(draws), 10, 9)
        for scores, d in zip(got, draws):
            assert np.array_equal(scores, augmented_scores_out_of_place(prep, d))


def test_augmented_scores_identity_and_cancelled_flat_draws(pairs):
    identity = IDENTITY_DRAW
    for pair, prep in pairs:
        got = _draw_scores_on(*pair, _PREP_CFG, [identity])[0]
        assert np.array_equal(got, augmented_scores_out_of_place(prep, identity))
    # a bias cancelling the flat patches leaves norms of rounding residue,
    # which the clamps keep finite: exactly 0 at gains 1.1 and 0.8, below 0
    # at 0.93 and above 0 at 1.13
    flat, prep = pairs[1]
    cancel = [(g0, -g0 * 0.4, 0.9, 0.05) for g0 in (1.1, 0.8, 0.93, 1.13)] + [identity]
    got = _draw_scores_on(*flat, _PREP_CFG, cancel)
    for scores, d in zip(got, cancel):
        assert np.array_equal(scores, augmented_scores_out_of_place(prep, d))
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize("n_bins", [2, 3, 20, 21])
@pytest.mark.parametrize("shift_c", [0, 1, 2])
def test_draw_scores_equal_the_reference_at_every_batch_edge(n_bins, shift_c):
    # both halves of the bins, and draw counts that fill no batch, one
    # batch short, exactly one, one over, and many with a short last one
    cfg = _cfg(n_bins=n_bins, shift_c=shift_c, target=9)
    rng = np.random.default_rng(n_bins * 3 + shift_c)
    draws = [tuple(rng.uniform((0.9, -0.05, 0.9, -0.05), (1.1, 0.05, 1.1, 0.05)))
             for _ in range(37)]
    for pair in (_random_pair(), _flat_pair()):
        prep = ingredients(*pair, cfg)
        want = [augmented_scores_out_of_place(prep, d) for d in draws]
        for count in sorted({1, max(1, _DRAW_BATCH - 1), _DRAW_BATCH, _DRAW_BATCH + 1, 37}):
            got = _draw_scores_on(*pair, cfg, draws[:count])
            assert got.shape == (count, n_bins, (2 * shift_c + 1) ** 2)
            for j in range(count):
                assert np.array_equal(got[j], want[j]), (count, j)


def test_pair_scores_come_from_the_estimator_patches():
    # a pair's scores, sampled one scale bin at a time on two threads, are
    # those of the estimator's whole-stack patch sampling on the
    # region-of-interest feature maps, bit for bit, at shift radii 0, 1 and 2
    seq = mixed_interval_suite(1, seed=77)[0]
    draws = [(1.0, 0.0, 1.0, 0.0), (1.07, -0.02, 0.95, 0.03), (0.93, 0.04, 1.02, -0.01),
             (1.01, 0.01, 0.91, 0.02)]
    for cfg in (_PREP_CFG, _cfg(n_bins=5, shift_c=0, target=9), _cfg(n_bins=4, shift_c=2, target=7)):
        label, got = _scored(seq, draws, cfg)
        f0, f1, center, box, alpha_gt = _roi_pair(seq, cfg)
        assert np.array_equal(label, soft_label(alpha_gt, cfg, 1.0))
        prep = ingredients(f0, f1, center, box, cfg)
        for scores, d in zip(got, draws):
            assert np.array_equal(scores, augmented_scores_out_of_place(prep, d)), cfg.shift_c


def _train_suite(n, seed, noise_seed=0):
    noise = NoiseModel(
        box_center_jitter_px=1,
        box_scale_jitter=0.02,
        gain_range=(0.92, 1.08),
        bias_range=(-0.03, 0.03),
        seed=noise_seed,
    )
    return mixed_interval_suite(n, seed=seed, noise=noise)


def test_train_loop_smoke_and_determinism():
    cfg = _cfg(n_bins=20, shift_c=1, target=16)
    train_seqs = _train_suite(24, seed=50)
    val_seqs = _train_suite(8, seed=51, noise_seed=1)
    tcfg = TrainConfig(epochs=4, batch_size=8, seed=3)
    res_a = train_loop(train_seqs, val_seqs, cfg, tcfg)
    res_b = train_loop(train_seqs, val_seqs, cfg, tcfg)
    assert [h[1] for h in res_a.history] == [h[1] for h in res_b.history]
    assert np.array_equal(res_a.params["fc.weight"], res_b.params["fc.weight"])
    assert len(res_a.history) == 4
    # training loss moves (the head departs from identity)
    assert not np.allclose(res_a.params["fc.weight"], np.eye(20))


def test_train_loop_zero_lr_keeps_weights():
    cfg = _cfg(n_bins=10, shift_c=0, target=10)
    seqs = _train_suite(8, seed=60)
    tcfg = TrainConfig(epochs=2, batch_size=4, base_lr=0.0, weight_decay=0.0, seed=0)
    res = train_loop(seqs, [], cfg, tcfg)
    w0, b0 = training_head_init(10)
    assert np.array_equal(res.params["fc.weight"], w0)
    assert np.array_equal(res.params["fc.bias"], b0)


def test_train_loop_emits_checkpoints(tmp_path):
    cfg = _cfg(n_bins=8, shift_c=0, target=10)
    seqs = _train_suite(6, seed=70)
    tcfg = TrainConfig(epochs=2, batch_size=4, seed=0)
    train_loop(seqs, [], cfg, tcfg, out_dir=tmp_path)
    assert (tmp_path / "weights_epoch000.bin").is_file()
    assert (tmp_path / "weights_epoch001.bin.json").is_file()
    fc_w, fc_b = load_head(tmp_path / "weights_epoch001.bin", cfg)
    assert fc_w.shape == (8, 8) and fc_b.shape == (8,)


def _serial_train_loop(train_seqs, val_seqs, cfg, train_cfg, out_dir=None):
    """The training loop as it ran before its schedule was drawn up front:
    every pair's whole-stack inner products are held for all epochs and
    scored at each draw, in draw order, out of place, on one thread.
    Kept as the reference the scheduled loop must equal bit for bit."""
    if not train_seqs:
        raise FitFailedError("no training sequences")

    def prepare(seq):
        f0, f1, center, box, alpha_gt = _roi_pair(seq, cfg)
        return soft_label(alpha_gt, cfg, train_cfg.sigma_bins), ingredients(f0, f1, center, box, cfg)

    prepared = [prepare(s) for s in train_seqs]

    identity_draws = (1.0, 0.0, 1.0, 0.0)
    val_scores, val_alpha10, val_eff = [], [], []
    for seq in val_seqs:
        _, prep = prepare(seq)
        val_scores.append(augmented_scores_out_of_place(prep, identity_draws))
        val_alpha10.append(seq.label.alpha_10hz)
        val_eff.append(seq.fps / cfg.frame_gap)

    fc_w, fc_b = training_head_init(cfg.n_bins)
    params = {"fc.weight": fc_w, "fc.bias": fc_b}
    momenta = {}
    rng = np.random.Generator(np.random.PCG64(train_cfg.seed))
    n = len(prepared)

    id_w, id_b = identity_head(cfg.n_bins)
    val_mid_untrained = _val_mid(id_w, id_b, cfg, val_scores, val_alpha10, val_eff) if val_seqs else None
    history = []
    last_good = {k: v.copy() for k, v in params.items()}

    for epoch in range(train_cfg.epochs):
        lr = cosine_lr(train_cfg.lr, epoch / train_cfg.epochs)
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, train_cfg.batch_size):
            batch = np.sort(perm[start : start + train_cfg.batch_size])
            grad_w = np.zeros_like(fc_w)
            grad_b = np.zeros_like(fc_b)
            batch_loss = 0.0
            for idx in batch:
                label, prep = prepared[idx]
                draws = (
                    rng.uniform(*train_cfg.gain_range),
                    rng.uniform(*train_cfg.bias_range),
                    rng.uniform(*train_cfg.gain_range),
                    rng.uniform(*train_cfg.bias_range),
                )
                loss, grads = head_loss_and_grads(
                    augmented_scores_out_of_place(prep, draws), fc_w, fc_b, label
                )
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


@pytest.mark.parametrize("n_train, n_val, batch_size, epochs, seed", [
    (7, 2, 3, 3, 0),    # batches of 3, 3 and 1
    (5, 0, 8, 2, 11),   # one batch larger than the set, no validation
    (6, 3, 6, 1, 5),    # one batch of exactly the set
    (4, 1, 3, 2, 2024),
])
def test_train_loop_equals_the_serial_reference(tmp_path, pool, n_train, n_val, batch_size,
                                                 epochs, seed):
    cfg = _cfg(n_bins=8, shift_c=1, target=10)
    train_seqs = _train_suite(n_train, seed=80 + seed)
    val_seqs = _train_suite(n_val, seed=90 + seed, noise_seed=1) if n_val else []
    tcfg = TrainConfig(epochs=epochs, batch_size=batch_size, seed=seed)
    got = train_loop(train_seqs, val_seqs, cfg, tcfg, tmp_path / "got", pool)
    want = _serial_train_loop(train_seqs, val_seqs, cfg, tcfg, out_dir=tmp_path / "want")
    for name in ("fc.weight", "fc.bias"):
        assert np.array_equal(got.params[name], want.params[name]), name
    assert got.history == want.history
    assert got.val_mid_untrained == want.val_mid_untrained
    written = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert len(written) == 2 * epochs
    assert sorted(p.name for p in (tmp_path / "got").iterdir()) == written
    for name in written:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


@pytest.mark.parametrize("split, position", [("train", 2), ("train", 4), ("val", 1)])
def test_train_loop_refuses_an_unlabeled_pair_and_stops_its_workers(pool, split, position):
    # the same error as the serial loop, raised after other pairs were
    # scored; the worker's half has finished on return and on the error
    cfg = _cfg(n_bins=6, shift_c=0, target=8)
    seqs = {"train": _train_suite(5, seed=33), "val": _train_suite(2, seed=34)}
    tcfg = TrainConfig(epochs=1, batch_size=2, seed=1)
    threads = threading.active_count()
    train_loop(seqs["train"], seqs["val"], cfg, tcfg, pool=pool)
    assert threading.active_count() == threads
    seqs[split][position] = dataclasses.replace(seqs[split][position], label=None)
    with pytest.raises(DomainError) as got:
        train_loop(seqs["train"], seqs["val"], cfg, tcfg, pool=pool)
    assert threading.active_count() == threads
    with pytest.raises(DomainError) as want:
        _serial_train_loop(seqs["train"], seqs["val"], cfg, tcfg)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value) == f"sequence {seqs[split][position].sequence_id} is unlabeled"


def test_train_loop_samples_every_pair_on_both_threads(monkeypatch, pool):
    # the pool's one worker serves the whole loop, train and val pairs
    # alike: every pair's second half of the bins is sampled on it
    real_patches = estimate.candidate_patches_by_bin
    sampling = set()

    def recording_patches(*args):
        sampling.add(threading.current_thread())
        yield from real_patches(*args)

    monkeypatch.setattr(estimate, "candidate_patches_by_bin", recording_patches)
    cfg = _cfg(n_bins=6, shift_c=0, target=8)
    train_loop(_train_suite(4, seed=33), _train_suite(2, seed=34), cfg,
               TrainConfig(epochs=2, batch_size=2, seed=1), pool=pool)
    assert sampling == {threading.main_thread(), pool.submit(threading.current_thread).result()}


@pytest.mark.parametrize("bad_bins", [(1,), (4,), (1, 4)])
def test_pair_scorer_error_in_either_half_reaches_the_caller(monkeypatch, pool, bad_bins):
    # six bins split into [0, 3) on the calling thread and [3, 6) on the
    # worker; the bad bins fail when sampled, and the error is the one
    # sampling the bins in order gives: with both halves failing, the
    # calling half's
    real = estimate.candidate_patches_by_bin

    def failing_patches(fmap0, center, b1, cfg, bins):
        for i, patches in enumerate(real(fmap0, center, b1, cfg, bins), bins.start or 0):
            if i in bad_bins:
                raise DomainError(f"bin {i} cannot be sampled")
            yield patches

    cfg = _cfg(n_bins=6, shift_c=1, target=8)
    f0, f1, center, box = _random_pair()
    with pytest.raises(DomainError) as serial:
        for _ in failing_patches(f0, center, box, cfg, slice(None)):
            pass
    monkeypatch.setattr(estimate, "candidate_patches_by_bin", failing_patches)
    threads = threading.active_count()
    with pytest.raises(DomainError) as got:
        train_loop(_train_suite(3, seed=35), [], cfg, TrainConfig(epochs=1, batch_size=2),
                   pool=pool)
    assert type(got.value) is type(serial.value)
    assert str(got.value) == str(serial.value)
    assert threading.active_count() == threads


def test_scoring_one_pair_allocates_less_than_one_product_map():
    # a pair's bins are reduced to inner products and scored one at a
    # time, so scoring it holds less than one (n_bins, n_off, P) float64
    # map: each thread holds one dy row group of patches, one bin's
    # products and its draw buffers, besides the region's features and
    # the sampler's per-bin positions.  With many bins this peaks at
    # about 6.0 MB against a 9.2 MB map; caching the pair's three maps,
    # as the trainer did, peaked at about 32 MB
    import tracemalloc

    cfg = _cfg(n_bins=500, shift_c=1, target=16)
    seq = mixed_interval_suite(1, seed=77)[0]
    draws = [(1.07, -0.02, 0.95, 0.03)] * 8
    one_map = cfg.n_bins * 9 * 16 * 16 * 8
    with ThreadPoolExecutor(max_workers=1) as pool:
        _pair_scores(seq, draws, cfg, 1.0, pool)
        tracemalloc.start()
        try:
            _pair_scores(seq, draws, cfg, 1.0, pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < one_map, (peak, one_map)
