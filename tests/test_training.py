import math
import re

import numpy as np
import pytest

from vidsum.data_io import VideoRecord, synth_dataset
from vidsum.model import ModelConfig, init_params
from vidsum.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    bce_loss,
    build_targets,
    consensus_scores,
    ground_truth_frames,
    make_splits,
    train,
)

from oracles import finite_diff_check


def toy_model_config(**kw):
    base = dict(n_layers=1, d=8, d_ff=8, h=2, window=5, input_dim=8,
                max_len=64, seed=0, dtype="float32")
    base.update(kw)
    return ModelConfig(**base)


def toy_dataset(n=3, seed=0, t=(24, 40)):
    videos, meta = synth_dataset(n, t, 8, (3, 5), seed=seed)
    return videos, meta


# ---------------------------------------------------------------------------
# targets


def test_build_targets_one_hot_examples():
    y = build_targets([2], 4)
    assert np.array_equal(y, [[0, 0, 1, 0]])
    y = build_targets([0, 3], 4)
    assert np.array_equal(y, [[1, 0, 0, 0], [0, 0, 0, 1]])


def test_build_targets_counting():
    rng = np.random.default_rng(0)
    for _ in range(10):
        t = int(rng.integers(5, 40))
        l = int(rng.integers(1, t))
        frames = sorted(rng.choice(t, size=l, replace=False).tolist())
        y = build_targets(frames, t)
        assert y.sum() == l
        assert np.array_equal(y.sum(axis=1), np.ones(l))


def test_build_targets_broadcast_mode():
    y = build_targets([1, 3], 5, mode="broadcast")
    assert np.array_equal(y, [[0, 1, 0, 1, 0], [0, 1, 0, 1, 0]])


def test_build_targets_validation():
    with pytest.raises(ValueError):
        build_targets([], 4)
    with pytest.raises(ValueError):
        build_targets([1, 1], 4)
    with pytest.raises(ValueError):
        build_targets([3, 1], 4)
    with pytest.raises(ValueError):
        build_targets([4], 4)


def test_consensus_and_ground_truth():
    videos, meta = toy_dataset(1, seed=3)
    rec = videos[0]
    cons = consensus_scores(rec)
    assert cons.shape == (rec.n_frames,)
    assert np.allclose(cons, rec.users.mean(axis=0))
    frames = ground_truth_frames(rec, rec.shots, 0.15)
    planted = np.flatnonzero(meta["planted_masks"][0])
    # consensus is the planted mask plus small noise: recovery is exact
    assert frames == planted.tolist()


@pytest.mark.parametrize("kind", ["masks", "scores"])
def test_consensus_is_bitwise_the_per_kind_mean(kind):
    # the formulas used while masks and scores had a field each
    rng = np.random.default_rng(4)
    if kind == "masks":
        users = rng.random((5, 97)) < 0.3
        want = np.mean(users.astype(np.float64), 0)
    else:
        users = rng.random((5, 97))
        want = np.mean(users, 0)
    rec = VideoRecord("c", np.zeros((97, 2), np.float32), users=users)
    cons = consensus_scores(rec.validate())
    assert rec.user_kind == kind
    assert cons.dtype == np.float64
    assert cons.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# loss


def test_bce_uniform_half_closed_form():
    t = 8
    p = np.full((1, t), 0.5)
    y = build_targets([3], t)
    loss = bce_loss(p, y, t).item()
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_bce_perfect_prediction_near_zero():
    t = 6
    y = build_targets([1, 4], t)
    loss = bce_loss(y.copy(), y, t).item()
    assert 0.0 < loss < 1e-5


def test_bce_matches_direct_sum_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        l, t = int(rng.integers(1, 5)), int(rng.integers(3, 12))
        p = rng.uniform(0.01, 0.99, size=(l, t))
        y = (rng.random((l, t)) < 0.3).astype(float)
        got = bce_loss(p, y, t).item()
        want = 0.0
        for i in range(l):
            for j in range(t):
                want -= y[i, j] * math.log(p[i, j]) + (1 - y[i, j]) * math.log(1 - p[i, j])
        want /= t
        assert got == pytest.approx(want, abs=1e-10)


def test_bce_gradient_finite_diff():
    rng = np.random.default_rng(2)
    params = {"p": rng.uniform(0.1, 0.9, size=(3, 7))}
    y = (rng.random((3, 7)) < 0.3).astype(float)

    def loss_fn(params, tape):
        return bce_loss(params["p"], y, 7, tape)

    report = finite_diff_check(loss_fn, params, step=1e-6, tolerance=1e-6,
                               n_samples=21)
    assert report.passed, report.summary()


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss(np.zeros((1, 3)), np.zeros((1, 4)), 3)


# ---------------------------------------------------------------------------
# Adam


def adam_reference(params0, grads_seq, lr, b1, b2, eps, wd):
    """Straightforward loop over the update equations."""
    p = {k: v.copy() for k, v in params0.items()}
    m = {k: np.zeros_like(v) for k, v in params0.items()}
    v = {k: np.zeros_like(vv) for k, vv in params0.items()}
    for step, grads in enumerate(grads_seq, start=1):
        for k in p:
            m[k] = b1 * m[k] + (1 - b1) * grads[k]
            v[k] = b2 * v[k] + (1 - b2) * grads[k] ** 2
            mh = m[k] / (1 - b1 ** step)
            vh = v[k] / (1 - b2 ** step)
            p[k] = p[k] - lr * mh / (np.sqrt(vh) + eps) - lr * wd * p[k]
    return p


def test_adam_zero_grad_fixed_point():
    cfg = TrainConfig(epochs=1, weight_decay=0.0)
    params = {"w": np.array([[1.0, -2.0]])}
    state = AdamState(params)
    before = params["w"].copy()
    for _ in range(3):
        adam_step(params, {"w": np.zeros((1, 2))}, state, cfg)
    assert np.array_equal(params["w"], before)


def test_adam_constant_gradient_sign_limit():
    cfg = TrainConfig(epochs=1, learning_rate=1e-3, weight_decay=0.0)
    params = {"w": np.array([[5.0, -5.0]])}
    state = AdamState(params)
    g = np.array([[2.0, -0.3]])
    prev = params["w"].copy()
    for step in range(300):
        adam_step(params, {"w": g}, state, cfg)
        if step > 100:
            delta = params["w"] - prev
            assert np.allclose(delta, -cfg.learning_rate * np.sign(g), rtol=1e-3)
        prev = params["w"].copy()


def test_adam_matches_reference_ten_steps():
    rng = np.random.default_rng(4)
    cfg = TrainConfig(epochs=1, learning_rate=3e-3, weight_decay=1e-4)
    init = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(1, 5))}
    params = {k: v.copy() for k, v in init.items()}
    state = AdamState(params)
    grads_seq = [
        {k: rng.normal(size=v.shape) for k, v in init.items()} for _ in range(10)
    ]
    for grads in grads_seq:
        adam_step(params, grads, state, cfg)
    want = adam_reference(init, grads_seq, cfg.learning_rate, ADAM_BETA1,
                          ADAM_BETA2, ADAM_EPS, cfg.weight_decay)
    for k in init:
        assert np.max(np.abs(params[k] - want[k])) < 1e-10


# ---------------------------------------------------------------------------
# splits


def test_make_splits_disjoint_covering():
    splits = make_splits(20, 5, seed=0)
    assert len(splits) == 5
    all_test = []
    for train_idx, test_idx in splits:
        assert len(test_idx) == 4 and len(train_idx) == 16
        assert not set(train_idx) & set(test_idx)
        all_test += test_idx
    assert sorted(all_test) == list(range(20))
    assert make_splits(20, 5, seed=0) == splits
    assert make_splits(20, 5, seed=1) != splits


def test_make_splits_too_few_videos():
    with pytest.raises(ValueError):
        make_splits(3, 5, seed=0)


# ---------------------------------------------------------------------------
# training loop


def test_train_single_video_loss_decreases(tmp_path):
    videos, _ = toy_dataset(1, seed=5)
    mc = toy_model_config()
    tc = TrainConfig(epochs=50, seed=0)
    result = train(videos, mc, tc, out_dir=str(tmp_path))
    (fold,) = result.folds
    assert len(fold.loss_curve) == 50
    assert fold.loss_curve[-1] < fold.loss_curve[0]
    assert all(np.isfinite(fold.loss_curve))
    log = (tmp_path / "loss_log.csv").read_text().splitlines()
    assert log[0] == "epoch,split,loss,f_measure"
    assert len(log) == 51
    assert (tmp_path / "fold0.ftnc").exists()


def test_loss_log_content_and_no_temp_file(tmp_path):
    videos, _ = toy_dataset(4, seed=8)
    result = train(videos, toy_model_config(), TrainConfig(epochs=2, seed=0),
                   out_dir=str(tmp_path), splits=[([0, 1], [2]), ([2, 3], [])])
    want = ["epoch,split,loss,f_measure"]
    for fold in result.folds:
        for epoch, loss in enumerate(fold.loss_curve, 1):
            f = fold.f_measure if fold.fold == 0 and epoch == 2 else None
            want.append("%d,%d,%.8f,%s" % (epoch, fold.fold, loss,
                                          "" if f is None else "%.4f" % f))
    assert (tmp_path / "loss_log.csv").read_text() == "\n".join(want) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fold0.ftnc", "fold1.ftnc", "loss_log.csv"]


def test_train_same_seed_bitwise_identical():
    videos, _ = toy_dataset(2, seed=6)
    mc = toy_model_config()
    tc = TrainConfig(epochs=5, seed=0)
    a = train(videos, mc, tc)
    b = train(videos, mc, tc)
    assert a.folds[0].loss_curve == b.folds[0].loss_curve  # exact floats
    for name in a.folds[0].params:
        assert np.array_equal(a.folds[0].params[name], b.folds[0].params[name])


def test_train_never_feeds_predictions(monkeypatch):
    import vidsum.model as model_mod

    def boom(*a, **k):
        raise AssertionError("free-running decode during optimization")

    monkeypatch.setattr(model_mod, "decode_autoregressive", boom)
    videos, _ = toy_dataset(2, seed=7)
    result = train(videos, toy_model_config(), TrainConfig(epochs=2, seed=0))
    assert len(result.folds[0].loss_curve) == 2


def test_train_segments_each_video_once(monkeypatch):
    import dataclasses

    import vidsum.segmentation as seg_mod

    videos, _ = toy_dataset(6, seed=9)
    bare = [dataclasses.replace(v, shots=None) for v in videos]
    mc, tc = toy_model_config(), TrainConfig(epochs=2, seed=0, n_folds=3,
                                             eval_every=1)
    detected = [seg_mod.resolve_shots(v) for v in bare]
    seen = []
    kts = seg_mod.kts_segment

    def counted(features, *args, **kwargs):
        seen.append(id(features))
        return kts(features, *args, **kwargs)

    monkeypatch.setattr(seg_mod, "kts_segment", counted)
    got = train(bare, mc, tc)
    assert sorted(seen) == sorted(id(v.features) for v in bare)
    assert all(v.shots is None for v in bare)
    # the same run on shots resolved beforehand, bit for bit
    want = train([dataclasses.replace(v, shots=s)
                  for v, s in zip(bare, detected)], mc, tc)
    assert len(seen) == len(bare)
    for a, b in zip(got.folds, want.folds):
        assert a.loss_curve == b.loss_curve
        assert a.f_measure == b.f_measure


def test_train_rejects_non_finite_features_before_kts(monkeypatch):
    import dataclasses

    import vidsum.segmentation as seg_mod
    from vidsum.data_io import DataError

    videos, _ = toy_dataset(2, seed=7)
    bad = videos[0].features.copy()
    bad[3, 2] = np.inf
    bare = [dataclasses.replace(videos[0], features=bad, shots=None),
            dataclasses.replace(videos[1], shots=None)]

    def no_kts(*args, **kwargs):
        raise AssertionError("KTS ran before the features were checked")

    monkeypatch.setattr(seg_mod, "kts_segment", no_kts)
    with pytest.raises(DataError, match=re.escape(videos[0].video_id)):
        train(bare, toy_model_config(), TrainConfig(epochs=1, seed=0))


def test_train_rejects_too_long_video_before_kts(monkeypatch):
    import dataclasses

    import vidsum.segmentation as seg_mod
    from vidsum.data_io import DataError

    videos, _ = toy_dataset(2, seed=7, t=(24, 40))
    cfg = toy_model_config(max_len=videos[1].n_frames - 1)
    bare = [dataclasses.replace(v, shots=None) for v in videos]
    calls = []
    kts = seg_mod.kts_segment

    def counted(*args, **kwargs):
        calls.append(1)
        return kts(*args, **kwargs)

    monkeypatch.setattr(seg_mod, "kts_segment", counted)
    with pytest.raises(DataError, match=re.escape(videos[1].video_id)):
        train(bare, cfg, TrainConfig(epochs=1, seed=0))
    assert calls == []


def test_train_rejects_too_wide_video_before_kts(monkeypatch):
    import dataclasses

    import vidsum.segmentation as seg_mod
    from vidsum.data_io import DataError

    videos, _ = toy_dataset(3, seed=7)
    wide = np.concatenate([videos[2].features, videos[2].features], axis=1)
    bare = [dataclasses.replace(v, shots=None) for v in videos[:2]]
    bare.append(dataclasses.replace(videos[2], features=wide, shots=None))

    def no_kts(*args, **kwargs):
        raise AssertionError("KTS ran before the width was checked")

    monkeypatch.setattr(seg_mod, "kts_segment", no_kts)
    with pytest.raises(DataError, match=re.escape(
            "video %s: config input_dim=8 but features have dim=16"
            % videos[2].video_id)):
        train(bare, toy_model_config(), TrainConfig(epochs=1, seed=0))


def test_train_empty_dataset_rejected():
    from vidsum.data_io import DataError

    with pytest.raises(DataError):
        train([], toy_model_config(), TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(target_mode="soft")
    with pytest.raises(ValueError, match="n_folds >= 1"):
        TrainConfig(n_folds=0)
    with pytest.raises(ValueError, match="eval_every"):
        TrainConfig(eval_every=-1)  # epoch % -1 == 0 would evaluate every epoch
    with pytest.raises(TypeError):
        TrainConfig(batch_size=1)  # removed: every step is one video
    for key, value in (("epochs", 2.5), ("epochs", 3.0), ("n_folds", True),
                       ("seed", 0.5), ("eval_every", False)):
        with pytest.raises(ValueError, match="%s must be an integer" % key):
            TrainConfig(**{key: value})
    assert type(TrainConfig(epochs=np.int64(2)).epochs) is int


@pytest.mark.parametrize("key", ["learning_rate", "weight_decay", "clip_norm"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_train_config_rejects_non_finite(key, value):
    # a NaN clip_norm would silently turn clipping off: norm > nan is False
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**{key: value})


def test_train_heldout_eval_logged(tmp_path):
    videos, _ = toy_dataset(4, seed=8)
    mc = toy_model_config()
    tc = TrainConfig(epochs=2, seed=0, n_folds=2)
    result = train(videos, mc, tc, out_dir=str(tmp_path),
                   splits=[([0, 1, 2], [3])])
    (fold,) = result.folds
    assert fold.f_measure is not None
    assert 0.0 <= fold.f_measure <= 100.0
    last = (tmp_path / "loss_log.csv").read_text().splitlines()[-1]
    assert last.startswith("2,0,")
    assert last.split(",")[3] != ""


def _nan_loss(p, y, t, tape=None):
    return np.array([[np.nan]], dtype=p.dtype)


def test_train_stops_at_the_step_with_a_non_finite_loss(monkeypatch):
    import vidsum.training as training_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return _nan_loss(*args, **kwargs)

    monkeypatch.setattr(training_mod, "bce_loss", counted)
    videos, _ = toy_dataset(3, seed=7)
    with pytest.raises(FloatingPointError) as exc:
        train(videos, toy_model_config(), TrainConfig(epochs=3, seed=0),
              splits=[([1, 2], [0]), ([0, 2], [1])])
    assert len(calls) == 1
    msg = str(exc.value)
    assert "non-finite loss" in msg
    assert "epoch 1, fold 0, video %s" % videos[1].video_id in msg


def test_train_names_the_first_parameter_with_a_non_finite_gradient(monkeypatch):
    import vidsum.training as training_mod
    from vidsum.numerics import accumulate

    real_loss = training_mod.bce_loss

    def poisoned(p, y, t, tape=None):
        # the loss value stays finite; only its gradient is NaN
        loss = real_loss(p, y, t, tape)
        out = loss.copy()
        tape.record(out, lambda g, grads: accumulate(grads, loss, g * np.nan))
        return out

    monkeypatch.setattr(training_mod, "bce_loss", poisoned)
    videos, _ = toy_dataset(2, seed=7)
    mc = toy_model_config()
    with pytest.raises(FloatingPointError) as exc:
        train(videos, mc, TrainConfig(epochs=2, seed=0, clip_norm=0.0))
    msg = str(exc.value)
    first = next(iter(init_params(mc, seed=mc.seed)))
    assert "non-finite gradient norm at epoch 1, fold 0, video %s" % (
        videos[0].video_id) in msg
    assert msg.endswith("first in %s" % first)


def test_clipped_step_hands_adam_gradients_of_norm_clip_norm(monkeypatch):
    import vidsum.training as training_mod

    real_adam = training_mod.adam_step
    norms = []

    def spy(params, grads, state, config):
        assert list(grads) == list(params)
        norms.append(math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                                   for g in grads.values())))
        return real_adam(params, grads, state, config)

    monkeypatch.setattr(training_mod, "adam_step", spy)
    videos, _ = toy_dataset(2, seed=7)
    # the unclipped norms of these steps are well above 0.1
    train(videos, toy_model_config(), TrainConfig(epochs=2, seed=0, clip_norm=0.1))
    assert norms == pytest.approx([0.1] * 4, rel=1e-5)
