import dataclasses
import gc
import hashlib
import json
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vidsum.model as model_mod
from vidsum.attention import ConfigError, build_encoder_pattern
from vidsum.data_io import (
    DataError,
    ParseError,
    VideoRecord,
    synth_dataset,
    synth_video,
)
from vidsum.model import (
    ModelConfig,
    decode_autoregressive,
    embed,
    encode_video,
    encoder_layer,
    decoder_layer,
    forward,
    init_params,
    load_checkpoint,
    output_head,
    positional_encoding,
    save_checkpoint,
    summarize,
    _decoder_stack,
)
from vidsum.numerics import Tape, add, concat_rows, linear
from vidsum.segmentation import SegmentationError
from vidsum.selection import make_summary
from vidsum.training import TrainConfig, train

from oracles import (all_heads_sink, dense_mask, finite_diff_check,
                     half_sum_squares, step_memory)


def toy_config(**kw):
    base = dict(
        n_layers=2, d=16, d_ff=24, h=2, window=5, input_dim=8, max_len=48,
        seed=0, dtype="float64",
    )
    base.update(kw)
    return ModelConfig(**base)


def toy_video(t=12, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t, dim))
    shots = ((0, t // 2), (t // 2, t))
    return feats, shots


# ---------------------------------------------------------------------------
# reference implementation (independent numpy, no tape)


def ref_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ref_ln(x, g, b, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def ref_mha(q, k, v, mask, p, prefix, h):
    wq, wk = p[prefix + ".wq"], p[prefix + ".wk"]
    wv, wo = p[prefix + ".wv"], p[prefix + ".wo"]
    qp, kp, vp = q @ wq, k @ wk, v @ wv
    dk = wq.shape[1] // h
    outs = []
    for j in range(h):
        sl = slice(j * dk, (j + 1) * dk)
        s = qp[:, sl] @ kp[:, sl].T / np.sqrt(dk)
        s = np.where(mask, s, -np.inf)
        w = np.zeros_like(s)
        rows = mask.any(axis=1)
        w[rows] = ref_softmax(s[rows])
        outs.append(w @ vp[:, sl])
    return np.concatenate(outs, axis=1) @ wo


def ref_ffn(x, p, prefix):
    hdn = np.maximum(x @ p[prefix + ".w1"] + p[prefix + ".b1"], 0.0)
    return hdn @ p[prefix + ".w2"] + p[prefix + ".b2"]


def ref_forward(feats, shots, teacher, config, p):
    t = feats.shape[0]
    pe = positional_encoding(t, config.d, config.pos_base, np.float64)

    from vidsum.attention import build_encoder_pattern

    pattern = build_encoder_pattern(
        config.attention, t, t, config.window, shots, config.globals_per_shot
    )
    mask = dense_mask(pattern)
    x = feats @ p["embed.enc.w"] + p["embed.enc.b"] + pe
    for i in range(config.n_layers):
        pf = "enc.%d" % i
        x1 = ref_ln(x + ref_mha(x, x, x, mask, p, pf + ".attn", config.h),
                    p[pf + ".ln1.g"], p[pf + ".ln1.b"], config.ln_eps)
        x = ref_ln(x1 + ref_ffn(x1, p, pf + ".ffn"),
                   p[pf + ".ln2.g"], p[pf + ".ln2.b"], config.ln_eps)

    l = len(teacher)
    dec_in = np.concatenate(
        [p["decoder.start"],
         feats[teacher[:-1]] @ p["embed.dec.w"] + p["embed.dec.b"]],
        axis=0,
    ) + positional_encoding(l, config.d, config.pos_base, np.float64)
    causal = np.tril(np.ones((l, l), dtype=bool))
    cross = np.ones((l, t), dtype=bool)
    s = dec_in
    for i in range(config.n_layers):
        pf = "dec.%d" % i
        s1 = ref_ln(s + ref_mha(s, s, s, causal, p, pf + ".self", config.h),
                    p[pf + ".ln1.g"], p[pf + ".ln1.b"], config.ln_eps)
        s2 = ref_ln(s1 + ref_mha(s1, x, x, cross, p, pf + ".cross", config.h),
                    p[pf + ".ln2.g"], p[pf + ".ln2.b"], config.ln_eps)
        s = ref_ln(s2 + ref_ffn(s2, p, pf + ".ffn"),
                   p[pf + ".ln3.g"], p[pf + ".ln3.b"], config.ln_eps)
    logits = s @ p["head.w"] + p["head.b"]
    return ref_softmax(logits[:, :t])


def full_recompute_decode(encoded, config, params):
    """Free-running decode that reruns the whole decoder over the prefix at
    every step: (l_max x T step rows, argmax chain).  Reference for the
    cached step loop of ``decode_autoregressive``."""
    t = encoded.valid_len
    l_max = max(1, int(np.ceil(config.summary_ratio * t)))
    start = params["decoder.start"]
    chosen = []
    step_rows = np.zeros((l_max, t), dtype=np.float64)
    for step in range(l_max):
        if chosen:
            rows = encoded.features[np.asarray(chosen, dtype=np.int64)]
            emb = linear(rows, params["embed.dec.w"], params["embed.dec.b"])
            seq = concat_rows([start, emb])
        else:
            seq = start
        pe = positional_encoding(seq.shape[0], config.d, config.pos_base,
                                 config.np_dtype)
        dec = _decoder_stack(add(seq, pe), encoded, config, params, None)
        row = output_head(dec, t, params)[-1].astype(np.float64)
        step_rows[step] = row
        chosen.append(int(np.argmax(row)))
    return step_rows, chosen


def cached_decode(encoded, config, params):
    """Scores of ``decode_autoregressive`` plus the step rows its
    ``output_head`` calls returned."""
    rows = []
    original = model_mod.output_head

    def spy(dec_out, t, p, tape=None):
        out = original(dec_out, t, p, tape)
        rows.append(out.astype(np.float64))
        return out

    model_mod.output_head = spy
    try:
        scores = decode_autoregressive(encoded, config, params)
    finally:
        model_mod.output_head = original
    return scores, np.concatenate(rows, axis=0)


DECODE_TOL = {"float32": 1e-6, "float64": 1e-12}


def assert_decode_matches_oracle(encoded, config, params):
    scores, rows = cached_decode(encoded, config, params)
    want, chain = full_recompute_decode(encoded, config, params)
    assert rows.shape == want.shape
    assert np.max(np.abs(rows - want)) <= DECODE_TOL[config.dtype]
    assert [int(np.argmax(r)) for r in rows] == chain
    agg = want.max(axis=0) if config.decode_aggregate == "max" else want.mean(axis=0)
    assert np.max(np.abs(scores - agg)) <= DECODE_TOL[config.dtype]
    return scores, agg


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(d=10, h=4)
    with pytest.raises(ConfigError):
        ModelConfig(attention="banana")
    with pytest.raises(ConfigError):
        ModelConfig(summary_ratio=0.0)
    with pytest.raises(ConfigError):
        ModelConfig(dtype="float16")
    for h in (0, -8):  # h=0 would divide by zero, h=-8 divides d=64
        with pytest.raises(ConfigError, match="h must be >= 1"):
            ModelConfig(h=h)
    cfg = ModelConfig(attention="lga")
    assert cfg.attention == "local_global"
    for window in (4, 0, -1):  # only the banded kinds read the window
        for kind in ("local", "local_global"):
            with pytest.raises(ConfigError, match="window"):
                ModelConfig(attention=kind, window=window)
        for kind in ("full", "global"):
            assert ModelConfig(attention=kind, window=window).window == window


def test_config_checks_globals_per_shot_for_the_kinds_that_read_it():
    for globals_per_shot in (0, 4):
        for kind in ("global", "local_global", "ga", "lga"):
            with pytest.raises(ConfigError, match="globals_per_shot"):
                ModelConfig(attention=kind, globals_per_shot=globals_per_shot)
        for kind in ("full", "local"):
            cfg = ModelConfig(attention=kind, globals_per_shot=globals_per_shot)
            assert cfg.globals_per_shot == globals_per_shot


@pytest.mark.parametrize("key,value", [
    ("n_layers", 2.5), ("n_layers", 1.0), ("h", True), ("d", "64"),
    ("window", 17.0), ("max_len", None), ("globals_per_shot", False),
])
def test_config_rejects_non_integer_int_fields(key, value):
    # a float n_layers passing here would fail later, in init_params
    with pytest.raises(ConfigError, match="%s must be an integer" % key):
        ModelConfig(**{key: value})


def test_config_int_fields_take_numpy_integers_as_ints():
    cfg = ModelConfig(n_layers=np.int64(2), seed=np.uint8(7))
    assert (cfg.n_layers, cfg.seed) == (2, 7)
    assert type(cfg.n_layers) is int and type(cfg.seed) is int
    json.dumps(cfg.to_dict())


@pytest.mark.parametrize("key,value", [
    ("kts_penalty", math.nan), ("kts_penalty", math.inf),
    ("ln_eps", math.nan), ("ln_eps", math.inf), ("ln_eps", 0.0),
    ("ln_eps", -1e-8), ("pos_base", math.nan), ("pos_base", math.inf),
    ("pos_base", 0.0), ("pos_base", -2.0),
])
def test_config_rejects_non_finite_and_non_positive(key, value):
    with pytest.raises(ConfigError, match=key):
        ModelConfig(**{key: value})


def test_config_round_trip_and_unknown_key():
    cfg = toy_config(window=7)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"d": 16, "flux": 1})


def test_default_geometry():
    cfg = ModelConfig()
    assert (cfg.n_layers, cfg.d, cfg.d_ff, cfg.h) == (6, 64, 2048, 8)
    assert (cfg.window, cfg.input_dim, cfg.max_len) == (17, 1024, 1536)


def test_init_params_deterministic():
    cfg = toy_config()
    a, b = init_params(cfg), init_params(cfg)
    assert list(a) == list(b)
    for name in a:
        assert np.array_equal(a[name], b[name])
    assert len(a) > 0


# ---------------------------------------------------------------------------
# embedding / positional encoding


def test_pe_formula_oracle():
    pe = positional_encoding(5, 8, dtype=np.float64)
    assert np.all(pe[0, 0::2] == 0.0)
    assert np.all(pe[0, 1::2] == 1.0)
    # direct evaluation at (pos=1, i=0) and a deeper channel
    assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
    assert pe[1, 1] == pytest.approx(np.cos(1.0), abs=1e-12)
    assert pe[3, 4] == pytest.approx(np.sin(3.0 / 10000.0 ** (4.0 / 8.0)), abs=1e-12)
    assert pe[3, 5] == pytest.approx(np.cos(3.0 / 10000.0 ** (4.0 / 8.0)), abs=1e-12)


def test_embed_zero_features_is_pe():
    cfg = toy_config()
    params = init_params(cfg)
    t = 6
    out = embed(np.zeros((t, cfg.input_dim)), params, cfg)
    pe = positional_encoding(t, cfg.d, cfg.pos_base, np.float64)
    assert np.array_equal(out, pe)


def test_encode_video_width_mismatch():
    cfg = toy_config()
    params = init_params(cfg)
    with pytest.raises(DataError, match="input_dim=8 but features have dim=9"):
        encode_video(np.zeros((4, cfg.input_dim + 1)), ((0, 4),), cfg, params)


# ---------------------------------------------------------------------------
# layers


def test_encoder_layer_zero_weights_degenerates_to_double_ln():
    cfg = toy_config(n_layers=1)
    params = init_params(cfg)
    for name, m in params.items():
        if name.startswith("enc.0.attn") or name.startswith("enc.0.ffn"):
            m[...] = 0
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, cfg.d))
    pattern = build_encoder_pattern("fa", 9, 9, 1, None)
    out = encoder_layer(x, pattern, params, "enc.0", cfg)
    ones, zeros = np.ones((1, cfg.d)), np.zeros((1, cfg.d))
    want = ref_ln(ref_ln(x, ones, zeros, cfg.ln_eps), ones, zeros, cfg.ln_eps)
    assert np.max(np.abs(out - want)) < 1e-12


def test_encoder_layer_matches_reference():
    cfg = toy_config(n_layers=1, attention="full")
    params = init_params(cfg)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, cfg.d))
    pattern = build_encoder_pattern("fa", 10, 10, 1, None)
    got = encoder_layer(x, pattern, params, "enc.0", cfg)
    x1 = ref_ln(x + ref_mha(x, x, x, dense_mask(pattern), params, "enc.0.attn", cfg.h),
                params["enc.0.ln1.g"], params["enc.0.ln1.b"], cfg.ln_eps)
    want = ref_ln(x1 + ref_ffn(x1, params, "enc.0.ffn"),
                  params["enc.0.ln2.g"], params["enc.0.ln2.b"], cfg.ln_eps)
    assert np.max(np.abs(got - want)) < 1e-10


def test_stacked_encoder_equals_sequential_calls():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video()
    enc = encode_video(feats, shots, cfg, params)
    t = len(feats)
    pattern = build_encoder_pattern(cfg.attention, t, t, cfg.window, shots,
                                    cfg.globals_per_shot)
    x = embed(np.asarray(feats, dtype=np.float64), params, cfg)
    for i in range(cfg.n_layers):
        x = encoder_layer(x, pattern, params, "enc.%d" % i, cfg)
    assert np.array_equal(x, enc.y)


def test_decoder_layer_causality_rowwise():
    cfg = toy_config(n_layers=1)
    params = init_params(cfg)
    rng = np.random.default_rng(3)
    feats, shots = toy_video()
    enc = encode_video(feats, shots, cfg, params)
    from vidsum.attention import build_causal_pattern, build_cross_pattern

    l = 5
    causal, cross = build_causal_pattern(l), build_cross_pattern(l, enc.valid_len)
    s = rng.normal(size=(l, cfg.d))
    base = decoder_layer(s, enc.y, causal, cross, params, "dec.0", cfg)
    s2 = s.copy()
    s2[3] += 1.0
    pert = decoder_layer(s2, enc.y, causal, cross, params, "dec.0", cfg)
    assert np.array_equal(base[:3], pert[:3])  # bitwise
    assert not np.array_equal(base[3], pert[3])


def test_output_head_zero_weights_uniform():
    cfg = toy_config()
    params = init_params(cfg)
    params["head.w"][...] = 0
    out = output_head(np.random.default_rng(4).normal(size=(3, cfg.d)),
                      7, params)
    assert np.allclose(out, 1.0 / 7.0)


def test_output_head_rows_are_distributions():
    cfg = toy_config()
    params = init_params(cfg)
    out = output_head(np.random.default_rng(5).normal(size=(4, cfg.d)),
                      11, params)
    assert out.shape == (4, 11)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert out.min() >= 0.0


# ---------------------------------------------------------------------------
# forward


def test_forward_shape_and_preconditions():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video()
    probs = forward(feats, shots, [2, 5, 7], cfg, params)
    assert probs.shape == (3, 12)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    with pytest.raises(ValueError):
        forward(feats, shots, [], cfg, params)
    with pytest.raises(ValueError):
        forward(feats, shots, [12], cfg, params)


def test_forward_matches_reference_end_to_end():
    for kind in ("full", "local_global"):
        cfg = toy_config(attention=kind)
        params = init_params(cfg)
        feats, shots = toy_video(t=14)
        teacher = [1, 6, 9]
        got = forward(feats, shots, teacher, cfg, params)
        want = ref_forward(feats, shots, teacher, cfg, params)
        assert np.max(np.abs(got - want)) < 1e-10, kind


def test_forward_teacher_causality():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video()
    a = forward(feats, shots, [1, 3, 5, 7, 9], cfg, params)
    b = forward(feats, shots, [1, 3, 5, 6, 9], cfg, params)
    # row k depends on teacher[:k] only
    assert np.array_equal(a[:4], b[:4])
    assert not np.array_equal(a[4], b[4])


@pytest.mark.parametrize("kind", ["full", "local", "global", "local_global"])
def test_forward_captured_maps_leave_output_bitwise(kind):
    cfg = toy_config(attention=kind)
    params = init_params(cfg)
    feats, shots = toy_video(t=14)
    teacher = [1, 6, 9]
    base = forward(feats, shots, teacher, cfg, params)
    maps, sink = all_heads_sink(cfg.h)
    got = forward(feats, shots, teacher, cfg, params, maps=sink)
    assert got.tobytes() == base.tobytes()
    shapes = {kind: (14, 14), "causal": (3, 3), "cross": (3, 14)}
    assert sorted(maps) == sorted(shapes)
    for name, (rows, cols) in shapes.items():
        assert len(maps[name]) == cfg.n_layers
        for layer in maps[name]:
            assert layer.shape == (cfg.h, rows, cols)
            assert np.allclose(layer.sum(axis=2), 1.0, atol=1e-12)
    assert not np.triu(maps["causal"][0][0], 1).any()


def test_forward_padding_invariance_bitwise():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video(t=12)
    base = forward(feats, shots, [2, 8], cfg, params)
    for total in (24, cfg.max_len):
        padded = np.full((total, feats.shape[1]), np.nan)
        padded[:12] = feats
        got = forward(padded, shots, [2, 8], cfg, params, valid_len=12)
        assert np.array_equal(got, base)


def test_video_too_long_rejected():
    cfg = toy_config(max_len=10)
    params = init_params(cfg)
    feats, shots = toy_video(t=12)
    with pytest.raises(DataError):
        encode_video(feats, shots, cfg, params)


def test_summarize_rejects_too_long_video_before_kts(monkeypatch):
    import vidsum.segmentation as seg_mod

    cfg = toy_config(max_len=10)
    feats, _ = toy_video(t=11)
    calls = []
    kts = seg_mod.kts_segment

    def counted(*args, **kwargs):
        calls.append(1)
        return kts(*args, **kwargs)

    monkeypatch.setattr(seg_mod, "kts_segment", counted)
    with pytest.raises(DataError, match="exceeds max_len 10"):
        summarize(VideoRecord("v", feats), cfg, init_params(cfg))
    assert calls == []


def test_summarize_rejects_too_wide_video_before_kts(monkeypatch):
    import vidsum.segmentation as seg_mod

    cfg = toy_config()
    feats, _ = toy_video(t=12, dim=16)

    def no_kts(*args, **kwargs):
        raise AssertionError("KTS ran before the width was checked")

    monkeypatch.setattr(seg_mod, "kts_segment", no_kts)
    with pytest.raises(DataError, match="video wide: config input_dim=8 but "
                                        "features have dim=16"):
        summarize(VideoRecord("wide", feats), cfg, init_params(cfg))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_valid_row_raises_data_error(value):
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video(t=12)
    feats[7, 3] = value
    with pytest.raises(DataError, match=r"row\(s\) \[7\]"):
        encode_video(feats, shots, cfg, params)
    with pytest.raises(DataError, match=r"row\(s\) \[7\]"):
        forward(feats, shots, [2, 8], cfg, params)
    with pytest.raises(DataError, match=r"row\(s\) \[7\]"):
        summarize(VideoRecord("v", feats, shots=shots), cfg, params)
    with pytest.raises(DataError, match=r"row\(s\) \[7\]"):
        summarize(VideoRecord("v", feats), cfg, params)  # KTS shots
    # rows past valid_len are never read
    encode_video(feats, ((0, 3), (3, 7)), cfg, params, valid_len=7)


@pytest.mark.parametrize("shots", [[(0, 2.7), (2.7, 5)],
                                   [(False, True), (True, 5)]])
def test_encode_video_rejects_non_whole_shot_bounds(shots):
    cfg = toy_config()
    feats = np.random.default_rng(0).normal(size=(5, cfg.input_dim))
    with pytest.raises(SegmentationError, match="is not a whole number"):
        encode_video(feats, shots, cfg, init_params(cfg))


# ---------------------------------------------------------------------------
# gradients


def test_end_to_end_gradcheck():
    cfg = toy_config(n_layers=2, d=16, h=2, d_ff=16, max_len=24)
    params = init_params(cfg)
    feats, shots = toy_video(t=10)
    teacher = [2, 7]
    rng = np.random.default_rng(6)
    neg_target = -rng.random((2, 10))

    def loss_fn(p, tape):
        probs = forward(feats, shots, teacher, cfg, p, tape)
        diff = add(probs, neg_target, tape)
        return half_sum_squares(diff, tape)

    report = finite_diff_check(loss_fn, params, step=1e-5, tolerance=1e-4,
                               n_samples=220, seed=0)
    assert report.passed, report.summary()


def _taped_arrays(tape, params, keep):
    """Arrays the tape's records hold for which ``keep`` is true, parameters
    aside."""
    param_ids = {id(p) for p in params.values()}
    held = {}
    for out, backward in tape._records:
        closed = [a for c in backward.__closure__ or () for a in gc.get_referents(c)]
        for a in [out] + closed:
            if isinstance(a, np.ndarray) and id(a) not in param_ids and keep(a):
                held[id(a)] = a
    return list(held.values())


def test_tape_holds_no_ffn_hidden_array_and_backward_frees_it():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video(t=20)
    tape = Tape()
    loss = half_sum_squares(forward(feats, shots, [2, 8, 15], cfg, params, tape),
                            tape)
    # no (rows, d_ff) array of an encoder (20 rows) or decoder (3 rows) FFN
    assert _taped_arrays(tape, params,
                         lambda a: a.ndim == 2 and a.shape[1] == cfg.d_ff) == []
    # cross-attention probabilities, (h, 3 queries, 20 keys) per decoder layer
    probs = _taped_arrays(tape, params, lambda a: a.shape == (cfg.h, 3, 20))
    assert len(probs) == cfg.n_layers
    freed = weakref.ref(probs[0])
    del probs
    tape.backward(loss)
    assert freed() is None and len(tape) == 0
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_forms_no_feature_gradient():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video(t=20)
    tape = Tape()
    loss = half_sum_squares(forward(feats, shots, [2, 8, 15], cfg, params, tape),
                            tape)
    grads = tape.backward(loss)
    # encoder rows (20, input_dim) and the two embedded teacher rows
    shapes = {g.shape for g in grads.values()}
    assert not shapes & {(20, cfg.input_dim), (2, cfg.input_dim)}, shapes
    for name in ("embed.enc.w", "embed.enc.b", "embed.dec.w", "embed.dec.b"):
        assert np.any(grads[id(params[name])]), name


def test_paper_step_memory_within_bounds():
    """One paper-config step on a T=768 video with 32 shots (the first
    ``train-paper`` video of perfbench seed 1): at most 70 MiB held after
    the forward pass and 76 MiB at the backward peak (tracemalloc). The
    step measures 67.1 and 72.4 MiB; the bounds leave about 3 MiB, under
    the 8.4 MiB a record that kept its derivable arrays would add."""
    rng = np.random.default_rng([1, 0, 0])
    u = rng.normal(0.0, 1.0, size=1024)
    video, _mask, _planted = synth_video(768, 1024, 32, 0.15, rng,
                                         u / np.linalg.norm(u), offset_scale=2.0)
    config = ModelConfig()
    held, peak, records = step_memory(config, init_params(config), video)
    assert held <= 70.0 and peak <= 76.0, (held, peak, records)


# ---------------------------------------------------------------------------
# decoding


def test_decode_autoregressive_contract():
    cfg = toy_config()
    params = init_params(cfg)
    feats, shots = toy_video(t=20)
    enc = encode_video(feats, shots, cfg, params)
    scores = decode_autoregressive(enc, cfg, params)
    assert scores.shape == (20,)
    assert scores.min() >= 0.0 and scores.max() <= 1.0
    # deterministic
    assert np.array_equal(scores, decode_autoregressive(enc, cfg, params))


def test_decode_step_count_follows_ratio():
    cfg = toy_config(summary_ratio=0.25, decode_aggregate="mean")
    params = init_params(cfg)
    feats, shots = toy_video(t=20)
    enc = encode_video(feats, shots, cfg, params)
    scores = decode_autoregressive(enc, cfg, params)
    # mean over ceil(0.25*20)=5 rows of simplexes sums to 1
    assert scores.sum() == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=40, deadline=None, database=None)
@given(t=st.integers(1, 40), n_layers=st.integers(1, 3),
       dtype=st.sampled_from(["float32", "float64"]),
       aggregate=st.sampled_from(["max", "mean"]),
       seed=st.integers(0, 2**16))
def test_cached_decode_matches_full_recompute(t, n_layers, dtype, aggregate,
                                              seed):
    # T <= 6 gives a single step (l_max == 1)
    cfg = toy_config(n_layers=n_layers, dtype=dtype,
                     decode_aggregate=aggregate)
    params = init_params(cfg, seed=seed)
    feats = np.random.default_rng(seed).normal(size=(t, cfg.input_dim))
    bounds = sorted({0, t // 2, t})
    shots = tuple(zip(bounds[:-1], bounds[1:]))
    enc = encode_video(feats, shots, cfg, params)
    assert_decode_matches_oracle(enc, cfg, params)


def test_cached_decode_matches_oracle_on_acceptance_videos():
    videos, _ = synth_dataset(
        20, (80, 160), 64, (4, 10), planted_fraction=0.15, seed=123,
        offset_scale=2.0, center_scale=0.0, max_planted_runs=1)
    for dtype in ("float32", "float64"):
        cfg = ModelConfig(n_layers=2, d=64, d_ff=128, h=8, window=17,
                          input_dim=64, max_len=192, seed=1, dtype=dtype)
        params = init_params(cfg)
        for vid in videos[::5]:
            enc = encode_video(vid.features, vid.shots, cfg, params)
            got, want = assert_decode_matches_oracle(enc, cfg, params)
            assert (make_summary(got, vid.shots).selected_shots
                    == make_summary(want, vid.shots).selected_shots)


def test_decode_calls_output_head_once_per_step_on_one_row(monkeypatch):
    cfg = toy_config(summary_ratio=0.3)
    params = init_params(cfg)
    feats, shots = toy_video(t=23)
    enc = encode_video(feats, shots, cfg, params)
    calls = []
    original = model_mod.output_head

    def counted(dec_out, t, p, tape=None):
        calls.append(dec_out.shape)
        return original(dec_out, t, p, tape)

    monkeypatch.setattr(model_mod, "output_head", counted)
    decode_autoregressive(enc, cfg, params)
    assert calls == [(1, cfg.d)] * math.ceil(0.3 * 23)


@pytest.mark.parametrize("aggregate", ["max", "mean"])
def test_decode_aggregate_equals_the_stacked_step_rows_bitwise(monkeypatch,
                                                               aggregate):
    t = 400
    cfg = toy_config(max_len=t, decode_aggregate=aggregate)
    params = init_params(cfg)
    feats, shots = toy_video(t=t)
    enc = encode_video(feats, shots, cfg, params)
    rows = []
    original = model_mod.output_head

    def kept(dec_out, t, p, tape=None):
        out = original(dec_out, t, p, tape)
        rows.append(out[0].astype(np.float64))
        return out

    monkeypatch.setattr(model_mod, "output_head", kept)
    got = decode_autoregressive(enc, cfg, params)
    table = np.stack(rows)
    assert table.shape == (math.ceil(cfg.summary_ratio * t), t)
    want = table.max(axis=0) if aggregate == "max" else table.mean(axis=0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_decode_names_the_layer_and_step_that_went_non_finite():
    cfg = toy_config(dtype="float32")
    params = init_params(cfg)
    params["dec.1.ffn.w1"][...] *= 3e38
    feats, shots = toy_video(t=20)
    enc = encode_video(feats, shots, cfg, params)
    # the overflow is the point: keep numpy's warning from failing first
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
        decode_autoregressive(enc, cfg, params)
    assert "layer 1" in str(exc.value) and "step 0" in str(exc.value)


def test_ffn_overflow_that_relu_would_hide_is_named():
    # every pre-activation of dec.1's FFN is -inf, which ReLU alone maps to 0
    cfg = toy_config(dtype="float32")
    params = init_params(cfg)
    params["dec.1.ffn.w1"][...] = 3e38
    feats, shots = toy_video(t=20)
    enc = encode_video(feats, shots, cfg, params)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"layer 1 at decode step 0: dec\.1\.ffn"):
            decode_autoregressive(enc, cfg, params)
        with pytest.raises(FloatingPointError, match=r"^dec\.1\.ffn"):
            forward(feats, shots, [2, 8], cfg, params, Tape())


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for dtype, bits in (("float32", np.uint32), ("float64", np.uint64)):
        cfg = ModelConfig(n_layers=2, d=16, d_ff=24, h=2, window=5,
                          input_dim=8, max_len=48, dtype=dtype)
        params = init_params(cfg)
        path = tmp_path / ("m_%s.ftnc" % dtype)
        save_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert list(params2) == list(params)
        for name in params:
            assert params2[name].dtype == cfg.np_dtype
            assert np.array_equal(params2[name].view(bits),
                                  params[name].view(bits)), (dtype, name)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "m_float32.ftnc", "m_float64.ftnc"]  # no temp file left behind


def write_v1_checkpoint(path, config, params):
    """The version-1 layout: every tensor stored as little-endian float32."""
    cfg_bytes = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"FTNC" + struct.pack("<II", 1, len(cfg_bytes)) + cfg_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name, m in params.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<III", len(nb), *m.shape) + nb)
            fh.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def test_checkpoint_reads_version_1(tmp_path):
    for dtype in ("float32", "float64"):
        cfg = ModelConfig(n_layers=1, d=8, d_ff=8, h=2, window=3, input_dim=4,
                          max_len=16, dtype=dtype)
        params = init_params(cfg)
        path = tmp_path / ("v1_%s.ftnc" % dtype)
        write_v1_checkpoint(path, cfg, params)
        cfg2, params2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name in params:
            want = params[name].astype(np.float32).astype(cfg.np_dtype)
            assert params2[name].dtype == cfg.np_dtype
            assert np.array_equal(params2[name], want), name


def test_checkpoint_rejects_unknown_tensor_dtype(tmp_path):
    cfg = ModelConfig(n_layers=1, d=8, d_ff=8, h=2, window=3, input_dim=4,
                      max_len=16, dtype="float64")
    path = tmp_path / "c.ftnc"
    save_checkpoint(path, cfg, init_params(cfg))
    data = path.read_bytes()
    at = data.index(b"<f8")
    path.write_bytes(data[:at] + b"<i8" + data[at + 3:])
    with pytest.raises(ParseError) as exc:
        load_checkpoint(path)
    assert exc.value.offset == at


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_entry(tmp_path, dtype, value):
    cfg = toy_config(dtype=dtype)
    params = init_params(cfg)
    params["dec.1.ffn.w2"][5, 9] = value
    path = tmp_path / "nf.ftnc"
    save_checkpoint(path, cfg, params)
    with pytest.raises(ParseError) as exc:
        load_checkpoint(path)
    msg = str(exc.value)
    assert "'dec.1.ffn.w2'" in msg and str(path) in msg
    assert repr(float(value)) in msg
    # the offset is that of the bad entry
    stored = np.frombuffer(path.read_bytes(), cfg.np_dtype, count=1,
                           offset=exc.value.offset)
    assert np.array_equal(stored, [value], equal_nan=True)


def test_checkpoint_rejects_mis_shaped_tensor(tmp_path):
    # a narrow head would load and run on short videos, then fail deep in
    # the model on the first video longer than its width
    cfg = toy_config(max_len=32)
    params = init_params(cfg)
    params["head.w"] = params["head.w"][:, :20]
    path = tmp_path / "narrow.ftnc"
    save_checkpoint(path, cfg, params)
    with pytest.raises(DataError) as exc:
        load_checkpoint(path)
    msg = str(exc.value)
    assert "'head.w'" in msg and "16x20" in msg and "16x32" in msg


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ftnc"
    path.write_bytes(b"WHAT" + b"\x00" * 20)
    with pytest.raises(ParseError) as exc:
        load_checkpoint(path)
    assert exc.value.offset == 0


def test_checkpoint_truncation(tmp_path):
    # a cut at any byte, inside a header, a name, a dtype code or a payload,
    # is reported as truncated at the end of the file
    cfg = ModelConfig(n_layers=1, d=2, d_ff=2, h=1, window=1, input_dim=2,
                      max_len=2, dtype="float32")
    path = tmp_path / "t.ftnc"
    save_checkpoint(path, cfg, init_params(cfg))
    data = path.read_bytes()
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert exc.value.offset == cut, cut
        assert "truncated" in str(exc.value), (cut, str(exc.value))


# ---------------------------------------------------------------------------
# pinned outputs


def _output_digests(dtype, clip_norm):
    """sha256 of summarize's frame scores and shots, and of a loss curve."""
    cfg = toy_config(dtype=dtype, kts_max_shots=6)
    params = init_params(cfg)
    videos, _ = synth_dataset(3, (24, 40), 8, (3, 5), seed=4)
    h = hashlib.sha256()
    for video in videos:
        # no provided shots, so KTS runs as well
        result, scores, shots = summarize(
            dataclasses.replace(video, shots=None), cfg, params)
        h.update(np.ascontiguousarray(scores).tobytes())
        h.update(repr((list(shots), result.selected_shots)).encode())
    run = train(videos, cfg, TrainConfig(epochs=2, seed=0, clip_norm=clip_norm))
    curve = np.array(run.folds[0].loss_curve, dtype=np.float64)
    return h.hexdigest(), hashlib.sha256(curve.tobytes()).hexdigest()


# Step gradient norms here are 0.39-0.63: clip_norm 5.0 never clips, 0.1
# clips every step. Explicit ids keep the ids the first two cases had.
@pytest.mark.parametrize("dtype,clip_norm,want", [
    pytest.param(
        "float32", 5.0,
        ("a16939d59dd9471055b8ab9c5d53258a47ee3b3e67445d6bff31bbf434ead55d",
         "c862e49527b3bff5df0b678f8c3b9591acc3ed3a317870555854f9ee6bd9e226"),
        id="float32-want0"),
    pytest.param(
        "float64", 5.0,
        ("715daa3275f546b20f53ef2b0a9a9994e6bf7f231ee118ca70e45d36919100b6",
         "f6806f592b6c2a2aba155721e0e64de62acefb03ad48fe2691656f7dcc1478fa"),
        id="float64-want1"),
    pytest.param(
        "float32", 0.1,
        ("a16939d59dd9471055b8ab9c5d53258a47ee3b3e67445d6bff31bbf434ead55d",
         "c2e60d9072b8d1f2ba381839853ce54639b9d1d9d9614bd8b37121259eae5e2c"),
        id="float32-clip_norm0.1"),
])
def test_outputs_match_pinned_digests(dtype, clip_norm, want):
    assert _output_digests(dtype, clip_norm) == want
