import csv
import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsum.attention import (
    PATTERN_KINDS,
    ConfigError,
    build_causal_pattern,
    build_cross_pattern,
    build_encoder_pattern,
    build_full_pattern,
    build_ga_pattern,
    build_la_pattern,
    build_lga_pattern,
    canonical_kind,
    count_score_entries,
    export_weights_csv,
    export_weights_pgm,
    multi_head,
    multi_head_attend,
    shot_anchor_tokens,
)
from vidsum.evaluation import peak_attention_bytes
from vidsum.numerics import (
    MASK,
    DimensionError,
    Tape,
    accumulate,
    matmul,
    softmax_row,
)
from vidsum.segmentation import SegmentationError

from oracles import (
    allowed_keys,
    dense_mask,
    finite_diff_check,
    half_sum_squares,
    read_pgm,
)


# ---------------------------------------------------------------------------
# oracles: per-row key sets, and unfused single-head masked attention


def oracle_allowed_keys(pattern, m):
    """Sorted key indices of query m, built as a Python set per row."""
    if pattern.kind in ("full", "cross"):
        return list(range(pattern.valid_len))
    if pattern.kind == "causal":
        return list(range(m + 1))
    if pattern.kind == "local_global" and m in pattern.global_tokens:
        return list(range(pattern.valid_len))
    keys = set()
    if pattern.kind in ("local", "local_global"):
        hw = pattern.half_window
        keys.update(range(max(0, m - hw), min(pattern.valid_len - 1, m + hw) + 1))
    if pattern.kind in ("global", "local_global"):
        keys.update(pattern.global_tokens)
    if pattern.kind == "global":
        keys.add(m)  # keep every valid query's softmax well defined
    return sorted(keys)


def scaled_scores(q: np.ndarray, k: np.ndarray, pattern, tape=None) -> np.ndarray:
    """Dense score matrix: q.k/sqrt(d_k) on allowed pairs, -inf elsewhere."""
    if q.shape[1] != k.shape[1]:
        raise DimensionError(f"score dims differ: q is {q.shape}, k is {k.shape}")
    allowed = dense_mask(pattern)[: q.shape[0], : k.shape[0]]
    scl = q.dtype.type(1.0 / math.sqrt(q.shape[1]))
    out = np.where(allowed, (q @ k.T) * scl, MASK)
    if tape is not None:
        def backward(g, grads):
            gm = np.where(allowed, g, 0.0)
            accumulate(grads, q, (gm @ k) * scl)
            accumulate(grads, k, (gm.T @ q) * scl)
        tape.record(out, backward)
    return out


@dataclass
class AttentionOutput:
    values: np.ndarray
    weights: np.ndarray


def attend(scores: np.ndarray, v: np.ndarray, tape=None) -> AttentionOutput:
    """Row-softmax the scores and mix the values; weights are kept."""
    if scores.shape[1] != v.shape[0]:
        raise DimensionError(f"attend mismatch: scores {scores.shape}, values {v.shape}")
    w = softmax_row(scores, tape)
    return AttentionOutput(matmul(w, v, tape), w)


def dense_masked_attention(q, k, v, mask, dk=None):
    """Independent oracle: full scores, boolean mask, numpy softmax, mix."""
    dk = dk or q.shape[1]
    s = (q @ k.T) / math.sqrt(dk)
    s = np.where(mask, s, -np.inf)
    out = np.zeros((q.shape[0], v.shape[1]))
    for m in range(q.shape[0]):
        row = s[m]
        if not np.isfinite(row).any():
            continue
        e = np.exp(row - row[np.isfinite(row)].max())
        e[~np.isfinite(row)] = 0.0
        out[m] = (e / e.sum()) @ v
    return out


def random_shots(rng, t):
    n = int(rng.integers(1, min(4, t) + 1))
    if n > 1:
        cuts = sorted(rng.choice(np.arange(1, t), size=n - 1, replace=False).tolist())
    else:
        cuts = []
    pts = [0] + cuts + [t]
    return [(pts[i], pts[i + 1]) for i in range(n)]


# ---------------------------------------------------------------------------
# pattern construction


def test_anchor_tokens_basic():
    assert shot_anchor_tokens([(0, 5)]) == (0, 2, 4)
    assert shot_anchor_tokens([(0, 4)]) == (0, 2, 3)  # middle of [0,4) is 2
    assert shot_anchor_tokens([(0, 4)], globals_per_shot=1) == (0,)
    assert shot_anchor_tokens([(0, 4)], globals_per_shot=2) == (0, 2)
    with pytest.raises(ConfigError):
        shot_anchor_tokens([(0, 4)], globals_per_shot=4)


def test_lga_pattern_small_example():
    p = build_lga_pattern(5, 3, [(0, 5)])
    assert p.global_tokens == (0, 2, 4)
    assert list(allowed_keys(p, 1)) == [0, 1, 2, 4]
    # global queries attend everything valid
    assert list(allowed_keys(p, 2)) == [0, 1, 2, 3, 4]


def test_lga_wide_window_equals_full():
    t = 6
    p = build_lga_pattern(t, 2 * t - 1, [(i, i + 1) for i in range(t)])
    f = build_full_pattern(t)
    for m in range(t):
        assert np.array_equal(allowed_keys(p, m), allowed_keys(f, m))


def test_lga_rejects_bad_shots():
    with pytest.raises(SegmentationError):
        build_lga_pattern(6, 3, [(0, 3), (4, 6)])  # gap
    with pytest.raises(SegmentationError):
        build_lga_pattern(6, 3, [(0, 4), (3, 6)])  # overlap


def test_window_must_be_odd():
    with pytest.raises(ConfigError):
        build_la_pattern(8, 4)
    with pytest.raises(ConfigError):
        build_la_pattern(8, 0)


def test_band_is_symmetric_connectivity():
    p = build_la_pattern(12, 5)
    mask = dense_mask(p)
    assert np.array_equal(mask, mask.T)
    pg = build_lga_pattern(12, 5, [(0, 6), (6, 12)])
    mg = dense_mask(pg)
    assert np.array_equal(mg, mg.T)


def test_every_query_attends_itself_in_band():
    for w in (1, 3, 9):
        p = build_la_pattern(20, w)
        for m in range(20):
            assert m in allowed_keys(p, m)


def test_ga_pattern_keeps_self():
    p = build_ga_pattern(8, [(0, 8)])
    assert p.global_tokens == (0, 4, 7)
    assert list(allowed_keys(p, 2)) == [0, 2, 4, 7]  # anchors plus itself


def test_ga_anchor_rows_see_only_the_anchor_set():
    # GA anchor rows are not dense (unlike LGA anchor rows): every row sees
    # the anchors plus itself, which for an anchor is the anchor set alone
    p = build_ga_pattern(12, [(0, 6), (6, 12)])
    anchors = [0, 3, 5, 6, 9, 11]
    assert list(p.global_tokens) == anchors
    mask = dense_mask(p)
    for m in range(12):
        assert np.flatnonzero(mask[m]).tolist() == sorted(set(anchors) | {m}), m
    lga = dense_mask(build_lga_pattern(12, 3, [(0, 6), (6, 12)]))
    assert lga[anchors].all()


def test_causal_pattern():
    p = build_causal_pattern(4)
    assert list(allowed_keys(p, 0)) == [0]
    assert list(allowed_keys(p, 3)) == [0, 1, 2, 3]
    mask = dense_mask(p)
    assert not mask[np.triu_indices(4, k=1)].any()


def test_cross_pattern():
    p = build_cross_pattern(3, 6)
    for m in range(3):
        assert list(allowed_keys(p, m)) == list(range(6))


def test_kind_aliases():
    assert canonical_kind("lga") == "local_global"
    assert canonical_kind("fa") == "full"
    with pytest.raises(ConfigError):
        canonical_kind("nope")
    p = build_encoder_pattern("la", 8, 8, 3, None)
    assert p.kind == "local"


def test_pattern_fields_are_frozen():
    p = build_lga_pattern(8, 3, [(0, 8)])
    blocked = p.band_blocked
    for field, value in (("valid_len", 4), ("window", 5), ("global_tokens", (1,))):
        with pytest.raises(FrozenInstanceError):
            setattr(p, field, value)
    assert p.band_blocked is blocked and blocked.shape == (3 + 3, 8)


def test_encoder_pattern_rejects_padded_length():
    with pytest.raises(DimensionError):
        build_encoder_pattern("lga", 10, 6, 3, [(0, 6)])


# ---------------------------------------------------------------------------
# scaled_scores


def test_scores_identity_rows():
    eye = np.eye(3)
    s = scaled_scores(eye, eye, build_full_pattern(3))
    expect = np.eye(3) / math.sqrt(3)
    assert np.max(np.abs(s - expect)) < 1e-12


def test_scores_causal_sentinel_positions():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(3, 4))
    s = scaled_scores(q, q, build_causal_pattern(3))
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        assert s[i, j] == MASK
    assert np.isfinite(s[np.tril_indices(3)]).all()


def test_scores_banded_match_dense_mask():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(9, 4))
    k = rng.normal(size=(9, 4))
    p = build_lga_pattern(9, 3, [(0, 5), (5, 9)])
    s = scaled_scores(q, k, p)
    mask = dense_mask(p)
    dense = (q @ k.T) / math.sqrt(4)
    assert np.max(np.abs(s[mask] - dense[mask])) < 1e-12
    assert (s[~mask] == MASK).all()


def test_scores_dim_mismatch_names_shapes():
    with pytest.raises(DimensionError) as exc:
        scaled_scores(np.zeros((3, 4)), np.zeros((3, 5)),
                      build_full_pattern(3))
    assert "(3, 4)" in str(exc.value) and "(3, 5)" in str(exc.value)


# ---------------------------------------------------------------------------
# attend


def test_attend_one_hot_selects_value_row():
    # a huge score on one entry makes the softmax effectively one-hot
    s = np.array([[50.0, 0.0, 0.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = attend(s, v)
    assert np.max(np.abs(out.values - [[1.0, 2.0]])) < 1e-12


def test_attend_uniform_scores_average():
    s = np.zeros((1, 3))
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    out = attend(s, v)
    assert np.allclose(out.values, [[3.0, 4.0]])
    assert np.allclose(out.weights, 1.0 / 3.0)


def test_attend_weights_leave_simplex_on_masked():
    s = np.array([[0.0, MASK, 0.0]])
    v = np.eye(3)
    out = attend(s, v)
    assert out.weights[0, 1] == 0.0
    assert abs(out.weights.sum() - 1.0) < 1e-12


def test_attend_matches_dense_oracle():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(7, 5))
    k = rng.normal(size=(7, 5))
    v = rng.normal(size=(7, 3))
    p = build_lga_pattern(7, 3, [(0, 7)])
    out = attend(scaled_scores(q, k, p), v)
    want = dense_masked_attention(q, k, v, dense_mask(p))
    assert np.max(np.abs(out.values - want)) < 1e-12


# ---------------------------------------------------------------------------
# multi_head


def _mh_params(rng, d, dtype=np.float64):
    mk = lambda: rng.normal(size=(d, d)).astype(dtype) * 0.3
    return mk(), mk(), mk(), mk()


def test_multi_head_shapes_default_geometry():
    rng = np.random.default_rng(3)
    d, h, t = 64, 8, 10
    x = rng.normal(size=(t, d))
    wq, wk, wv, wo = _mh_params(rng, d)
    p = build_full_pattern(t)
    out = multi_head(x, x, x, p, wq, wk, wv, wo, h)
    assert out.shape == (t, d)


def test_multi_head_rejects_bad_head_count():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(4, 6))
    wq, wk, wv, wo = _mh_params(rng, 6)
    with pytest.raises(ConfigError):
        multi_head(x, x, x, build_full_pattern(4), wq, wk, wv, wo, h=4)


def test_single_head_degenerates_to_attend():
    rng = np.random.default_rng(5)
    d, t = 6, 8
    x = rng.normal(size=(t, d))
    wq, wk, wv, wo = _mh_params(rng, d)
    p = build_full_pattern(t)
    got = multi_head(x, x, x, p, wq, wk, wv, wo, h=1)
    q = x @ wq
    k = x @ wk
    v = x @ wv
    want = attend(scaled_scores(q, k, p), v).values @ wo
    assert np.max(np.abs(got - want)) < 1e-12


def test_multi_head_vs_per_head_composition_oracle():
    # concat h independent single-head results, then project: must agree
    rng = np.random.default_rng(6)
    d, h, t = 16, 4, 12
    dk = d // h
    x = rng.normal(size=(t, d))
    wq, wk, wv, wo = (rng.normal(size=(d, d)) * 0.4 for _ in range(4))
    shots = [(0, 5), (5, 12)]
    p = build_lga_pattern(t, 5, shots)
    got = multi_head(x, x, x, p, wq, wk, wv, wo, h)
    heads = []
    mask = dense_mask(p)
    for j in range(h):
        sl = slice(j * dk, (j + 1) * dk)
        heads.append(dense_masked_attention(x @ wq[:, sl], x @ wk[:, sl], x @ wv[:, sl], mask, dk))
    want = np.concatenate(heads, axis=1) @ wo
    assert np.max(np.abs(got - want)) < 1e-10


def test_sparse_path_equals_dense_path_randomized():
    rng = np.random.default_rng(7)
    for trial in range(20):
        t = int(rng.integers(4, 40))
        d, h = 8, 2
        w = int(rng.choice([1, 3, 5, 9]))
        shots = random_shots(rng, t)
        x = rng.normal(size=(t, d)).astype(np.float32)
        p = build_lga_pattern(t, w, shots)
        sparse = multi_head_attend(x, x, x, p, h)
        dense = np.zeros_like(sparse)
        mask = dense_mask(p)
        dk = d // h
        for j in range(h):
            sl = slice(j * dk, (j + 1) * dk)
            dense[:, sl] = dense_masked_attention(
                x[:, sl].astype(np.float64), x[:, sl].astype(np.float64),
                x[:, sl].astype(np.float64), mask, dk)
        assert np.max(np.abs(sparse - dense)) < 1e-6, trial


@pytest.mark.parametrize("kind", ["local_global", "full", "causal", "cross"])
def test_multi_head_attend_rejects_padded_rows(kind):
    rng = np.random.default_rng(8)
    valid, d, h = 7, 8, 2
    if kind == "cross":
        p = build_cross_pattern(3, valid)
    elif kind == "causal":
        p = build_causal_pattern(valid)
    else:
        p = build_encoder_pattern(kind, valid, valid, 3, [(0, valid)])
    q = rng.normal(size=(p.valid_queries, d))
    kv = rng.normal(size=(valid, d))
    padded_q = np.vstack([q, np.zeros((2, d))])
    padded_kv = np.vstack([kv, np.zeros((2, d))])
    assert multi_head_attend(q, kv, kv, p, h).shape == (p.valid_queries, d)
    for args in ((padded_q, kv, kv), (q, padded_kv, padded_kv),
                 (q, padded_kv, kv), (q, kv, padded_kv)):
        with pytest.raises(DimensionError):
            multi_head_attend(*args, p, h)


def test_causal_output_bitwise_independent_of_future():
    rng = np.random.default_rng(10)
    t, d, h = 10, 8, 2
    p = build_causal_pattern(t)
    base = rng.normal(size=(t, d)).astype(np.float32)
    for trial in range(20):
        t0 = int(rng.integers(0, t - 1))
        pert = base.copy()
        tail = slice(t0 + 1, t)
        pert[tail] += rng.normal(size=(t - t0 - 1, d)).astype(np.float32)
        a = multi_head_attend(base, base, base, p, h)
        b = multi_head_attend(pert, pert, pert, p, h)
        assert np.array_equal(a[: t0 + 1], b[: t0 + 1]), trial


def test_cross_attention_rows_normalize():
    rng = np.random.default_rng(11)
    lq, t, d, h = 4, 9, 8, 2
    s = rng.normal(size=(lq, d))
    y = rng.normal(size=(t, d))
    p = build_cross_pattern(lq, t)
    maps = {}
    multi_head_attend(s, y, y, p, h, maps=maps)
    (w,) = maps["cross"]
    assert w.shape == (h, lq, t)
    assert np.max(np.abs(w.sum(axis=2) - 1.0)) < 1e-6


# ---------------------------------------------------------------------------
# gradients through attention


def test_multi_head_gradcheck_sparse_and_dense():
    rng = np.random.default_rng(12)
    t, d, h = 7, 8, 2
    shots = [(0, 4), (4, 7)]
    patterns = {
        "sparse": build_lga_pattern(t, 3, shots),
        "dense": build_full_pattern(t),
        "causal": build_causal_pattern(t),
    }
    for name, p in patterns.items():
        params = {"x": rng.normal(size=(t, d))}
        for nm in ("wq", "wk", "wv", "wo"):
            params[nm] = rng.normal(size=(d, d)) * 0.5

        def loss(params, tape, p=p):
            out = multi_head(params["x"], params["x"], params["x"], p,
                             params["wq"], params["wk"], params["wv"], params["wo"],
                             h, tape)
            return half_sum_squares(out, tape)

        report = finite_diff_check(loss, params, step=1e-6, tolerance=1e-5, n_samples=150)
        assert report.passed, f"{name}: {report.summary()}"


def test_scaled_scores_and_attend_gradcheck():
    rng = np.random.default_rng(13)
    t, d = 6, 4
    p = build_lga_pattern(t, 3, [(0, 6)])
    params = {name: rng.normal(size=(t, d)) for name in ("q", "k", "v")}

    def loss(params, tape):
        s = scaled_scores(params["q"], params["k"], p, tape)
        out = attend(s, params["v"], tape)
        return half_sum_squares(out.values, tape)

    report = finite_diff_check(loss, params, step=1e-6, tolerance=1e-6, n_samples=120)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# work accounting


def test_full_pattern_flop_count():
    p = build_full_pattern(4)
    assert count_score_entries(p) == 16
    assert p.n_allowed_pairs() * 2 == 32


def test_banded_entry_bound():
    p = build_la_pattern(100, 9)
    assert count_score_entries(p) <= 100 * 9


def test_causal_entry_count():
    p = build_causal_pattern(5)
    assert count_score_entries(p) == 15  # 1+2+3+4+5


def test_lga_flops_grow_linearly_with_fixed_shot_count():
    # fixed number of shots, so the anchor set does not grow with length
    counts = {}
    for t in (192, 384, 768, 1536):
        step = t // 8
        shots = [(i * step, (i + 1) * step) for i in range(8)]
        p = build_lga_pattern(t, 17, shots)
        counts[t] = p.n_allowed_pairs() * 8
    for t in (192, 384, 768):
        ratio = counts[2 * t] / counts[t]
        assert 1.7 <= ratio <= 2.3, (t, ratio)


def test_full_flops_grow_quadratically():
    c1 = build_full_pattern(192).n_allowed_pairs() * 8
    c2 = build_full_pattern(384).n_allowed_pairs() * 8
    assert abs(c2 / c1 - 4.0) < 1e-9


def test_pattern_counts_deterministic():
    shots = [(0, 40), (40, 96)]
    a = build_lga_pattern(96, 9, shots).n_allowed_pairs() * 8
    b = build_lga_pattern(96, 9, shots).n_allowed_pairs() * 8
    assert a == b


# ---------------------------------------------------------------------------
# buffer tracking and export


def test_sparse_buffers_below_dense_at_scale():
    rng = np.random.default_rng(14)
    t, d, h = 512, 64, 8
    x = rng.normal(size=(t, d)).astype(np.float32)
    step = t // 8
    shots = [(i * step, (i + 1) * step) for i in range(8)]
    dense_peak = peak_attention_bytes(x, build_full_pattern(t), h)
    sparse_peak = peak_attention_bytes(x, build_lga_pattern(t, 17, shots), h)
    assert 0 < sparse_peak < dense_peak


def test_export_csv_support_matches_pattern(tmp_path):
    rng = np.random.default_rng(15)
    t, d, h = 11, 8, 2
    shots = [(0, 5), (5, 11)]
    p = build_lga_pattern(t, 3, shots)
    x = rng.normal(size=(t, d))
    maps = {}
    multi_head_attend(x, x, x, p, h, maps=maps)
    path = tmp_path / "w.csv"
    export_weights_csv(path, maps["local_global"][0][0])
    with open(path) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["query", "key", "weight"]
        support = {(int(r["query"]), int(r["key"])) for r in reader}
    mask = dense_mask(p)
    want = {(i, j) for i, j in zip(*np.nonzero(mask))}
    assert support == want


def test_export_pgm_round_trip(tmp_path):
    w = np.array([[0.0, 0.5], [1.0, 0.25]])
    path = tmp_path / "w.pgm"
    export_weights_pgm(path, w)
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img[1, 0] == 255
    assert img[0, 0] == 0
    assert img[0, 1] == 128  # rint(127.5) rounds to even


def test_export_pgm_all_zero(tmp_path):
    path = tmp_path / "z.pgm"
    export_weights_pgm(path, np.zeros((3, 4)))
    assert np.array_equal(read_pgm(path), np.zeros((3, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# pattern accounting and the all-heads kernel against the oracles


@st.composite
def patterns(draw, max_t=64):
    """Any of the six kinds; windows up to past T; tilings whose anchors
    include row 0 and, with three globals per shot, row T - 1."""
    kind = draw(st.sampled_from(PATTERN_KINDS))
    valid = draw(st.integers(1, max_t))
    if kind == "causal":
        return build_causal_pattern(valid)
    if kind == "cross":
        return build_cross_pattern(draw(st.integers(1, 6)), valid)
    cuts = draw(st.sets(st.integers(1, valid - 1), max_size=6)) if valid > 1 else set()
    pts = [0] + sorted(cuts) + [valid]
    shots = list(zip(pts[:-1], pts[1:]))
    window = 2 * draw(st.integers(0, max_t)) + 1
    return build_encoder_pattern(kind, valid, valid, window, shots,
                                 draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(patterns())
def test_pattern_accounting_matches_per_row_oracle(p):
    want = np.zeros((p.valid_queries, p.valid_len), dtype=bool)
    for m in range(p.valid_queries):
        keys = oracle_allowed_keys(p, m)
        want[m, keys] = True
        assert allowed_keys(p, m).tolist() == keys, m
    assert np.array_equal(dense_mask(p), want)
    assert count_score_entries(p) == p.n_allowed_pairs() == int(want.sum())


def _vjp(tape, out, g):
    """Tape gradients of sum(out * g)."""
    loss = np.array([[np.sum(out * g)]], dtype=out.dtype)
    tape.record(loss, lambda gl, grads: accumulate(grads, out, gl[0, 0] * g))
    return tape.backward(loss)


def oracle_multi_head(q, k, v, pattern, h, g):
    """Per-head scaled_scores + attend over the valid prefix: the output,
    the (dq, dk, dv) of sum(out * g), and each head's softmax weights."""
    nq, nk = pattern.valid_queries, pattern.valid_len
    dk = q.shape[1] // h
    out = np.zeros_like(q)
    grads = [np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)]
    weights = []
    for j in range(h):
        sl = slice(j * dk, (j + 1) * dk)
        mats = q[:nq, sl], k[:nk, sl], v[:nk, sl]
        tape = Tape()
        res = attend(scaled_scores(mats[0], mats[1], pattern, tape), mats[2], tape)
        got = _vjp(tape, res.values, g[:nq, sl])
        out[:nq, sl] = res.values
        for full, mat in zip(grads, mats):
            full[: mat.shape[0], sl] = got[id(mat)]
        weights.append(res.weights)
    return out, grads, weights


def _random_qkvg(rng, pattern, d):
    q = rng.normal(size=(pattern.valid_queries, d))
    k, v = rng.normal(size=(2, pattern.valid_len, d))
    g = rng.normal(size=(pattern.valid_queries, d))
    return q, k, v, g


@settings(max_examples=200, deadline=None)
@given(patterns(max_t=40), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([np.float32, np.float64]), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_kernel_matches_dense_oracle(p, h, dtype, dk, seed):
    # The float32 VJP is held to 4e-6 of its largest entry, not 1e-6: the
    # softmax VJP w * (dw - sum(dw * w)) cancels, and on 20,000 random
    # cases float32 gradients of the dense kernel and of the band kernel
    # alike reached 1.3e-6 of that scale against the float64 oracle.
    q, k, v, g = (x.astype(dtype) for x in
                  _random_qkvg(np.random.default_rng(seed), p, h * dk))
    tol = 1e-6 if dtype == np.float32 else 1e-10
    grad_tol = 4e-6 if dtype == np.float32 else 1e-10
    mats = q, k, v
    tape = Tape()
    out = multi_head_attend(*mats, p, h, tape)
    got = _vjp(tape, out, g)
    want_out, want_grads, _ = oracle_multi_head(
        *(x.astype(np.float64) for x in (q, k, v)), p, h, g.astype(np.float64))
    assert out.dtype == dtype
    assert np.abs(out - want_out).max() <= tol
    for mat, want in zip(mats, want_grads):
        assert got[id(mat)].dtype == dtype
        assert np.abs(got[id(mat)] - want).max() <= grad_tol * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("kind", PATTERN_KINDS)
def test_weights_sink_maps_equal_oracle_weights(kind):
    rng = np.random.default_rng(16)
    valid, d, h = 23, 8, 4
    shots = [(0, 5), (5, 6), (6, 17), (17, 23)]
    if kind == "causal":
        p = build_causal_pattern(valid)
    elif kind == "cross":
        p = build_cross_pattern(7, valid)
    else:
        p = build_encoder_pattern(kind, valid, valid, 5, shots)
    q, k, v, g = _random_qkvg(rng, p, d)
    maps = {}
    multi_head_attend(q, k, v, p, h, maps=maps)
    _, _, weights = oracle_multi_head(q, k, v, p, h, g)
    assert list(maps) == [kind] and len(maps[kind]) == 1
    (got,) = maps[kind]
    assert got.shape == (h, p.valid_queries, p.valid_len)
    for j in range(h):
        assert np.abs(got[j] - weights[j]).max() < 1e-12
        assert np.array_equal(got[j] != 0, dense_mask(p))


def test_buffer_memory_linear_for_lga_quadratic_for_full():
    # a fixed shot count keeps the anchor set the same size at every length
    rng = np.random.default_rng(17)
    d, h = 64, 8
    peaks = {"local_global": [], "full": []}
    for t in (192, 384, 768, 1536):
        x = rng.normal(size=(t, d)).astype(np.float32)
        step = t // 8
        shots = [(i * step, (i + 1) * step) for i in range(8)]
        for kind, series in peaks.items():
            pattern = build_encoder_pattern(kind, t, t, 17, shots)
            series.append(peak_attention_bytes(x, pattern, h))
    for a, b in zip(peaks["local_global"], peaks["local_global"][1:]):
        assert b / a <= 2.3, peaks
    for a, b in zip(peaks["full"], peaks["full"][1:]):
        assert b / a >= 3.4, peaks
