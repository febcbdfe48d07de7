import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsum.attention import build_encoder_pattern, multi_head_attend
from vidsum.numerics import (
    MASK,
    DegenerateRowError,
    DimensionError,
    FFN_ROWS,
    Tape,
    add,
    concat_rows,
    col_slice,
    ffn,
    layer_norm,
    linear,
    matmul,
    row_blocks,
    softmax_row,
    xavier_uniform,
)
from vidsum.training import bce_loss

from oracles import (
    ffn_unchunked,
    finite_diff_check,
    half_sum_squares,
    layer_norm_by_methods,
    layer_norm_keeping_xhat,
    relu,
)


# ---------------------------------------------------------------------------
# independent oracles


def matmul_oracle(a, b):
    # plain triple loop, no numpy matmul
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def softmax_oracle(x):
    # direct exp/sum per row in float64 (finite entries only)
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i].astype(np.float64)
        m = max(v for v in row if np.isfinite(v))
        e = [math.exp(v - m) if np.isfinite(v) else 0.0 for v in row]
        z = sum(e)
        out[i] = [v / z for v in e]
    return out


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    eye = np.eye(2)
    out = matmul(a, eye)
    assert np.array_equal(out, a)


def test_matmul_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    assert np.array_equal(out, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_vs_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        got = matmul(a, b)
        want = matmul_oracle(a, b)
        assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError) as exc:
        matmul(np.zeros((2, 3)), np.zeros((4, 2)))
    assert "2x3" in str(exc.value) and "4x2" in str(exc.value)


# ---------------------------------------------------------------------------
# softmax_row


def test_softmax_constant_row_uniform():
    out = softmax_row(np.array([[2.0, 2.0, 2.0, 2.0]]))
    assert np.allclose(out, 0.25)
    assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_masked_entries_exact_zero():
    out = softmax_row(np.array([[0.0, MASK, 0.0]]))
    assert out[0, 1] == 0.0
    assert np.allclose(out[0, [0, 2]], 0.5)


def test_softmax_fully_masked_row_raises():
    with pytest.raises(DegenerateRowError):
        softmax_row(np.array([[MASK, MASK]]))


def test_softmax_vs_exp_sum_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 7)) * 3.0
    x[1, 2] = MASK
    x[3, 0] = MASK
    got = softmax_row(x)
    want = softmax_oracle(x)
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    a = softmax_row(x)
    b = softmax_row(x + 100.0)
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_rejects_posinf_and_nan():
    with pytest.raises(FloatingPointError):
        softmax_row(np.array([[1.0, float("inf")]]))
    with pytest.raises(FloatingPointError):
        softmax_row(np.array([[1.0, float("nan")]]))


# ---------------------------------------------------------------------------
# layer_norm


def _unit_affine(cols, dtype=np.float64):
    return np.ones((1, cols), dtype=dtype), np.zeros((1, cols), dtype=dtype)


def test_layer_norm_constant_row_zero():
    g, b = _unit_affine(4)
    out = layer_norm(np.array([[3.0, 3.0, 3.0, 3.0]]), g, b)
    assert np.array_equal(out, np.zeros((1, 4)))


def test_layer_norm_two_point_row():
    g, b = _unit_affine(2)
    out = layer_norm(np.array([[1.0, -1.0]]), g, b)
    assert np.allclose(out, [[1.0, -1.0]], atol=1e-7)


def test_layer_norm_row_stats_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 8)) * 2.0 + 1.0
    g, b = _unit_affine(8)
    out = layer_norm(x, g, b)
    for i in range(3):
        assert abs(out[i].mean()) < 1e-7
        assert abs(out[i].var() - 1.0) < 1e-6


def test_layer_norm_affine_applies():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5))
    gain = rng.normal(size=(1, 5))
    bias = rng.normal(size=(1, 5))
    base = layer_norm(x, *_unit_affine(5))
    out = layer_norm(x, gain, bias)
    assert np.max(np.abs(out - (base * gain + bias))) < 1e-12


# ---------------------------------------------------------------------------
# the small ops


def test_relu_sign_split_and_oracle():
    x = np.array([[-2.0, 0.0, 3.5], [1.0, -0.5, 0.0]])
    out = relu(x)
    want = np.where(x > 0, x, 0.0)
    assert np.array_equal(out, want)


def test_add_zero_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3))
    out = add(x, np.zeros((3, 3)))
    assert np.array_equal(out, x)


def test_linear_zero_weight_broadcasts_bias():
    x = np.random.default_rng(6).normal(size=(4, 3))
    w = np.zeros((3, 2))
    b = np.array([[1.5, -2.0]])
    out = linear(x, w, b)
    assert np.array_equal(out, np.tile([[1.5, -2.0]], (4, 1)))


def test_linear_vs_oracle():
    rng = np.random.default_rng(7)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
    got = linear(x, w, b)
    want = matmul_oracle(x, w) + b
    assert np.max(np.abs(got - want)) < 1e-12


def test_concat_rows_round_trip():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    out = concat_rows([a, b])
    assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_col_slice():
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert np.array_equal(col_slice(x, 0, 2), x[:, :2])
    assert np.array_equal(col_slice(x, 1, 4), x[:, 1:])
    with pytest.raises(DimensionError):
        col_slice(x, 2, 5)


@settings(max_examples=60, deadline=None, database=None)
@given(rows=st.integers(1, 64), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**16))
def test_ffn_matches_linear_relu_linear_bitwise(rows, dtype, seed):
    rng = np.random.default_rng(seed)
    d, d_ff = 6, 9
    x, w1, b1, w2, b2 = (rng.normal(size=shape).astype(dtype) for shape in
                         ((rows, d), (d, d_ff), (1, d_ff), (d_ff, d), (1, d)))
    w1[:, 0] = 0.0  # column 0: pre-activation exactly zero on every row
    b1[0, 0] = 0.0
    b1[0, 1] = -50.0  # column 1: negative on every row
    x[rows // 2] = 0.0  # this row's pre-activations are b1: zero or signed
    params = (x, w1, b1, w2, b2)

    def run(fn):
        tape = Tape()
        out = fn(tape)
        by_id = tape.backward(half_sum_squares(out, tape))
        return [out] + [by_id[id(a)] for a in params]

    got = run(lambda t: ffn(x, w1, b1, w2, b2, t))
    want = run(lambda t: linear(relu(linear(x, w1, b1, t), t), w2, b2, t))
    for name, a, b in zip(("out", "x", "w1", "b1", "w2", "b2"), got, want):
        assert a.dtype == b.dtype == dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _ffn_operands(n, dtype, seed, d=64, d_ff=2048):
    rng = np.random.default_rng(seed)
    return tuple(rng.normal(size=shape).astype(dtype) for shape in
                 ((n, d), (d, d_ff), (1, d_ff), (d_ff, d), (1, d)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 127, 128, 129, 255, 256, 257, 511, 512,
                               513, 768])
def test_ffn_forward_equals_the_unchunked_oracle_bitwise(n, dtype):
    ops = _ffn_operands(n, dtype, n)
    ops[0][n // 2] = 0.0  # pre-activations equal to b1
    want = ffn_unchunked(*ops)
    for tape in (None, Tape()):
        got = ffn(*ops, tape=tape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_ffn_non_finite_pre_activation_in_a_later_chunk_raises():
    n = 3 * FFN_ROWS
    x, w1, b1, w2, b2 = _ffn_operands(n, np.float32, 1)
    x[n - 1, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match="non-finite ffn pre-activation"):
        ffn(x, w1, b1, w2, b2)


def test_ffn_forward_peak_is_the_output_and_two_chunks():
    n, d, d_ff = 1536, 64, 2048
    ops = _ffn_operands(n, np.float32, 2, d, d_ff)
    tracemalloc.start()
    try:
        ffn(*ops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (n * d + 2 * FFN_ROWS * d_ff) * 4, peak


@pytest.mark.parametrize("n", [0, 1, 5, 127, 128, 129, 255, 256, 300, 1536])
def test_row_blocks_tile_the_rows_with_no_short_block(n):
    size = 128
    blocks = row_blocks(n, size)
    stops = [0] + [b for _, b in blocks]
    assert [a for a, _ in blocks] == stops[:-1] and stops[-1] == n
    assert (all(size <= b - a < 2 * size for a, b in blocks)
            or blocks == [(0, n)]), blocks


def _weighted_sum(a, w, tape):
    """sum(a * w) as a 1x1 array, so backward sends w into ``a``."""
    out = np.array([[float((a * w).sum())]], dtype=a.dtype)

    def backward(g, grads):
        grads[id(a)] = g[0, 0] * w
    tape.record(out, backward)
    return out


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 1000),
       dtype=st.sampled_from([np.float32, np.float64]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_layer_norm_bitwise_equals_method_form(rows, cols, dtype, scale, seed):
    # also against the record that keeps x-hat, which backward recomputes
    rng = np.random.default_rng(seed)
    a = (rng.normal(size=(rows, cols)) * scale + scale).astype(dtype)
    gain = rng.normal(size=(1, cols)).astype(dtype)
    bias = rng.normal(size=(1, cols)).astype(dtype)
    w = rng.normal(size=(rows, cols)).astype(dtype)
    results = []
    for op in (layer_norm, layer_norm_by_methods, layer_norm_keeping_xhat):
        tape = Tape()
        out = op(a, gain, bias, 1e-8, tape)
        grads = tape.backward(_weighted_sum(out, w, tape))
        results.append([out] + [grads[id(m)] for m in (a, gain, bias)])
    for oracle in results[1:]:
        for got, want in zip(results[0], oracle):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_layer_norm_record_keeps_no_xhat():
    # what stays allocated after a recorded call: the output and the two
    # (rows, 1) statistics, not a (rows, cols) x-hat
    rng = np.random.default_rng(12)
    a = rng.normal(size=(512, 64))
    gain, bias = rng.normal(size=(2, 1, 64))
    tape = Tape()
    tracemalloc.start()
    try:
        out = layer_norm(a, gain, bias, tape=tape)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= out.nbytes + 2 * 512 * 8 + 8192, (held, out.nbytes)


# ---------------------------------------------------------------------------
# tape


def test_tape_backward_requires_scalar():
    t = Tape()
    x = np.ones((2, 2))
    y = matmul(x, x, t)
    with pytest.raises(DimensionError):
        t.backward(y)


def _toy_loss(params, tape):
    x = params["x"]
    w = params["w"]
    h = relu(matmul(x, w, tape), tape)
    g, b = params["g"], params["b"]
    h = layer_norm(h, g, b, 1e-8, tape)
    h = softmax_row(h, tape)
    return half_sum_squares(h, tape)


def _toy_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 4)),
            "g": rng.normal(size=(1, 4)) + 1.0, "b": rng.normal(size=(1, 4))}


def test_backward_bitwise_deterministic():
    params = _toy_params()
    grads = []
    for _ in range(2):
        tape = Tape()
        by_id = tape.backward(_toy_loss(params, tape))
        grads.append({n: by_id[id(m)] for n, m in params.items()})
    for n in grads[0]:
        assert np.array_equal(grads[0][n], grads[1][n])


def test_gradients_flow_to_all_params():
    params = _toy_params()
    tape = Tape()
    by_id = tape.backward(_toy_loss(params, tape))
    for n, m in params.items():
        assert np.any(by_id[id(m)] != 0), n


# The tape keys gradients by id(array): an op that handed back one of its
# inputs would send its output's gradient to that input.
FRESH_OPS = {
    "matmul": lambda x, g, b, t: matmul(x, x, t),
    "add": lambda x, g, b, t: add(x, x, t),
    "relu": lambda x, g, b, t: relu(x, t),
    "linear": lambda x, g, b, t: linear(x, x, b, t),
    "concat_rows_one": lambda x, g, b, t: concat_rows([x], t),
    "col_slice_full_width": lambda x, g, b, t: col_slice(x, 0, x.shape[1], t),
    "softmax_row": lambda x, g, b, t: softmax_row(x, t),
    "layer_norm": lambda x, g, b, t: layer_norm(x, g, b, 1e-8, t),
    "multi_head_attend": lambda x, g, b, t: multi_head_attend(
        x, x, x, build_encoder_pattern("fa", x.shape[0], x.shape[0], 1, None), 2, t),
    "bce_loss": lambda x, g, b, t: bce_loss(x, x, x.shape[1], t),
    "ffn": lambda x, g, b, t: ffn(x, x, b, x, b, t),
}


@pytest.mark.parametrize("name", sorted(FRESH_OPS))
def test_op_returns_a_new_array(name):
    x = np.random.default_rng(12).uniform(0.1, 0.9, size=(4, 4))
    gain, bias = np.ones((1, 4)), np.zeros((1, 4))
    tape = Tape()
    out = FRESH_OPS[name](x, gain, bias, tape)
    assert all(out is not a for a in (x, gain, bias))
    assert len(tape) == 1


@pytest.mark.parametrize("op", [add, matmul])
def test_array_used_twice_gets_the_gradient_of_both_uses(op):
    x = np.random.default_rng(13).normal(size=(3, 3))
    tape = Tape()
    out = op(x, x, tape)
    got = tape.backward(half_sum_squares(out, tape))[id(x)]
    # d(0.5 |out|^2)/d(out) is out; each use of x adds its share in turn
    want = out + out if op is add else out @ x.T + x.T @ out
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_quadratic_tight():
    params = {"w": np.random.default_rng(9).normal(size=(5, 5))}

    def loss(params, tape):
        return half_sum_squares(params["w"], tape)

    report = finite_diff_check(loss, params, step=1e-5, tolerance=1e-9)
    assert report.passed, report.summary()
    assert report.n_checked == 25


def test_finite_diff_each_op():
    # every recorded op, composed with a quadratic head, at 1e-6 relative
    rng = np.random.default_rng(10)

    cases = {}

    def case(name):
        def deco(fn):
            cases[name] = fn
            return fn
        return deco

    @case("matmul")
    def lf_matmul(p, t):
        return half_sum_squares(matmul(p["a"], p["b"], t), t)

    @case("add")
    def lf_add(p, t):
        return half_sum_squares(add(p["a"], p["a2"], t), t)

    @case("relu")
    def lf_relu(p, t):
        return half_sum_squares(relu(p["a"], t), t)

    @case("linear")
    def lf_linear(p, t):
        return half_sum_squares(linear(p["a"], p["b"], p["bias_b"], t), t)

    @case("softmax")
    def lf_softmax(p, t):
        return half_sum_squares(softmax_row(p["a"], t), t)

    @case("layer_norm")
    def lf_ln(p, t):
        return half_sum_squares(layer_norm(p["a"], p["gain"], p["bias"], 1e-8, t), t)

    @case("concat_rows")
    def lf_cr(p, t):
        return half_sum_squares(concat_rows([p["a"], p["a2"]], t), t)

    @case("col_slice")
    def lf_sl(p, t):
        return half_sum_squares(col_slice(p["a"], 1, 4, t), t)

    for name, fn in cases.items():
        params = {"a": rng.normal(size=(4, 4)), "a2": rng.normal(size=(4, 4)),
                  "b": rng.normal(size=(4, 4)),
                  "bias_b": rng.normal(size=(1, 4)),
                  "gain": rng.normal(size=(1, 4)) + 1.5,
                  "bias": rng.normal(size=(1, 4))}
        report = finite_diff_check(fn, params, step=1e-6, tolerance=1e-6,
                                   n_samples=120)
        assert report.passed, f"{name}: {report.summary()}"


def test_finite_diff_flags_corrupted_gradient():
    params = {"w": np.random.default_rng(11).normal(size=(3, 3))}

    def bad_loss(params, tape):
        w = params["w"]
        out = w * w
        if tape is not None:
            def backward(g, grads):
                from vidsum.numerics import accumulate
                accumulate(grads, w, g * (2.0 * w) + 0.1)  # deliberate corruption
            tape.record(out, backward)
        val = np.array([[out.sum()]])
        if tape is not None:
            def backward2(g, grads):
                from vidsum.numerics import accumulate
                accumulate(grads, out, g[0, 0] * np.ones_like(out))
            tape.record(val, backward2)
        return val

    report = finite_diff_check(bad_loss, params, step=1e-5, tolerance=1e-4)
    assert not report.passed
    assert report.worst[0].rel_error > 1e-2


def test_finite_diff_requires_float64():
    params = {"w": np.ones((2, 2), dtype=np.float32)}
    with pytest.raises(DimensionError):
        finite_diff_check(lambda p, t: half_sum_squares(p["w"], t), params)


# ---------------------------------------------------------------------------
# xavier init


def test_xavier_uniform_bounds_and_determinism():
    a = xavier_uniform(40, 60, np.random.default_rng(42))
    b = xavier_uniform(40, 60, np.random.default_rng(42))
    limit = math.sqrt(6.0 / 100.0)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= limit
    # should actually use the range, not collapse near zero
    assert np.max(np.abs(a)) > 0.5 * limit
