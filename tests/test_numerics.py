import math

import numpy as np
import pytest

from vidsum.numerics import (
    MASK,
    DegenerateRowError,
    DimensionError,
    Matrix,
    ParameterStore,
    Tape,
    add,
    concat_rows,
    col_slice,
    layer_norm,
    linear,
    matmul,
    relu,
    softmax_row,
    xavier_uniform,
)

from oracles import finite_diff_check, half_sum_squares


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
# Matrix basics


def test_matrix_shape_and_dtype():
    m = Matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.dtype == np.float64
    f = Matrix(np.ones((2, 3), dtype=np.float32))
    assert f.dtype == np.float32


def test_matrix_rejects_3d():
    with pytest.raises(DimensionError):
        Matrix(np.zeros((2, 2, 2)))


def test_matrix_constructor_copies():
    src = np.ones((2, 2))
    m = Matrix(src)
    src[0, 0] = 7.0
    assert m.data[0, 0] == 1.0


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    eye = Matrix(np.eye(2))
    out = matmul(a, eye)
    assert np.array_equal(out.data, a.data)


def test_matmul_hand_example():
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    b = Matrix([[5.0, 6.0], [7.0, 8.0]])
    out = matmul(a, b)
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_vs_triple_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        got = matmul(Matrix(a), Matrix(b)).data
        want = matmul_oracle(a, b)
        assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError) as exc:
        matmul(Matrix(np.zeros((2, 3))), Matrix(np.zeros((4, 2))))
    assert "2x3" in str(exc.value) and "4x2" in str(exc.value)


# ---------------------------------------------------------------------------
# softmax_row


def test_softmax_constant_row_uniform():
    out = softmax_row(Matrix([[2.0, 2.0, 2.0, 2.0]]))
    assert np.allclose(out.data, 0.25)
    assert abs(out.data.sum() - 1.0) < 1e-12


def test_softmax_masked_entries_exact_zero():
    out = softmax_row(Matrix([[0.0, MASK, 0.0]]))
    assert out.data[0, 1] == 0.0
    assert np.allclose(out.data[0, [0, 2]], 0.5)


def test_softmax_fully_masked_row_raises():
    with pytest.raises(DegenerateRowError):
        softmax_row(Matrix([[MASK, MASK]]))


def test_softmax_vs_exp_sum_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 7)) * 3.0
    x[1, 2] = MASK
    x[3, 0] = MASK
    got = softmax_row(Matrix(x)).data
    want = softmax_oracle(x)
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 5))
    a = softmax_row(Matrix(x)).data
    b = softmax_row(Matrix(x + 100.0)).data
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_rejects_posinf_and_nan():
    with pytest.raises(FloatingPointError):
        softmax_row(Matrix([[1.0, float("inf")]]))
    with pytest.raises(FloatingPointError):
        softmax_row(Matrix([[1.0, float("nan")]]))


# ---------------------------------------------------------------------------
# layer_norm


def _unit_affine(cols, dtype=np.float64):
    return Matrix(np.ones((1, cols), dtype=dtype)), Matrix(np.zeros((1, cols), dtype=dtype))


def test_layer_norm_constant_row_zero():
    g, b = _unit_affine(4)
    out = layer_norm(Matrix([[3.0, 3.0, 3.0, 3.0]]), g, b)
    assert np.array_equal(out.data, np.zeros((1, 4)))


def test_layer_norm_two_point_row():
    g, b = _unit_affine(2)
    out = layer_norm(Matrix([[1.0, -1.0]]), g, b)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-7)


def test_layer_norm_row_stats_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 8)) * 2.0 + 1.0
    g, b = _unit_affine(8)
    out = layer_norm(Matrix(x), g, b).data
    for i in range(3):
        assert abs(out[i].mean()) < 1e-7
        assert abs(out[i].var() - 1.0) < 1e-6


def test_layer_norm_affine_applies():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(2, 5))
    gain = Matrix(rng.normal(size=(1, 5)))
    bias = Matrix(rng.normal(size=(1, 5)))
    base = layer_norm(Matrix(x), *_unit_affine(5)).data
    out = layer_norm(Matrix(x), gain, bias).data
    assert np.max(np.abs(out - (base * gain.data + bias.data))) < 1e-12


# ---------------------------------------------------------------------------
# the small ops


def test_relu_sign_split_and_oracle():
    x = np.array([[-2.0, 0.0, 3.5], [1.0, -0.5, 0.0]])
    out = relu(Matrix(x)).data
    want = np.where(x > 0, x, 0.0)
    assert np.array_equal(out, want)


def test_add_zero_identity():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 3))
    out = add(Matrix(x), Matrix(np.zeros((3, 3))))
    assert np.array_equal(out.data, x)


def test_linear_zero_weight_broadcasts_bias():
    x = Matrix(np.random.default_rng(6).normal(size=(4, 3)))
    w = Matrix(np.zeros((3, 2)))
    b = Matrix([[1.5, -2.0]])
    out = linear(x, w, b).data
    assert np.array_equal(out, np.tile([[1.5, -2.0]], (4, 1)))


def test_linear_vs_oracle():
    rng = np.random.default_rng(7)
    x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
    got = linear(Matrix(x), Matrix(w), Matrix(b)).data
    want = matmul_oracle(x, w) + b
    assert np.max(np.abs(got - want)) < 1e-12


def test_concat_rows_round_trip():
    a = Matrix([[1.0, 2.0]])
    b = Matrix([[3.0, 4.0], [5.0, 6.0]])
    out = concat_rows([a, b])
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_col_slice():
    x = Matrix(np.arange(12, dtype=np.float64).reshape(3, 4))
    assert np.array_equal(col_slice(x, 0, 2).data, x.data[:, :2])
    assert np.array_equal(col_slice(x, 1, 4).data, x.data[:, 1:])
    with pytest.raises(DimensionError):
        col_slice(x, 2, 5)


# ---------------------------------------------------------------------------
# ParameterStore and tape


def test_parameter_store_unique_names():
    store = ParameterStore()
    store.add("w", Matrix(np.ones((2, 2))))
    with pytest.raises(ValueError):
        store.add("w", Matrix(np.ones((2, 2))))


def test_parameter_store_grad_shapes():
    store = ParameterStore()
    store.add("w", Matrix(np.ones((2, 3))))
    assert store.grad("w").shape == (2, 3)


def test_tape_backward_requires_scalar():
    t = Tape()
    x = Matrix(np.ones((2, 2)))
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
    store = ParameterStore()
    store.add("x", Matrix(rng.normal(size=(3, 4))))
    store.add("w", Matrix(rng.normal(size=(4, 4))))
    store.add("g", Matrix(rng.normal(size=(1, 4)) + 1.0))
    store.add("b", Matrix(rng.normal(size=(1, 4))))
    return store


def test_backward_bitwise_deterministic():
    store = _toy_params()
    grads = []
    for _ in range(2):
        tape = Tape()
        loss = _toy_loss(store, tape)
        store.zero_grads()
        store.pull(tape.backward(loss))
        grads.append({n: store.grad(n).copy() for n in store.names()})
    for n in grads[0]:
        assert np.array_equal(grads[0][n], grads[1][n])


def test_gradients_flow_to_all_params():
    store = _toy_params()
    tape = Tape()
    loss = _toy_loss(store, tape)
    store.zero_grads()
    store.pull(tape.backward(loss))
    for n in store.names():
        assert np.any(store.grad(n) != 0), n


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_quadratic_tight():
    store = ParameterStore()
    rng = np.random.default_rng(9)
    store.add("w", Matrix(rng.normal(size=(5, 5))))

    def loss(params, tape):
        return half_sum_squares(params["w"], tape)

    report = finite_diff_check(loss, store, step=1e-5, tolerance=1e-9)
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
        store = ParameterStore()
        store.add("a", Matrix(rng.normal(size=(4, 4))))
        store.add("a2", Matrix(rng.normal(size=(4, 4))))
        store.add("b", Matrix(rng.normal(size=(4, 4))))
        store.add("bias_b", Matrix(rng.normal(size=(1, 4))))
        store.add("gain", Matrix(rng.normal(size=(1, 4)) + 1.5))
        store.add("bias", Matrix(rng.normal(size=(1, 4))))
        report = finite_diff_check(fn, store, step=1e-6, tolerance=1e-6, n_samples=120)
        assert report.passed, f"{name}: {report.summary()}"


def test_finite_diff_flags_corrupted_gradient():
    store = ParameterStore()
    store.add("w", Matrix(np.random.default_rng(11).normal(size=(3, 3))))

    def bad_loss(params, tape):
        w = params["w"]
        out = Matrix.wrap(w.data * w.data)
        if tape is not None:
            def backward(g, grads):
                from vidsum.numerics import accumulate
                accumulate(grads, w, g * (2.0 * w.data) + 0.1)  # deliberate corruption
            tape.record(out, (w,), backward)
        val = Matrix.wrap(np.array([[out.data.sum()]]))
        if tape is not None:
            def backward2(g, grads):
                from vidsum.numerics import accumulate
                accumulate(grads, out, g[0, 0] * np.ones_like(out.data))
            tape.record(val, (out,), backward2)
        return val

    report = finite_diff_check(bad_loss, store, step=1e-5, tolerance=1e-4)
    assert not report.passed
    assert report.worst[0].rel_error > 1e-2


def test_finite_diff_requires_float64():
    store = ParameterStore()
    store.add("w", Matrix(np.ones((2, 2), dtype=np.float32)))
    with pytest.raises(DimensionError):
        finite_diff_check(lambda p, t: half_sum_squares(p["w"], t), store)


# ---------------------------------------------------------------------------
# xavier init


def test_xavier_uniform_bounds_and_determinism():
    a = xavier_uniform(40, 60, np.random.default_rng(42))
    b = xavier_uniform(40, 60, np.random.default_rng(42))
    limit = math.sqrt(6.0 / 100.0)
    assert np.array_equal(a.data, b.data)
    assert np.max(np.abs(a.data)) <= limit
    # should actually use the range, not collapse near zero
    assert np.max(np.abs(a.data)) > 0.5 * limit
