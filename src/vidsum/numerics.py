"""Dense matrix substrate with reverse-mode gradients.

Everything above this module (attention, the encoder/decoder stack, the
training loop) is expressed in these primitives. Matrices are 2-D, row-major,
float32 or float64, and treated as immutable while a forward pass is being
recorded on a Tape. Reduction order is fixed everywhere, so replaying a
backward pass over identical inputs yields bitwise-identical gradients.

Masked attention scores carry a dedicated -inf sentinel (``MASK``) that only
``softmax_row`` knows how to consume; the arithmetic ops reject it so masked
values can never leak into ordinary algebra as NaNs.
"""

from __future__ import annotations

import math

import numpy as np

# Sentinel for disallowed attention score entries. Consumed by softmax_row
# (maps to an exact zero weight); every other op refuses to touch it.
MASK = float("-inf")

_FLOAT_DTYPES = (np.float32, np.float64)


class DimensionError(ValueError):
    """Operand shapes (or dtypes) are incompatible."""


class MaskSentinelError(ValueError):
    """The -inf mask sentinel reached an op that cannot consume it."""


class DegenerateRowError(ValueError):
    """A softmax row was fully masked: some query attends to nothing."""


class Matrix:
    """A 2-D float matrix, row-major, float32 or float64."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, copy=True)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @classmethod
    def wrap(cls, arr):
        """Adopt an existing 2-D float array without copying or validating."""
        m = object.__new__(cls)
        m.data = arr
        return m

    @classmethod
    def zeros(cls, rows, cols, dtype=np.float64):
        return cls.wrap(np.zeros((rows, cols), dtype=dtype))

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data.dtype})"


class Tape:
    """Records ops during a forward pass; replays them in reverse for grads.

    Each record is (output, inputs, backward) where backward(g, grads) folds
    the incoming gradient g into the ``grads`` dict (keyed by id of the input
    matrices). Records hold strong references, so ids stay stable for the
    tape's lifetime.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records = []

    def record(self, out, inputs, backward):
        self._records.append((out, inputs, backward))

    def __len__(self):
        return len(self._records)

    def backward(self, loss):
        """Run reverse-mode accumulation from a 1x1 loss.

        Returns a dict mapping id(matrix) -> gradient array for every matrix
        that participated. Iteration order is the exact reverse of recording
        order, and every reduction inside the op backwards is a fixed-order
        numpy reduction, so repeated calls are bitwise identical.
        """
        if loss.shape != (1, 1):
            raise DimensionError(f"backward needs a 1x1 loss, got {loss.shape}")
        grads = {id(loss): np.ones((1, 1), dtype=loss.data.dtype)}
        for out, _inputs, bwd in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            bwd(g, grads)
        return grads


def accumulate(grads, m, g):
    """Fold gradient g into the slot for matrix m."""
    k = id(m)
    if k in grads:
        grads[k] = grads[k] + g
    else:
        grads[k] = g


class ParameterStore:
    """Named parameters plus a same-shaped gradient accumulator per name."""

    def __init__(self):
        self._params: dict[str, Matrix] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name, matrix):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if not isinstance(matrix, Matrix):
            matrix = Matrix(matrix)
        self._params[name] = matrix
        self._grads[name] = np.zeros_like(matrix.data)
        return matrix

    def __getitem__(self, name) -> Matrix:
        return self._params[name]

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def grad(self, name) -> np.ndarray:
        return self._grads[name]

    def zero_grads(self):
        for g in self._grads.values():
            g[...] = 0

    def pull(self, tape_grads):
        """Accumulate gradients produced by Tape.backward into named slots."""
        for name, m in self._params.items():
            g = tape_grads.get(id(m))
            if g is not None:
                self._grads[name] += g

    def global_grad_norm(self) -> float:
        total = 0.0
        for name in self._params:  # fixed name order
            g = self._grads[name]
            total += float(np.dot(g.ravel(), g.ravel()))
        return math.sqrt(total)

    def scale_grads(self, c):
        for g in self._grads.values():
            g *= c

    def assign(self, name, array):
        """Overwrite a parameter's values in place (object id is preserved)."""
        self._params[name].data[...] = array


def xavier_uniform(rows, cols, rng, dtype=np.float64) -> Matrix:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (rows + cols))
    vals = rng.uniform(-limit, limit, size=(rows, cols))
    return Matrix.wrap(np.ascontiguousarray(vals.astype(dtype)))


# ---------------------------------------------------------------------------
# ops


def _reject_sentinel(*mats):
    # an equality scan is cheaper than np.isneginf; NaN compares unequal and
    # is left to softmax_row's own check
    for m in mats:
        if (m.data == MASK).any():
            raise MaskSentinelError(
                "-inf mask sentinel fed to an arithmetic op; only softmax_row consumes it"
            )


def _require_same_dtype(*mats):
    dt = mats[0].data.dtype
    for m in mats[1:]:
        if m.data.dtype != dt:
            raise DimensionError(f"mixed dtypes: {dt} vs {m.data.dtype}")
    return dt


def matmul(a: Matrix, b: Matrix, tape=None) -> Matrix:
    _reject_sentinel(a, b)
    _require_same_dtype(a, b)
    if a.cols != b.rows:
        raise DimensionError(
            f"matmul mismatch: {a.rows}x{a.cols} @ {b.rows}x{b.cols}"
        )
    out = Matrix.wrap(a.data @ b.data)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g @ b.data.T)
            accumulate(grads, b, a.data.T @ g)
        tape.record(out, (a, b), backward)
    return out


def add(a: Matrix, b: Matrix, tape=None) -> Matrix:
    _reject_sentinel(a, b)
    _require_same_dtype(a, b)
    if a.shape != b.shape:
        raise DimensionError(f"add mismatch: {a.shape} vs {b.shape}")
    out = Matrix.wrap(a.data + b.data)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g)
            accumulate(grads, b, g)
        tape.record(out, (a, b), backward)
    return out


def relu(a: Matrix, tape=None) -> Matrix:
    _reject_sentinel(a)
    out = Matrix.wrap(np.maximum(a.data, 0))
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g * (a.data > 0))
        tape.record(out, (a,), backward)
    return out


def linear(x: Matrix, w: Matrix, b: Matrix, tape=None) -> Matrix:
    """x @ w + b with b broadcast across rows (b is 1 x cols)."""
    _reject_sentinel(x, w, b)
    _require_same_dtype(x, w, b)
    if x.cols != w.rows:
        raise DimensionError(f"linear mismatch: {x.shape} @ {w.shape}")
    if b.shape != (1, w.cols):
        raise DimensionError(f"linear bias must be 1x{w.cols}, got {b.shape}")
    out = Matrix.wrap(x.data @ w.data + b.data)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, x, g @ w.data.T)
            accumulate(grads, w, x.data.T @ g)
            accumulate(grads, b, g.sum(axis=0, keepdims=True))
        tape.record(out, (x, w, b), backward)
    return out


def concat_rows(mats, tape=None) -> Matrix:
    mats = list(mats)
    if not mats:
        raise DimensionError("concat_rows needs at least one matrix")
    _reject_sentinel(*mats)
    _require_same_dtype(*mats)
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise DimensionError(f"concat_rows col mismatch: {cols} vs {m.cols}")
    out = Matrix.wrap(np.concatenate([m.data for m in mats], axis=0))
    if tape is not None:
        heights = [m.rows for m in mats]
        def backward(g, grads):
            at = 0
            for m, h in zip(mats, heights):
                accumulate(grads, m, g[at:at + h, :])
                at += h
        tape.record(out, tuple(mats), backward)
    return out


def col_slice(a: Matrix, start, stop, tape=None) -> Matrix:
    if not (0 <= start <= stop <= a.cols):
        raise DimensionError(f"col_slice [{start}:{stop}] out of range for {a.shape}")
    out = Matrix.wrap(np.ascontiguousarray(a.data[:, start:stop]))
    if tape is not None:
        def backward(g, grads):
            full = np.zeros_like(a.data)
            full[:, start:stop] = g
            accumulate(grads, a, full)
        tape.record(out, (a,), backward)
    return out


def softmax_row(a: Matrix, tape=None) -> Matrix:
    """Row softmax. -inf entries map to exactly zero weight.

    A row whose entries are all -inf has no support and raises
    DegenerateRowError. +inf or NaN anywhere is rejected.
    """
    x = a.data
    if np.isposinf(x).any() or np.isnan(x).any():
        raise MaskSentinelError("softmax_row input contains +inf or NaN")
    rowmax = x.max(axis=1)
    dead = np.isneginf(rowmax)
    if dead.any():
        raise DegenerateRowError(
            f"softmax rows fully masked: {np.flatnonzero(dead).tolist()}"
        )
    e = np.exp(x - rowmax[:, None])  # exp(-inf) == 0.0 exactly
    z = e.sum(axis=1, keepdims=True)
    w = e / z
    out = Matrix.wrap(w)
    if tape is not None:
        def backward(g, grads):
            dot = (g * w).sum(axis=1, keepdims=True)
            accumulate(grads, a, w * (g - dot))
        tape.record(out, (a,), backward)
    return out


def layer_norm(a: Matrix, gain: Matrix, bias: Matrix, eps=1e-8, tape=None) -> Matrix:
    """Per-row normalization to mean 0 / variance 1, then affine gain + bias.

    eps sits inside the sqrt: (x - mean) / sqrt(var + eps). gain and bias are
    1 x cols and broadcast across rows.
    """
    _reject_sentinel(a, gain, bias)
    _require_same_dtype(a, gain, bias)
    if gain.shape != (1, a.cols) or bias.shape != (1, a.cols):
        raise DimensionError(
            f"layer_norm affine must be 1x{a.cols}, got {gain.shape} and {bias.shape}"
        )
    x = a.data
    mu = x.mean(axis=1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    out = Matrix.wrap(xhat * gain.data + bias.data)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, gain, (g * xhat).sum(axis=0, keepdims=True))
            accumulate(grads, bias, g.sum(axis=0, keepdims=True))
            gx_hat = g * gain.data
            t1 = gx_hat.mean(axis=1, keepdims=True)
            t2 = (gx_hat * xhat).mean(axis=1, keepdims=True)
            accumulate(grads, a, inv * (gx_hat - t1 - xhat * t2))
        tape.record(out, (a, gain, bias), backward)
    return out
