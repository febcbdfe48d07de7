"""Dense matrix ops with reverse-mode gradients.

Everything above this module (attention, the encoder/decoder stack, the
training loop) is expressed in these primitives. Their operands are plain
2-D float32 or float64 ndarrays, treated as immutable while a forward pass
is being recorded on a Tape. Every op returns a new array, never one of its
inputs: the Tape keys gradients by the id of each array, so an op that
handed back an input would route its output's gradient to that input.
Reduction order is fixed everywhere, so the same pass recorded again gives
bitwise-identical gradients. ``Tape.backward`` consumes the tape, freeing
each record once replayed, and returns gradients by the id of arrays the
caller still holds (parameters, inputs); a gradient may be a view into a
larger one, so callers treat it as read-only. Parameters are arrays like
any other: the model keeps them in a plain ``{name: array}`` dict. The
``ffn`` and ``layer_norm`` records keep no derivable array: backward
recomputes the hidden layer and x-hat from the inputs they hold.

Apart from ``softmax_row`` and ``ffn``'s pre-activation, the ops check
shapes only. Values are checked where they enter the program: features
by ``data_io.read_features`` and ``VideoRecord.validate``, and against the
model (length, width, finite rows) by ``model._valid_features``, which also
gives them the model's dtype and which ``model.check_video`` runs before
KTS; weights by ``model.load_checkpoint``. The -inf sentinel ``MASK`` for
disallowed attention scores is written and consumed inside the attention
kernels and ``softmax_row``.
"""

from __future__ import annotations

import math

import numpy as np

# Sentinel for disallowed attention score entries; softmax_row maps it to an
# exact zero weight.
MASK = float("-inf")

# Rows per chunk of the FFN forward: one chunk's (rows, d_ff) hidden array
# is the largest it holds.
FFN_ROWS = 256


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class DegenerateRowError(ValueError):
    """A softmax row was fully masked: some query attends to nothing."""


class Tape:
    """Records ops during a forward pass; replays them once, in reverse.

    Each record is (output, backward) where backward(g, grads) folds the
    incoming gradient g into the ``grads`` dict, keyed by the id of each
    input array. The closure holds those inputs, so their ids stay stable
    until ``backward`` replays and drops the record, freeing its arrays.
    """

    __slots__ = ("_records",)

    def __init__(self):
        self._records = []

    def record(self, out, backward):
        self._records.append((out, backward))

    def __len__(self):
        return len(self._records)

    def backward(self, loss):
        """Run reverse-mode accumulation from a 1x1 loss, consuming the tape.

        Returns {id(array): gradient}, to be looked up only with arrays the
        caller still holds, such as parameters and inputs: intermediates are
        freed on the way, so their ids may be reused. Replay is in exact
        reverse order. An empty tape, such as one already replayed, raises.
        """
        if loss.shape != (1, 1):
            raise DimensionError(f"backward needs a 1x1 loss, got {loss.shape}")
        if not self._records:
            raise RuntimeError("backward on an empty or already replayed tape")
        grads = {id(loss): np.ones((1, 1), dtype=loss.dtype)}
        while self._records:
            out, bwd = self._records.pop()
            g = grads.pop(id(out), None)
            if g is not None:
                bwd(g, grads)
        return grads


def accumulate(grads, m, g):
    """Fold gradient g into the slot for array m."""
    k = id(m)
    if k in grads:
        grads[k] = grads[k] + g
    else:
        grads[k] = g


def xavier_uniform(rows, cols, rng, dtype=np.float64) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(dtype)


# ---------------------------------------------------------------------------
# ops


def matmul(a: np.ndarray, b: np.ndarray, tape=None) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul mismatch: {a.shape[0]}x{a.shape[1]} @ {b.shape[0]}x{b.shape[1]}"
        )
    out = a @ b
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g @ b.T)
            accumulate(grads, b, a.T @ g)
        tape.record(out, backward)
    return out


def add(a: np.ndarray, b: np.ndarray, tape=None) -> np.ndarray:
    if a.shape != b.shape:
        raise DimensionError(f"add mismatch: {a.shape} vs {b.shape}")
    out = a + b
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g)
            accumulate(grads, b, g)
        tape.record(out, backward)
    return out


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, tape=None) -> np.ndarray:
    """x @ w + b with b broadcast across rows (b is 1 x cols)."""
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear mismatch: {x.shape} @ {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise DimensionError(f"linear bias must be 1x{w.shape[1]}, got {b.shape}")
    out = x @ w + b
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, x, g @ w.T)
            accumulate(grads, w, x.T @ g)
            accumulate(grads, b, g.sum(axis=0, keepdims=True))
        tape.record(out, backward)
    return out


def project(x: np.ndarray, w: np.ndarray, b: np.ndarray, tape=None) -> np.ndarray:
    """``linear`` for an input that needs no gradient, such as feature rows:
    its record accumulates only into ``w`` and ``b``."""
    out = linear(x, w, b)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, w, x.T @ g)
            accumulate(grads, b, g.sum(axis=0, keepdims=True))
        tape.record(out, backward)
    return out


def row_blocks(n, size):
    """(start, stop) of consecutive blocks of ``size`` rows covering [0, n),
    the last one ``size`` to ``2 * size - 1`` rows long: a shorter rest
    joins the block before it. OpenBLAS takes products of a few rows through
    other kernels, which round differently from the same rows of a larger
    product."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < size:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def ffn(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
        b2: np.ndarray, tape=None) -> np.ndarray:
    """``relu(x @ w1 + b1) @ w2 + b2`` as one record that keeps no (rows,
    d_ff) array. The forward runs ``FFN_ROWS`` rows at a time, so it holds
    one chunk's hidden array, never the whole one; each output row is
    bitwise that of the unchunked products. Backward recomputes the whole
    hidden array from ``x``, ``w1`` and ``b1`` with the forward's ops, so
    the gradients are bitwise those of a stored one, for one more product;
    the ReLU mask is where the pre-activation is positive. A non-finite
    pre-activation raises FloatingPointError, since ReLU would hide a -inf
    as 0."""
    if (x.shape[1], w1.shape[1], b1.shape, b2.shape) != (
            w1.shape[0], w2.shape[0], (1, w1.shape[1]), (1, w2.shape[1])):
        raise DimensionError(f"ffn mismatch: {[a.shape for a in (x, w1, b1, w2, b2)]}")
    out = np.empty((x.shape[0], w2.shape[1]), np.result_type(x, w1, w2, b2))
    for start, stop in row_blocks(x.shape[0], FFN_ROWS):
        pre = x[start:stop] @ w1
        pre += b1  # in place: the sums of ``x @ w1 + b1``, one array fewer
        if not np.isfinite(pre).all():
            raise FloatingPointError("non-finite ffn pre-activation")
        np.matmul(np.maximum(pre, 0, out=pre), w2, out=out[start:stop])
    out += b2
    if tape is not None:
        def backward(g, grads):
            hidden = x @ w1  # the forward's ops, so the same bits
            hidden += b1
            active = hidden > 0  # while the array is in cache
            np.maximum(hidden, 0, out=hidden)
            accumulate(grads, w2, hidden.T @ g)
            del hidden  # before g_hidden, to lower the peak
            accumulate(grads, b2, g.sum(axis=0, keepdims=True))
            g_hidden = g @ w2.T
            g_hidden *= active
            accumulate(grads, x, g_hidden @ w1.T)
            accumulate(grads, w1, x.T @ g_hidden)
            accumulate(grads, b1, g_hidden.sum(axis=0, keepdims=True))
        tape.record(out, backward)
    return out


def concat_rows(mats, tape=None) -> np.ndarray:
    """Stack the rows of the arrays in ``mats``; a new array even for one."""
    mats = list(mats)
    if not mats:
        raise DimensionError("concat_rows needs at least one matrix")
    cols = mats[0].shape[1]
    for m in mats:
        if m.shape[1] != cols:
            raise DimensionError(f"concat_rows col mismatch: {cols} vs {m.shape[1]}")
    out = np.concatenate(mats, axis=0)
    if tape is not None:
        heights = [m.shape[0] for m in mats]
        def backward(g, grads):
            at = 0
            for m, h in zip(mats, heights):
                accumulate(grads, m, g[at:at + h, :])
                at += h
        tape.record(out, backward)
    return out


def col_slice(a: np.ndarray, start, stop, tape=None) -> np.ndarray:
    """Columns [start, stop) of ``a``: a new array object even over the
    full width (a contiguous slice may share ``a``'s memory)."""
    if not (0 <= start <= stop <= a.shape[1]):
        raise DimensionError(f"col_slice [{start}:{stop}] out of range for {a.shape}")
    out = np.ascontiguousarray(a[:, start:stop])
    if tape is not None:
        def backward(g, grads):
            full = np.zeros_like(a)
            full[:, start:stop] = g
            accumulate(grads, a, full)
        tape.record(out, backward)
    return out


def softmax_row(a: np.ndarray, tape=None) -> np.ndarray:
    """Row softmax. -inf entries map to exactly zero weight.

    A row whose entries are all -inf has no support and raises
    DegenerateRowError. +inf or NaN anywhere is rejected.
    """
    if np.isposinf(a).any() or np.isnan(a).any():
        raise FloatingPointError("softmax_row input contains +inf or NaN")
    rowmax = a.max(axis=1)
    dead = np.isneginf(rowmax)
    if dead.any():
        raise DegenerateRowError(
            f"softmax rows fully masked: {np.flatnonzero(dead).tolist()}"
        )
    e = np.exp(a - rowmax[:, None])  # exp(-inf) == 0.0 exactly
    z = e.sum(axis=1, keepdims=True)
    w = e / z
    if tape is not None:
        def backward(g, grads):
            dot = (g * w).sum(axis=1, keepdims=True)
            accumulate(grads, a, w * (g - dot))
        tape.record(w, backward)
    return w


def layer_norm(a: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps=1e-8,
               tape=None) -> np.ndarray:
    """Per-row normalization to mean 0 / variance 1, then affine gain + bias.

    eps sits inside the sqrt: (x - mean) / sqrt(var + eps). gain and bias are
    1 x cols and broadcast across rows.
    """
    cols = a.shape[1]
    if gain.shape != (1, cols) or bias.shape != (1, cols):
        raise DimensionError(
            f"layer_norm affine must be 1x{cols}, got {gain.shape} and {bias.shape}"
        )
    mu = np.add.reduce(a, axis=1, keepdims=True)  # .mean's sum, one call less
    mu /= cols
    xc = a - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True)
    var /= cols
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gain + bias
    if tape is not None:
        def backward(g, grads):
            xhat = (a - mu) * inv  # the forward's two ops, so the same bits
            accumulate(grads, gain, (g * xhat).sum(axis=0, keepdims=True))
            accumulate(grads, bias, g.sum(axis=0, keepdims=True))
            gx_hat = g * gain
            t1 = np.add.reduce(gx_hat, axis=1, keepdims=True)
            t1 /= cols
            t2 = np.add.reduce(gx_hat * xhat, axis=1, keepdims=True)
            t2 /= cols
            accumulate(grads, a, inv * (gx_hat - t1 - xhat * t2))
        tape.record(out, backward)
    return out
