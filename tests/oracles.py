"""Test oracles and tools shared by the test files.

None of this runs in the pipeline: a ReLU recorded as its own op (with
``numerics.linear``, the reference that ``numerics.ffn`` is checked
against) and the FFN forward over all rows at once, LayerNorm and the
in-place attention softmax in their method-call forms (``.mean``,
``.max``, ``.sum``), the LayerNorm record that keeps x-hat and the
band-attention record that keeps copies of its operands (the references
for the records that rebuild them in backward), the finite-difference
gradient checker and its scalar head, the dense allow-matrix of an
attention pattern, a ``maps`` callable that keeps every head, the KTS
prefix table built from one float64 copy of the features, the full KTS
cost table with the per-(m, b) DP it replaced, KTS shots with no
segment-count bound and the objective of an explicit segmentation, the
shot-list tiling check that ``check_shots`` replaced,
the shot-mean pooling ``make_summary`` does inline, the
construction-secret frame scores of synthetic videos, readers for the PGM
and run-length formats the program writes, and the memory probe of one
training step.
"""

import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from vidsum.attention import _heads, _merge, _softmax_
from vidsum.model import forward
from vidsum.numerics import MASK, DimensionError, Tape, accumulate
from vidsum.segmentation import (SegmentationError, check_shots,
                                 segmentation_penalty)
from vidsum.training import bce_loss, build_targets, ground_truth_frames


# ---------------------------------------------------------------------------
# reference ops


def relu(a: np.ndarray, tape=None) -> np.ndarray:
    """max(a, 0) as its own tape record."""
    out = np.maximum(a, 0)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g * (a > 0))
        tape.record(out, backward)
    return out


def ffn_unchunked(x, w1, b1, w2, b2):
    """The FFN forward over all rows at once, holding the whole (rows, d_ff)
    hidden array: the reference for ``numerics.ffn``'s chunked forward."""
    pre = x @ w1
    pre += b1
    if not np.isfinite(pre).all():
        raise FloatingPointError("non-finite ffn pre-activation")
    return np.maximum(pre, 0, out=pre) @ w2 + b2


def layer_norm_by_methods(a, gain, bias, eps=1e-8, tape=None):
    """``numerics.layer_norm`` with its row means taken by ``.mean``."""
    mu = a.mean(axis=1, keepdims=True)
    xc = a - mu
    var = (xc * xc).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gain + bias
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, gain, (g * xhat).sum(axis=0, keepdims=True))
            accumulate(grads, bias, g.sum(axis=0, keepdims=True))
            gx_hat = g * gain
            t1 = gx_hat.mean(axis=1, keepdims=True)
            t2 = (gx_hat * xhat).mean(axis=1, keepdims=True)
            accumulate(grads, a, inv * (gx_hat - t1 - xhat * t2))
        tape.record(out, backward)
    return out


def layer_norm_keeping_xhat(a, gain, bias, eps=1e-8, tape=None):
    """``numerics.layer_norm`` whose record keeps x-hat instead of
    recomputing it from the input in backward."""
    cols = a.shape[1]
    mu = np.add.reduce(a, axis=1, keepdims=True)
    mu /= cols
    xc = a - mu
    var = np.add.reduce(xc * xc, axis=1, keepdims=True)
    var /= cols
    inv = 1.0 / np.sqrt(var + a.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gain + bias
    if tape is not None:
        def backward(g, grads):
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


def softmax_by_methods_(s, axis):
    """``attention._softmax_`` with ``.max`` and ``.sum``."""
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True, dtype=np.float64).astype(s.dtype)


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def half_sum_squares(a: np.ndarray, tape=None) -> np.ndarray:
    """0.5 * sum(a ** 2) as a 1x1 array; the scalar head of grad checks."""
    val = 0.5 * float(np.dot(a.ravel(), a.ravel()))
    out = np.array([[val]], dtype=a.dtype)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g[0, 0] * a)
        tape.record(out, backward)
    return out


@dataclass
class GradCheckEntry:
    name: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    passed: bool
    tolerance: float
    step: float
    n_checked: int
    max_rel_error: float
    worst: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"gradcheck {'PASSED' if self.passed else 'FAILED'}: "
            f"{self.n_checked} entries, max rel err {self.max_rel_error:.3e} "
            f"(tol {self.tolerance:.1e}, step {self.step:.1e})"
        ]
        for e in self.worst:
            lines.append(
                f"  {e.name}{list(e.index)}: analytic {e.analytic:+.6e} "
                f"numeric {e.numeric:+.6e} rel {e.rel_error:.3e}"
            )
        return "\n".join(lines)


def finite_diff_check(
    loss_fn,
    params,
    step=1e-5,
    tolerance=1e-4,
    n_samples=200,
    seed=0,
    denom_floor=1e-6,
    n_worst=10,
) -> GradCheckReport:
    """Compare tape gradients of loss_fn against central differences.

    loss_fn(params, tape) must be a deterministic function returning a 1x1
    array; it is called once with a Tape for the analytic gradient and twice
    per sampled entry (tape=None) for the numeric one. ``params`` is a
    ``{name: array}`` dict of float64 arrays. Entries are a deterministic subsample of at least one entry
    per parameter plus random fill up to n_samples. Failures are reported,
    never raised.
    """
    for name, m in params.items():
        if m.dtype != np.float64:
            raise DimensionError(
                f"finite_diff_check needs float64 params, {name!r} is {m.dtype}"
            )

    tape = Tape()
    loss = loss_fn(params, tape)
    by_id = tape.backward(loss)

    sizes = {name: m.size for name, m in params.items()}
    total = sum(sizes.values())
    rng = np.random.default_rng(seed)
    chosen = set()
    for name, size in sizes.items():  # at least one entry per parameter
        chosen.add((name, int(rng.integers(size))))
    if total <= n_samples:
        chosen = {(name, i) for name, size in sizes.items() for i in range(size)}
    else:
        names = list(sizes.keys())
        offsets = np.cumsum([0] + [sizes[n] for n in names])
        while len(chosen) < n_samples:
            flat = int(rng.integers(total))
            j = int(np.searchsorted(offsets, flat, side="right") - 1)
            chosen.add((names[j], flat - int(offsets[j])))
    ordered = sorted(chosen)

    entries = []
    for name, flat in ordered:
        m = params[name]
        orig = m.flat[flat]
        m.flat[flat] = orig + step
        up = loss_fn(params, None).item()
        m.flat[flat] = orig - step
        dn = loss_fn(params, None).item()
        m.flat[flat] = orig
        numeric = (up - dn) / (2.0 * step)
        g = by_id.get(id(m))
        analytic = 0.0 if g is None else float(g.flat[flat])
        denom = max(abs(analytic), abs(numeric), denom_floor)
        rel = abs(analytic - numeric) / denom
        idx = np.unravel_index(flat, m.shape)
        entries.append(GradCheckEntry(name, tuple(int(i) for i in idx), analytic, numeric, rel))

    entries.sort(key=lambda e: -e.rel_error)
    max_rel = entries[0].rel_error if entries else 0.0
    return GradCheckReport(
        passed=max_rel <= tolerance,
        tolerance=tolerance,
        step=step,
        n_checked=len(entries),
        max_rel_error=max_rel,
        worst=entries[:n_worst],
    )


# ---------------------------------------------------------------------------
# attention patterns


def dense_mask(pattern) -> np.ndarray:
    """Boolean queries x keys allow-matrix of a SparsityPattern."""
    nq, nk = pattern.valid_queries, pattern.valid_len
    if pattern.kind in ("full", "cross"):
        return np.ones((nq, nk), dtype=bool)
    if pattern.kind == "causal":
        return np.tri(nq, nk, dtype=bool)
    hw, anchors, rows = pattern.band_geometry()
    mask = np.abs(np.arange(nq)[:, None] - np.arange(nk)) <= hw
    mask[:, anchors] = True
    mask[rows] = True
    return mask


def all_heads_sink(h):
    """A ``maps`` callable for attention calls with h heads, and the dict it
    fills: per pattern kind, one dense (h, queries, keys) array per call."""
    maps = {}

    def sink(pattern, head):
        maps.setdefault(pattern.kind, []).append(
            np.stack([head(j) for j in range(h)]))

    return maps, sink


def allowed_keys(pattern, m) -> np.ndarray:
    """Sorted key indices query m may attend to."""
    return np.flatnonzero(dense_mask(pattern)[m])


def _band_forward_keeping_copies(q, k, v, pattern, scl):
    """The band kernel over (h, d_k, n) operands; its state holds q and the
    zero-padded k and v next to the weights."""
    hw, anchors, rows = pattern.band_geometry()
    h, dk, n = q.shape
    width = 2 * hw + 1
    kp = np.zeros((h, dk, n + 2 * hw), dtype=q.dtype)
    vp = np.zeros_like(kp)
    kp[:, :, hw:hw + n] = k
    vp[:, :, hw:hw + n] = v
    w = np.empty((h, width + anchors.size, n), dtype=q.dtype)
    for o in range(width):
        np.einsum("hdn,hdn->hn", q, kp[:, :, o:o + n], out=w[:, o])
    np.matmul(k[:, :, anchors].transpose(0, 2, 1), q, out=w[:, width:])
    w *= scl
    np.copyto(w, MASK, where=pattern.band_blocked)
    _softmax_(w, axis=1)
    w[:, :, rows] = 0.0
    out = v[:, :, anchors] @ w[:, width:]
    for o in range(width):
        out += vp[:, :, o:o + n] * w[:, None, o]
    wr = q[:, :, rows].transpose(0, 2, 1) @ k
    wr *= scl
    _softmax_(wr, axis=2)
    out[:, :, rows] = v @ wr.transpose(0, 2, 1)
    return out, (q, kp, vp, w, wr, hw, anchors, rows, scl)


def _band_backward_from_copies(g, saved):
    """(dq, dk, dv) of the band kernel from the stored operand copies."""
    q, kp, vp, w, wr, hw, anchors, rows, scl = saved
    n = q.shape[2]
    width = 2 * hw + 1
    k, v = kp[:, :, hw:hw + n], vp[:, :, hw:hw + n]
    ds = np.empty_like(w)
    for o in range(width):
        np.einsum("hdn,hdn->hn", g, vp[:, :, o:o + n], out=ds[:, o])
    np.matmul(v[:, :, anchors].transpose(0, 2, 1), g, out=ds[:, width:])
    ds -= (ds * w).sum(axis=1, keepdims=True, dtype=np.float64).astype(ds.dtype)
    ds *= w
    ds *= scl
    dkp, dvp = np.zeros_like(kp), np.zeros_like(vp)
    dq = k[:, :, anchors] @ ds[:, width:]
    for o in range(width):
        sl = slice(o, o + n)
        dq += kp[:, :, sl] * ds[:, None, o]
        dkp[:, :, sl] += q * ds[:, None, o]
        dvp[:, :, sl] += g * w[:, None, o]
    dk, dv = dkp[:, :, hw:hw + n], dvp[:, :, hw:hw + n]
    dk[:, :, anchors] += q @ ds[:, width:].transpose(0, 2, 1)
    dv[:, :, anchors] += g @ w[:, width:].transpose(0, 2, 1)
    gr = g[:, :, rows]
    dsr = gr.transpose(0, 2, 1) @ v
    dsr -= (dsr * wr).sum(axis=2, keepdims=True)
    dsr *= wr
    dsr *= scl
    dv += gr @ wr
    dq[:, :, rows] += k @ dsr.transpose(0, 2, 1)
    dk += q[:, :, rows] @ dsr
    return dq, dk, dv


def band_attend_keeping_copies(qp, kp, vp, pattern, h, tape=None):
    """``attention.multi_head_attend`` for a band kind whose record keeps
    contiguous (h, d_k, n) copies of q, k and v and zero-padded copies of
    k and v, instead of rebuilding them from the projections in backward."""
    scl = qp.dtype.type(1.0 / math.sqrt(qp.shape[1] // h))
    q, k, v = (np.ascontiguousarray(_heads(x, h).transpose(0, 2, 1))
               for x in (qp, kp, vp))
    out, saved = _band_forward_keeping_copies(q, k, v, pattern, scl)
    result = _merge(out.transpose(0, 2, 1))
    if tape is not None:
        def backward(g, grads):
            gh = np.ascontiguousarray(_heads(g, h).transpose(0, 2, 1))
            grad_heads = (x.transpose(0, 2, 1)
                          for x in _band_backward_from_copies(gh, saved))
            for mat, gx in zip((qp, kp, vp), grad_heads):
                accumulate(grads, mat, _merge(gx))
        tape.record(result, backward)
    return result


# ---------------------------------------------------------------------------
# segmentation


def segment_cost_table(gram):
    """cost[a, b] = within-segment scatter of frames [a, b), half-open.

    Scatter of a segment is sum of diagonal kernel entries minus the block
    sum divided by the segment length. Computed from 2-D prefix sums.
    """
    t = gram.shape[0]
    diag_cs = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
    block = np.zeros((t + 1, t + 1))
    block[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
    cost = np.full((t + 1, t + 1), np.inf)
    for b in range(1, t + 1):
        a = np.arange(b)
        lengths = (b - a).astype(np.float64)
        blk = block[b, b] - block[a, b] - block[b, a] + block[a, a]
        cost[a, b] = (diag_cs[b] - diag_cs[a]) - blk / lengths
    return cost


def prefix_sums_one_copy(features):
    """``segmentation._prefix_sums`` from one float64 copy of all the
    features, normalized in place, with K as one ``x @ x.T``: the reference
    for the table built from row blocks."""
    x = np.array(features, dtype=np.float64)
    t = x.shape[0]
    blocks = np.vsplit(x, range(128, t, 128))
    norms = np.concatenate([np.sqrt((r * r).sum(axis=1, keepdims=True))
                            for r in blocks])
    norms[norms == 0.0] = 1.0
    x /= norms
    block = np.zeros((t + 1, t + 1))
    inner = block[1:, 1:]
    np.matmul(x, x.T, out=inner)
    diag_cs = np.concatenate([[0.0], np.cumsum(np.diag(inner))])
    np.cumsum(inner, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return diag_cs, block


def kts_dp_oracle(gram, kmax):
    """(dp, back) of KTS from the full cost table, one argmin per (m, b).

    The DP that ``segmentation._kts_tables`` replaces: dp[m, b] is the least
    scatter of frames [0, b) in m segments, back[m, b] the start of the
    last segment, and ties go to the earliest split.
    """
    t = gram.shape[0]
    cost = segment_cost_table(gram)
    dp = np.full((kmax + 1, t + 1), np.inf)
    back = np.zeros((kmax + 1, t + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for m in range(1, kmax + 1):
        for b in range(m, t + 1):
            prev = dp[m - 1, m - 1:b] + cost[m - 1:b, b]
            j = int(np.argmin(prev))
            dp[m, b] = prev[j]
            back[m, b] = j + m - 1
    return dp, back


def _unit_gram(features):
    """Linear-kernel Gram matrix of the L2-normalized rows (zero rows kept)."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    x = x / norms
    return x @ x.T


def kts_segment_oracle(features, max_shots, penalty=1.0):
    """KTS shots with no segment-count bound: full ``kts_dp_oracle`` tables
    for kmax = min(max_shots, T), the least penalized objective over every
    m = 1 .. kmax (ties to the smaller m), then the back pointers."""
    gram = _unit_gram(features)
    t = gram.shape[0]
    kmax = min(max_shots, t)
    dp, back = kts_dp_oracle(gram, kmax)
    best_m, best_obj = 1, np.inf
    for m in range(1, kmax + 1):
        obj = dp[m, t] + segmentation_penalty(t, m, penalty)
        if obj < best_obj:
            best_m, best_obj = m, obj
    cuts = [t]
    for m in range(best_m, 0, -1):
        cuts.append(int(back[m, cuts[-1]]))
    cuts.reverse()
    return [(cuts[i], cuts[i + 1]) for i in range(best_m)]


def segmentation_objective(features, boundaries, penalty=1.0):
    """Scatter-plus-penalty objective of an explicit segmentation."""
    cost = segment_cost_table(_unit_gram(features))
    total = 0.0
    for s, e in boundaries:
        total = total + cost[s, e]
    return total + segmentation_penalty(len(cost) - 1, len(boundaries), penalty)


def validate_shot_list(shots, n_frames=None):
    """The tiling check of the shot-list class that ``check_shots``
    replaced: bounds go through ``int()``, then the pairs must tile
    [0, n_frames) with non-empty shots. Returns the list of int pairs."""
    shots = [(int(s), int(e)) for s, e in shots]
    if not shots:
        raise SegmentationError("empty shot list")
    prev_end = 0
    for s, e in shots:
        if s != prev_end:
            raise SegmentationError(
                f"shots must tile contiguously: expected start {prev_end}, got {s}"
            )
        if e <= s:
            raise SegmentationError(f"empty or reversed shot [{s}, {e})")
        prev_end = e
    if n_frames is not None and prev_end != n_frames:
        raise SegmentationError(
            f"shots cover [0, {prev_end}) but the video has {n_frames} frames"
        )
    return shots


def shot_scores(frame_scores, shots) -> np.ndarray:
    """Pool per-frame scores into one score per shot: the shot mean."""
    scores = np.asarray(frame_scores, dtype=np.float64).reshape(-1)
    shots = check_shots(shots, scores.size)
    return np.array([np.mean(scores[s:e]) for s, e in shots], dtype=np.float64)


# ---------------------------------------------------------------------------
# synthetic data


def oracle_frame_scores(features, meta):
    """Frame scores from the construction secret: projection on the offset
    axis, scaled into [0, 1].  Planted frames land near 1, others near 0."""
    proj = np.asarray(features, dtype=np.float64) @ meta["offset_direction"]
    return np.clip(proj / meta["offset_scale"], 0.0, 1.0)


# ---------------------------------------------------------------------------
# readers of formats the program writes


def read_pgm(path):
    """Parse back a P5 file written by attention.export_weights_pgm."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ValueError(f"not a P5 file: {path}")
    width, height = (int(x) for x in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    pixels = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    return pixels.reshape(height, width)


def rle_decode(runs) -> np.ndarray:
    """Inverse of selection.rle_encode: [value, count] pairs to a bool mask."""
    parts = [np.full(int(c), bool(v)) for v, c in runs]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


# ---------------------------------------------------------------------------
# memory probe

MIB = 2.0 ** 20


def step_memory(config, params, video):
    """tracemalloc figures of one teacher-forced training step on ``video``
    (a VideoRecord with shots and user annotations), as in ``training.train``:
    (MiB held after the forward pass and the loss, MiB at the peak of the
    backward pass, tape records). Only allocations made during the step
    count; the parameters, the features and the targets already exist.
    """
    teacher = ground_truth_frames(video, video.shots, config.summary_ratio)
    targets = build_targets(teacher, video.n_frames)
    tracemalloc.start()
    try:
        tape = Tape()
        probs = forward(video.features, video.shots, teacher, config, params,
                        tape)
        loss = bce_loss(probs, targets, video.n_frames, tape)
        held, records = tracemalloc.get_traced_memory()[0], len(tape)
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held / MIB, peak / MIB, records
