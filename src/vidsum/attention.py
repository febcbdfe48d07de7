"""Attention patterns and kernels.

A SparsityPattern declares which (query, key) pairs may interact:

* ``full``          every valid pair
* ``local``         a banded window, floor(w/2) keys to each side
* ``global``        every valid query sees itself plus the shot-anchor
                    tokens, so an anchor query sees only the anchor set
* ``local_global``  union of the band and the anchors (the encoder pattern);
                    here anchor queries attend every valid key
* ``causal``        key index <= query index (decoder self-attention)
* ``cross``         decoder queries against all valid encoder keys

Scores are q . k / sqrt(d_k) on allowed pairs and the -inf sentinel
elsewhere. The banded kinds have a gather-based path that touches only the
allowed pairs and never materializes a T x T score matrix; the dense kinds
use plain masked matmuls. Both paths register their transient buffer sizes
with ``tracker`` so benchmarks can report an honest attention-memory
high-water mark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    MASK,
    DegenerateRowError,
    DimensionError,
    Matrix,
    accumulate,
    matmul,
    softmax_row,
)
from .segmentation import SegmentationError, ShotList


class ConfigError(ValueError):
    """A structural configuration value is invalid (window, heads, kind...)."""


SELF_KINDS = ("full", "local", "global", "local_global")
PATTERN_KINDS = SELF_KINDS + ("causal", "cross")

# short aliases used by the bench harness and the command line
PATTERN_ALIASES = {"fa": "full", "la": "local", "ga": "global", "lga": "local_global"}


def canonical_kind(kind):
    kind = PATTERN_ALIASES.get(kind, kind)
    if kind not in PATTERN_KINDS:
        raise ConfigError(f"unknown attention pattern {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# pattern construction


@dataclass
class SparsityPattern:
    kind: str
    n_queries: int
    n_keys: int
    valid_len: int        # keys at index >= valid_len are disconnected
    valid_queries: int    # queries at index >= valid_queries are disconnected
    window: int = 1
    global_tokens: tuple = ()
    _plan: object = field(default=None, repr=False, compare=False)
    _mask: object = field(default=None, repr=False, compare=False)
    _pairs: object = field(default=None, repr=False, compare=False)

    @property
    def half_window(self):
        return self.window // 2

    def is_global(self, m):
        return m in self._global_set()

    def _global_set(self):
        if not hasattr(self, "_gset"):
            object.__setattr__(self, "_gset", frozenset(self.global_tokens))
        return self._gset

    def allowed_keys(self, m) -> np.ndarray:
        """Sorted key indices query m may attend to (empty if m is padded)."""
        if m >= self.valid_queries:
            return np.empty(0, dtype=np.int64)
        if self.kind == "full" or self.kind == "cross":
            return np.arange(self.valid_len, dtype=np.int64)
        if self.kind == "causal":
            return np.arange(m + 1, dtype=np.int64)
        if self.kind == "local_global" and m in self._global_set():
            return np.arange(self.valid_len, dtype=np.int64)
        keys = set()
        if self.kind in ("local", "local_global"):
            hw = self.half_window
            lo = max(0, m - hw)
            hi = min(self.valid_len - 1, m + hw)
            keys.update(range(lo, hi + 1))
        if self.kind in ("global", "local_global"):
            keys.update(self.global_tokens)
        if self.kind == "global":
            keys.add(m)  # keep every valid query's softmax well defined
        return np.array(sorted(keys), dtype=np.int64)

    def dense_mask(self) -> np.ndarray:
        """Boolean n_queries x n_keys allow-matrix (cached)."""
        if self._mask is None:
            mask = np.zeros((self.n_queries, self.n_keys), dtype=bool)
            for m in range(self.valid_queries):
                mask[m, self.allowed_keys(m)] = True
            self._mask = mask
        return self._mask

    def n_allowed_pairs(self) -> int:
        if self._pairs is None:
            total = 0
            for m in range(self.valid_queries):
                total += int(self.allowed_keys(m).size)
            self._pairs = total
        return self._pairs

    def gather_plan(self):
        if self._plan is None:
            self._plan = _GatherPlan(self)
        return self._plan


def _check_window(w):
    if w < 1 or w % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {w}")


def _check_lens(n, valid_len):
    if valid_len < 1 or valid_len > n:
        raise DimensionError(f"valid_len {valid_len} out of range for length {n}")


def shot_anchor_tokens(shots, globals_per_shot=3):
    """First / middle / last frame index of each shot, deduplicated, sorted.

    The middle frame of [s, e) is (s + e) // 2. globals_per_shot trims the
    set: 1 keeps the first frame, 2 adds the middle, 3 adds the last.
    """
    if globals_per_shot not in (1, 2, 3):
        raise ConfigError(f"globals_per_shot must be 1, 2 or 3, got {globals_per_shot}")
    anchors = set()
    for s, e in shots:
        picks = [s, (s + e) // 2, e - 1][:globals_per_shot]
        anchors.update(picks)
    return tuple(sorted(anchors))


def _validated_shots(shots, valid_len):
    if isinstance(shots, ShotList):
        return shots.validate(valid_len)
    return ShotList(list(shots)).validate(valid_len)


def build_lga_pattern(n, valid_len, window, shots, globals_per_shot=3) -> SparsityPattern:
    """Banded window plus shot-anchor global tokens over the valid prefix."""
    _check_window(window)
    _check_lens(n, valid_len)
    shots = _validated_shots(shots, valid_len)
    anchors = shot_anchor_tokens(shots, globals_per_shot)
    return SparsityPattern("local_global", n, n, valid_len, valid_len,
                           window=window, global_tokens=anchors)


def build_la_pattern(n, valid_len, window) -> SparsityPattern:
    _check_window(window)
    _check_lens(n, valid_len)
    return SparsityPattern("local", n, n, valid_len, valid_len, window=window)


def build_ga_pattern(n, valid_len, shots, globals_per_shot=3) -> SparsityPattern:
    _check_lens(n, valid_len)
    shots = _validated_shots(shots, valid_len)
    anchors = shot_anchor_tokens(shots, globals_per_shot)
    return SparsityPattern("global", n, n, valid_len, valid_len,
                           global_tokens=anchors)


def build_full_pattern(n, valid_len=None) -> SparsityPattern:
    valid_len = n if valid_len is None else valid_len
    _check_lens(n, valid_len)
    return SparsityPattern("full", n, n, valid_len, valid_len)


def build_causal_pattern(n) -> SparsityPattern:
    _check_lens(n, n)
    return SparsityPattern("causal", n, n, n, n)


def build_cross_pattern(n_queries, n_keys, valid_len=None) -> SparsityPattern:
    valid_len = n_keys if valid_len is None else valid_len
    _check_lens(n_keys, valid_len)
    if n_queries < 1:
        raise DimensionError(f"cross pattern needs >= 1 query, got {n_queries}")
    return SparsityPattern("cross", n_queries, n_keys, valid_len, n_queries)


def build_encoder_pattern(kind, n, valid_len, window, shots, globals_per_shot=3):
    """Dispatch on a self-attention pattern kind (accepts fa/la/ga/lga aliases)."""
    kind = canonical_kind(kind)
    if kind == "full":
        return build_full_pattern(n, valid_len)
    if kind == "local":
        return build_la_pattern(n, valid_len, window)
    if kind == "global":
        return build_ga_pattern(n, valid_len, shots, globals_per_shot)
    if kind == "local_global":
        return build_lga_pattern(n, valid_len, window, shots, globals_per_shot)
    raise ConfigError(f"{kind!r} is not an encoder self-attention pattern")


class _GatherPlan:
    """Precomputed gather indices for the banded kinds.

    Non-anchor queries attend a short per-query key list; anchor (global)
    queries attend the whole valid prefix and are handled as a dense block.
    Key lists are padded to a common slot width with slot_mask marking the
    real entries.
    """

    __slots__ = ("nonglobal", "global_rows", "idx", "slot_mask", "n_slots")

    def __init__(self, pattern):
        gset = set(pattern.global_tokens) if pattern.kind == "local_global" else set()
        rows, lists = [], []
        for m in range(pattern.valid_queries):
            if m in gset:
                continue
            rows.append(m)
            lists.append(pattern.allowed_keys(m))
        self.nonglobal = np.array(rows, dtype=np.int64)
        self.global_rows = np.array(sorted(gset), dtype=np.int64)
        self.n_slots = max((len(l) for l in lists), default=0)
        self.idx = np.zeros((len(lists), self.n_slots), dtype=np.int64)
        self.slot_mask = np.zeros((len(lists), self.n_slots), dtype=bool)
        for i, l in enumerate(lists):
            self.idx[i, : len(l)] = l
            self.slot_mask[i, : len(l)] = True

    def buffer_bytes(self):
        return self.idx.nbytes + self.slot_mask.nbytes


# ---------------------------------------------------------------------------
# attention buffer accounting


@dataclass
class AttentionBufferTracker:
    """High-water mark of transient attention buffer bytes per call."""

    high_water_bytes: int = 0

    def observe(self, nbytes):
        if nbytes > self.high_water_bytes:
            self.high_water_bytes = nbytes

    def reset(self):
        self.high_water_bytes = 0


tracker = AttentionBufferTracker()


# ---------------------------------------------------------------------------
# score + softmax + weighted-sum kernels (single head)


def _effective_rows(mat_rows, pattern, axis):
    """Inputs may be full length or already sliced to the valid prefix."""
    if axis == "q":
        full, valid = pattern.n_queries, pattern.valid_queries
    else:
        full, valid = pattern.n_keys, pattern.valid_len
    if mat_rows not in (full, valid):
        raise DimensionError(
            f"{axis}-matrix has {mat_rows} rows, pattern expects {full} (padded) or {valid} (valid)"
        )
    return min(mat_rows, valid)


def _sparse_head_forward(qh, kh, vh, pattern):
    """Gather path for local / global / local_global patterns.

    qh, kh, vh: (rows, d_k) arrays. Returns (out, saved, buffer_bytes).
    """
    plan = pattern.gather_plan()
    nq = _effective_rows(qh.shape[0], pattern, "q")
    nk = _effective_rows(kh.shape[0], pattern, "k")
    dk = qh.shape[1]
    scl = 1.0 / math.sqrt(dk)
    out = np.zeros((qh.shape[0], vh.shape[1]), dtype=qh.dtype)
    saved = {"plan": plan, "nq": nq, "nk": nk, "scale": scl}
    nbytes = plan.buffer_bytes()

    ng = plan.nonglobal
    if ng.size:
        idx = plan.idx
        kg = kh[idx]                    # (n_ng, slots, dk)
        vg = vh[idx]
        q_ng = qh[ng]
        s = np.einsum("nd,nkd->nk", q_ng, kg) * qh.dtype.type(scl)
        s[~plan.slot_mask] = MASK
        m = s.max(axis=1, keepdims=True)
        w = np.exp(s - m)               # masked slots become exactly 0
        z = w.sum(axis=1, keepdims=True)
        w = w / z
        out[ng] = np.einsum("nk,nkd->nd", w, vg)
        saved.update(q_ng=q_ng, kg=kg, vg=vg, w_ng=w)
        nbytes += kg.nbytes + vg.nbytes + s.nbytes + w.nbytes
    gr = plan.global_rows
    if gr.size:
        q_g = qh[gr]
        sg = (q_g @ kh[:nk].T) * qh.dtype.type(scl)
        mg = sg.max(axis=1, keepdims=True)
        wg = np.exp(sg - mg)
        wg = wg / wg.sum(axis=1, keepdims=True)
        out[gr] = wg @ vh[:nk]
        saved.update(q_g=q_g, w_g=wg)
        nbytes += sg.nbytes + wg.nbytes
    return out, saved, nbytes


def _sparse_head_backward(g_out, qh, kh, vh, saved, dq, dk_, dv):
    plan = saved["plan"]
    nk = saved["nk"]
    scl = qh.dtype.type(saved["scale"])
    ng, gr = plan.nonglobal, plan.global_rows
    if ng.size:
        idx, w = plan.idx, saved["w_ng"]
        kg, vg, q_ng = saved["kg"], saved["vg"], saved["q_ng"]
        go = g_out[ng]
        dw = np.einsum("nd,nkd->nk", go, vg)
        np.add.at(dv, idx, w[:, :, None] * go[:, None, :])
        ds = w * (dw - (dw * w).sum(axis=1, keepdims=True))
        dq[ng] += np.einsum("nk,nkd->nd", ds, kg) * scl
        np.add.at(dk_, idx, ds[:, :, None] * (q_ng[:, None, :] * scl))
    if gr.size:
        wg, q_g = saved["w_g"], saved["q_g"]
        go = g_out[gr]
        dv[:nk] += wg.T @ go
        dwg = go @ vh[:nk].T
        dsg = wg * (dwg - (dwg * wg).sum(axis=1, keepdims=True))
        dq[gr] += (dsg @ kh[:nk]) * scl
        dk_[:nk] += (dsg.T @ q_g) * scl


def _dense_head_forward(qh, kh, vh, pattern):
    """Masked dense path for full / causal / cross patterns."""
    nq = _effective_rows(qh.shape[0], pattern, "q")
    nk = _effective_rows(kh.shape[0], pattern, "k")
    dk = qh.shape[1]
    scl = 1.0 / math.sqrt(dk)
    s = (qh[:nq] @ kh[:nk].T) * qh.dtype.type(scl)
    if pattern.kind == "causal":
        s[np.triu_indices(nq, k=1)] = MASK
    # full / cross allow the whole valid block
    m = s.max(axis=1, keepdims=True)
    w = np.exp(s - m)
    w = w / w.sum(axis=1, keepdims=True)
    out = np.zeros((qh.shape[0], vh.shape[1]), dtype=qh.dtype)
    out[:nq] = w @ vh[:nk]
    saved = {"w": w, "nq": nq, "nk": nk, "scale": scl}
    return out, saved, s.nbytes + w.nbytes


def _dense_head_backward(g_out, qh, kh, vh, saved, dq, dk_, dv):
    w, nq, nk = saved["w"], saved["nq"], saved["nk"]
    scl = qh.dtype.type(saved["scale"])
    go = g_out[:nq]
    dv[:nk] += w.T @ go
    dw = go @ vh[:nk].T
    ds = w * (dw - (dw * w).sum(axis=1, keepdims=True))
    dq[:nq] += (ds @ kh[:nk]) * scl
    dk_[:nk] += (ds.T @ qh[:nq]) * scl


def _densify_weights(saved, pattern, n_keys_out, dtype):
    """Rebuild a full (n_queries x n_keys) weight matrix from saved state."""
    w_full = np.zeros((pattern.n_queries, n_keys_out), dtype=dtype)
    if "w" in saved:  # dense path
        nq, nk = saved["nq"], saved["nk"]
        w_full[:nq, :nk] = saved["w"]
        return w_full
    plan = saved["plan"]
    if plan.nonglobal.size:
        w = saved["w_ng"]
        for i, m in enumerate(plan.nonglobal):
            sl = plan.slot_mask[i]
            w_full[m, plan.idx[i, sl]] = w[i, sl]
    if plan.global_rows.size:
        w_full[plan.global_rows, : saved["nk"]] = saved["w_g"]
    return w_full


# ---------------------------------------------------------------------------
# public ops


def scaled_scores(q: Matrix, k: Matrix, pattern: SparsityPattern, tape=None) -> Matrix:
    """Dense score matrix: q.k/sqrt(d_k) on allowed pairs, -inf elsewhere.

    The banded kinds compute only their allowed pairs and scatter them into
    the (sentinel-filled) output; the result is dense but the work is not.
    """
    if q.cols != k.cols:
        raise DimensionError(f"score dims differ: q is {q.shape}, k is {k.shape}")
    nq = _effective_rows(q.rows, pattern, "q")
    nk = _effective_rows(k.rows, pattern, "k")
    dk = q.cols
    scl = q.data.dtype.type(1.0 / math.sqrt(dk))
    out_arr = np.full((q.rows, k.rows), MASK, dtype=q.data.dtype)
    if pattern.kind in ("local", "global", "local_global"):
        plan = pattern.gather_plan()
        if plan.nonglobal.size:
            kg = k.data[plan.idx]
            s = np.einsum("nd,nkd->nk", q.data[plan.nonglobal], kg) * scl
            for i, m in enumerate(plan.nonglobal):
                sl = plan.slot_mask[i]
                out_arr[m, plan.idx[i, sl]] = s[i, sl]
        if plan.global_rows.size:
            out_arr[np.ix_(plan.global_rows, np.arange(nk))] = (
                q.data[plan.global_rows] @ k.data[:nk].T
            ) * scl
    else:
        s = (q.data[:nq] @ k.data[:nk].T) * scl
        if pattern.kind == "causal":
            s[np.triu_indices(nq, k=1)] = MASK
        out_arr[:nq, :nk] = s
    out = Matrix.wrap(out_arr)
    if tape is not None:
        finite = pattern.dense_mask()[: q.rows, : k.rows]
        def backward(g, grads):
            gm = np.where(finite, g, 0.0)
            accumulate(grads, q, (gm @ k.data) * scl)
            accumulate(grads, k, (gm.T @ q.data) * scl)
        tape.record(out, (q, k), backward)
    return out


@dataclass
class AttentionOutput:
    values: Matrix
    weights: Matrix


def attend(scores: Matrix, v: Matrix, tape=None) -> AttentionOutput:
    """Row-softmax the scores and mix the values; weights are kept."""
    if scores.cols != v.rows:
        raise DimensionError(f"attend mismatch: scores {scores.shape}, values {v.shape}")
    w = softmax_row(scores, tape)
    return AttentionOutput(matmul(w, v, tape), w)


def multi_head_attend(qp: Matrix, kp: Matrix, vp: Matrix, pattern, h,
                      tape=None, weights_sink=None) -> Matrix:
    """Fused per-head attention over already-projected q/k/v (width d).

    Splits columns into h heads of width d/h, runs the sparse or dense path
    per head, and concatenates head outputs. One tape record covers the whole
    block; its backward is the hand-derived softmax/score VJP.
    """
    d = qp.cols
    if d % h != 0:
        raise ConfigError(f"model width {d} not divisible by heads {h}")
    if kp.cols != d or vp.cols != d:
        raise DimensionError(f"projected widths differ: {qp.shape} {kp.shape} {vp.shape}")
    if kp.rows != vp.rows:
        raise DimensionError(f"key/value row mismatch: {kp.shape} vs {vp.shape}")
    dk = d // h
    sparse = pattern.kind in ("local", "global", "local_global")
    out_arr = np.zeros((qp.rows, d), dtype=qp.data.dtype)
    saved_heads = []
    call_bytes = 0
    for j in range(h):
        sl = slice(j * dk, (j + 1) * dk)
        qh, kh, vh = qp.data[:, sl], kp.data[:, sl], vp.data[:, sl]
        if sparse:
            o, saved, nbytes = _sparse_head_forward(qh, kh, vh, pattern)
        else:
            o, saved, nbytes = _dense_head_forward(qh, kh, vh, pattern)
        out_arr[:, sl] = o
        call_bytes += nbytes
        if tape is not None:
            saved_heads.append(saved)
        if weights_sink is not None:
            weights_sink(j, _densify_weights(saved, pattern, kp.rows, qp.data.dtype))
    tracker.observe(call_bytes)
    out = Matrix.wrap(out_arr)
    if tape is not None:
        def backward(g, grads):
            dq = np.zeros_like(qp.data)
            dk_ = np.zeros_like(kp.data)
            dv = np.zeros_like(vp.data)
            for j2 in range(h):
                sl2 = slice(j2 * dk, (j2 + 1) * dk)
                qh2, kh2, vh2 = qp.data[:, sl2], kp.data[:, sl2], vp.data[:, sl2]
                if sparse:
                    _sparse_head_backward(g[:, sl2], qh2, kh2, vh2, saved_heads[j2],
                                          dq[:, sl2], dk_[:, sl2], dv[:, sl2])
                else:
                    _dense_head_backward(g[:, sl2], qh2, kh2, vh2, saved_heads[j2],
                                         dq[:, sl2], dk_[:, sl2], dv[:, sl2])
            accumulate(grads, qp, dq)
            accumulate(grads, kp, dk_)
            accumulate(grads, vp, dv)
        tape.record(out, (qp, kp, vp), backward)
    return out


def multi_head(q: Matrix, k: Matrix, v: Matrix, pattern, wq, wk, wv, wo, h,
               tape=None, weights_sink=None) -> Matrix:
    """Project, attend per head, concatenate, and apply the output projection."""
    qp = matmul(q, wq, tape)
    kp = matmul(k, wk, tape)
    vp = matmul(v, wv, tape)
    mixed = multi_head_attend(qp, kp, vp, pattern, h, tape, weights_sink)
    return matmul(mixed, wo, tape)


# ---------------------------------------------------------------------------
# exact work accounting


def count_score_entries(pattern) -> int:
    """Number of (query, key) score entries the pattern allows."""
    return pattern.n_allowed_pairs()


def count_score_flops(pattern, d_k) -> int:
    """Exact multiply-accumulate count for computing the allowed scores."""
    return pattern.n_allowed_pairs() * int(d_k)


# ---------------------------------------------------------------------------
# attention map export


def export_weights_csv(path, weights):
    """Write nonzero attention weights as 'query,key,weight' rows."""
    w = weights.data if isinstance(weights, Matrix) else np.asarray(weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query,key,weight\n")
        qs, ks = np.nonzero(w)
        for qi, ki in zip(qs, ks):
            fh.write(f"{qi},{ki},{w[qi, ki]:.10g}\n")


def export_weights_pgm(path, weights):
    """8-bit grayscale P5 image, intensities scaled to the max weight."""
    w = weights.data if isinstance(weights, Matrix) else np.asarray(weights)
    peak = float(w.max())
    if peak <= 0.0:
        img = np.zeros(w.shape, dtype=np.uint8)
    else:
        img = np.rint(255.0 * (w / peak)).astype(np.uint8)
    header = f"P5\n{w.shape[1]} {w.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())


def read_pgm(path):
    """Parse back a P5 file written by export_weights_pgm."""
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
