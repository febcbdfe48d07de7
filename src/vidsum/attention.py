"""Attention patterns and kernels.

A SparsityPattern declares which (query, key) pairs of its
``valid_queries`` x ``valid_len`` rows may interact, and checks itself when
built: a known kind, at least one query and one key row, an odd window >= 1.
``build_encoder_pattern`` builds the four encoder kinds (it turns shots into
anchors); ``build_causal_pattern`` and ``build_cross_pattern`` the decoder's.
Patterns and kernels see only the pattern's rows: the model slices padding
off before attention runs.

* ``full``          every pair
* ``local``         a banded window, floor(w/2) keys to each side
* ``global``        every query sees itself plus the shot-anchor tokens, so
                    an anchor query sees only the anchor set
* ``local_global``  union of the band and the anchors (the encoder pattern);
                    here anchor queries attend every key
* ``causal``        key index <= query index (decoder self-attention)
* ``cross``         decoder queries against all encoder keys

Scores are q . k / sqrt(d_k) on allowed pairs and the -inf sentinel
elsewhere. One kernel call covers all heads at once. The banded kinds are a
half-window plus an anchor array (``global`` is a band of width 1): the band
scores come from 2 hw + 1 shifted products against zero-padded keys, the
anchor columns from one batched matmul with the anchors inside the band
masked so no key counts twice, and one softmax runs over [band | anchors].
``local_global`` anchor rows are a dense block over every key. The work and
memory are linear in the length, and no T x T score matrix is built. The
dense kinds are one batched masked matmul over all heads. A band record
keeps no derivable array: backward rebuilds the operand layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .data_io import atomic_open
from .numerics import MASK, DimensionError, accumulate, matmul
from .segmentation import check_shots


class ConfigError(ValueError):
    """A structural configuration value is invalid (window, heads, kind...)."""


SELF_KINDS = ("full", "local", "global", "local_global")
PATTERN_KINDS = SELF_KINDS + ("causal", "cross")
WINDOW_KINDS = ("local", "local_global")  # the kinds that read the window

# short aliases used by the bench harness and the command line
PATTERN_ALIASES = MappingProxyType(
    {"fa": "full", "la": "local", "ga": "global", "lga": "local_global"})


def canonical_kind(kind):
    kind = PATTERN_ALIASES.get(kind, kind)
    if kind not in PATTERN_KINDS:
        raise ConfigError(f"unknown attention pattern {kind!r} (choose from "
                          f"{', '.join((*PATTERN_ALIASES, *PATTERN_KINDS))})")
    return kind


# ---------------------------------------------------------------------------
# pattern construction


@dataclass(frozen=True)
class SparsityPattern:
    """Allowed (query, key) pairs over exactly the rows attention runs on;
    frozen, so the cached ``band_blocked`` mask cannot go stale."""

    kind: str
    valid_queries: int    # query rows the kernel takes
    valid_len: int        # key (and value) rows the kernel takes
    window: int = 1
    global_tokens: tuple = ()

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ConfigError(f"unknown attention pattern {self.kind!r}")
        # the window before the rows: an even window over 0 rows is a ConfigError
        if self.window < 1 or self.window % 2 == 0:
            raise ConfigError(f"window must be odd and >= 1, got {self.window}")
        if min(self.valid_queries, self.valid_len) < 1:
            raise DimensionError("attention needs >= 1 query and key row, got "
                                 f"{self.valid_queries} x {self.valid_len}")

    @property
    def half_window(self):
        return self.window // 2

    def band_geometry(self):
        """(half-window, anchors, dense rows) of a banded kind.

        A query attends the keys within the half-window of itself plus the
        anchor keys; ``global`` has half-window 0 and ``local`` no anchors.
        The dense rows (the ``local_global`` anchors) attend every key
        instead.
        """
        anchors = np.array(self.global_tokens, dtype=np.int64)
        none = anchors[:0]
        if self.kind == "local":
            return self.half_window, none, none
        if self.kind == "global":
            return 0, anchors, none
        return self.half_window, anchors, anchors

    def n_allowed_pairs(self) -> int:
        """Number of allowed (query, key) pairs; a banded kind counts the
        open slots of ``band_blocked``, and a dense row every key."""
        nq, nk = self.valid_queries, self.valid_len
        if self.kind in ("full", "cross"):
            return nq * nk
        if self.kind == "causal":
            return int(np.minimum(np.arange(nq) + 1, nk).sum())
        per_row = np.count_nonzero(~self.band_blocked, axis=0)
        per_row[self.band_geometry()[2]] = nk
        return int(per_row.sum())

    @cached_property
    def band_blocked(self):
        """Read-only mask of a banded kind's [band | anchors] score slots:
        band keys past either end of the rows, and anchors inside the band,
        which the band covers. Built once per pattern, which a stack's layers
        share."""
        hw, anchors, _rows = self.band_geometry()
        i = np.arange(self.valid_len)
        band = i + np.arange(-hw, hw + 1)[:, None]
        blocked = np.concatenate([(band < 0) | (band >= i.size),
                                  np.abs(anchors[:, None] - i) <= hw])
        blocked.flags.writeable = False
        return blocked


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


def build_causal_pattern(n) -> SparsityPattern:
    return SparsityPattern("causal", n, n)


def build_cross_pattern(queries, keys) -> SparsityPattern:
    return SparsityPattern("cross", queries, keys)


def build_encoder_pattern(kind, n, valid_len, window, shots, globals_per_shot=3):
    """The self-attention pattern of an encoder kind (fa/la/ga/lga aliases
    accepted) over n rows. Only ``local``/``local_global`` read the window
    and only ``global``/``local_global`` read the shots, which must tile
    [0, n)."""
    # n duplicates valid_len only because perfbench/tests calls this form
    if n != valid_len:
        raise DimensionError(f"encoder pattern over {valid_len} of {n} rows")
    kind = canonical_kind(kind)
    if kind not in SELF_KINDS:
        raise ConfigError(f"{kind!r} is not an encoder self-attention pattern")
    pattern = SparsityPattern(kind, n, n, window if kind in WINDOW_KINDS else 1)
    if kind in ("full", "local"):
        return pattern
    anchors = shot_anchor_tokens(check_shots(shots, n), globals_per_shot)
    return replace(pattern, global_tokens=anchors)


# ---------------------------------------------------------------------------
# all-heads kernels

BAND_KINDS = ("local", "global", "local_global")


def _heads(x, h):
    """An (n, h * d_k) array as an (h, n, d_k) view."""
    return x.reshape(x.shape[0], h, -1).transpose(1, 0, 2)


def _merge(x):
    """Per-head (h, n, d_k) rows as one (n, h * d_k) array: a copy, unless
    the heads already lie in that order (one head or one row)."""
    h, n, dk = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dk)


def _softmax_(s, axis):
    """In-place softmax along ``axis``; MASK entries become exact zeros.

    The normalizer is summed in float64: along a strided axis numpy adds
    the terms one after another, which in float32 loses more than the
    pairwise sum of a contiguous row.
    """
    s -= np.maximum.reduce(s, axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= np.add.reduce(s, axis=axis, keepdims=True,
                       dtype=np.float64).astype(s.dtype)


def _band_layouts(qp, kp, vp, h, hw):
    """q of all h heads as a contiguous (h, d_k, n) copy, and k and v as
    (h, d_k, n + 2 hw) copies with hw zero columns at each end."""
    n, d = qp.shape
    kpad, vpad = np.zeros((2, h, d // h, n + 2 * hw), dtype=qp.dtype)
    kpad[:, :, hw:hw + n] = _heads(kp, h).transpose(0, 2, 1)
    vpad[:, :, hw:hw + n] = _heads(vp, h).transpose(0, 2, 1)
    return np.ascontiguousarray(_heads(qp, h).transpose(0, 2, 1)), kpad, vpad


def _band_forward(qp, kp, vp, h, pattern, scl):
    """Band plus anchor attention of all heads over (n, d) projections.

    Returns the (h, n, d_k) output and the weights backward needs.
    """
    hw, anchors, rows = pattern.band_geometry()
    q, kp, vp = _band_layouts(qp, kp, vp, h, hw)
    n = q.shape[2]
    width = 2 * hw + 1
    k, v = (np.ascontiguousarray(x[:, :, hw:hw + n]) for x in (kp, vp))
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
    wr = q[:, :, rows].transpose(0, 2, 1) @ k          # (h, dense rows, n)
    wr *= scl
    _softmax_(wr, axis=2)
    out[:, :, rows] = v @ wr.transpose(0, 2, 1)
    return out.transpose(0, 2, 1), (w, wr, hw, anchors, rows, scl)


def _band_backward(g, qp, kp, vp, h, saved):
    """(h, n, d_k) gradients of q, k and v for an (n, d) output gradient."""
    w, wr, hw, anchors, rows, scl = saved
    g = np.ascontiguousarray(_heads(g, h).transpose(0, 2, 1))
    q, kp, vp = _band_layouts(qp, kp, vp, h, hw)
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
    return (x.transpose(0, 2, 1) for x in (dq, dk, dv))


def _band_map(saved, pattern, head):
    """Dense (queries, keys) weights of one head of a band kernel call."""
    w, wr, hw, anchors, rows, _scl = saved
    n = pattern.valid_len
    i = np.arange(n)
    keys = np.concatenate([i + np.arange(-hw, hw + 1)[:, None],
                           np.broadcast_to(anchors[:, None], (anchors.size, n))])
    queries = np.broadcast_to(i, keys.shape)
    keep = ~pattern.band_blocked
    dense = np.zeros((n, n), dtype=w.dtype)
    dense[queries[keep], keys[keep]] = w[head][keep]
    dense[rows] = wr[head]
    return dense


def _dense_forward(q, k, v, pattern, scl):
    """Masked attention of all heads over (h, rows, d_k) operands."""
    w = q @ k.transpose(0, 2, 1)
    w *= scl
    if pattern.kind == "causal":
        w[:, ~np.tri(w.shape[1], w.shape[2], dtype=bool)] = MASK
    _softmax_(w, axis=2)
    return w @ v, w


def _dense_backward(g, q, k, v, w, scl):
    ds = g @ v.transpose(0, 2, 1)
    ds -= (ds * w).sum(axis=2, keepdims=True)
    ds *= w
    ds *= scl
    return ds @ k, ds.transpose(0, 2, 1) @ q, w.transpose(0, 2, 1) @ g


# ---------------------------------------------------------------------------
# public ops


def multi_head_attend(qp: np.ndarray, kp: np.ndarray, vp: np.ndarray, pattern,
                      h, tape=None, maps=None) -> np.ndarray:
    """Attention of all h heads over already-projected q/k/v (width d).

    The operands hold exactly the pattern's rows: ``valid_queries`` query
    rows and ``valid_len`` key/value rows (callers slice padding off first).
    Head j reads columns [j d/h, (j+1) d/h) of each operand; the outputs
    are concatenated the same way. One tape record covers the whole block;
    its backward is the hand-derived softmax/score VJP. Given ``maps``, it
    calls ``maps(pattern, head)``; ``head(j)`` is head j's dense weights.
    """
    d = qp.shape[1]
    if d % h != 0:
        raise ConfigError(f"model width {d} not divisible by heads {h}")
    want = (pattern.valid_queries, d), (pattern.valid_len, d), (pattern.valid_len, d)
    if (qp.shape, kp.shape, vp.shape) != want:
        raise DimensionError(f"q/k/v shapes {qp.shape} {kp.shape} {vp.shape}, expected {want}")
    scl = qp.dtype.type(1.0 / math.sqrt(d // h))
    band = pattern.kind in BAND_KINDS
    if band:  # binds no q, k, v or w: the record keeps no operand copy
        out, saved = _band_forward(qp, kp, vp, h, pattern, scl)
    else:
        q, k, v = _heads(qp, h), _heads(kp, h), _heads(vp, h)
        out, w = _dense_forward(q, k, v, pattern, scl)
    if maps is not None:
        maps(pattern, (lambda j: _band_map(saved, pattern, j)) if band
             else (lambda j: w[j].copy()))
    result = _merge(out)
    if tape is not None:
        def backward(g, grads):
            if band:
                grad_heads = _band_backward(g, qp, kp, vp, h, saved)
            else:
                grad_heads = _dense_backward(_heads(g, h), q, k, v, w, scl)
            for mat, gx in zip((qp, kp, vp), grad_heads):
                accumulate(grads, mat, _merge(gx))
        tape.record(result, backward)
    return result


def multi_head(q: np.ndarray, k: np.ndarray, v: np.ndarray, pattern, wq, wk,
               wv, wo, h, tape=None, maps=None) -> np.ndarray:
    """Project, attend with all heads, and apply the output projection."""
    qp = matmul(q, wq, tape)
    kp = matmul(k, wk, tape)
    vp = matmul(v, wv, tape)
    mixed = multi_head_attend(qp, kp, vp, pattern, h, tape, maps)
    return matmul(mixed, wo, tape)


# ---------------------------------------------------------------------------
# exact work accounting


# kept for perfbench, which is handed this function as its score counter
def count_score_entries(pattern) -> int:
    """Number of (query, key) score entries the pattern allows."""
    return pattern.n_allowed_pairs()


# ---------------------------------------------------------------------------
# attention map export


def export_weights_csv(path, weights):
    """Write nonzero attention weights as 'query,key,weight' rows."""
    w = np.asarray(weights)
    with atomic_open(path) as fh:
        fh.write("query,key,weight\n")
        qs, ks = np.nonzero(w)
        fh.writelines("%d,%d,%.10g\n" % row for row in
                      zip(qs.tolist(), ks.tolist(), w[qs, ks].tolist()))


def export_weights_pgm(path, weights):
    """8-bit grayscale P5 image, intensities scaled to the max weight."""
    w = np.asarray(weights)
    peak = float(w.max())
    if peak <= 0.0:
        img = np.zeros(w.shape, dtype=np.uint8)
    else:
        img = np.rint(255.0 * (w / peak)).astype(np.uint8)
    header = f"P5\n{w.shape[1]} {w.shape[0]}\n255\n".encode("ascii")
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.tobytes())

