"""Attention patterns and kernels.

A SparsityPattern declares which (query, key) pairs of its
``valid_queries`` x ``valid_len`` rows may interact. Patterns and kernels
see only those rows: the model slices padding off before attention runs.

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
dense kinds are one batched masked matmul over all heads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .data_io import atomic_open
from .numerics import MASK, DimensionError, accumulate, matmul
from .segmentation import ShotList


class ConfigError(ValueError):
    """A structural configuration value is invalid (window, heads, kind...)."""


SELF_KINDS = ("full", "local", "global", "local_global")
PATTERN_KINDS = SELF_KINDS + ("causal", "cross")

# short aliases used by the bench harness and the command line
PATTERN_ALIASES = MappingProxyType(
    {"fa": "full", "la": "local", "ga": "global", "lga": "local_global"})


def canonical_kind(kind):
    kind = PATTERN_ALIASES.get(kind, kind)
    if kind not in PATTERN_KINDS:
        raise ConfigError(f"unknown attention pattern {kind!r}")
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
        """Number of allowed (query, key) pairs, in closed form."""
        nq, nk = self.valid_queries, self.valid_len
        if self.kind in ("full", "cross"):
            return nq * nk
        i = np.arange(nq)
        if self.kind == "causal":
            return int(np.minimum(i + 1, nk).sum())
        hw, anchors, rows = self.band_geometry()
        band = np.minimum(i + hw, nk - 1) - np.maximum(i - hw, 0) + 1
        in_band = (np.searchsorted(anchors, i + hw, side="right")
                   - np.searchsorted(anchors, i - hw, side="left"))
        per_row = band + anchors.size - in_band
        per_row[rows] = nk
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


def _check_window(w):
    if w < 1 or w % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {w}")


def _check_len(n):
    if n < 1:
        raise DimensionError(f"attention needs >= 1 row, got {n}")


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


def _validated_shots(shots, n):
    return ShotList(list(shots)).validate(n)


def build_lga_pattern(n, window, shots, globals_per_shot=3) -> SparsityPattern:
    """Banded window plus shot-anchor global tokens over n rows."""
    _check_window(window)
    _check_len(n)
    anchors = shot_anchor_tokens(_validated_shots(shots, n), globals_per_shot)
    return SparsityPattern("local_global", n, n, window, anchors)


def build_la_pattern(n, window) -> SparsityPattern:
    _check_window(window)
    _check_len(n)
    return SparsityPattern("local", n, n, window)


def build_ga_pattern(n, shots, globals_per_shot=3) -> SparsityPattern:
    _check_len(n)
    anchors = shot_anchor_tokens(_validated_shots(shots, n), globals_per_shot)
    return SparsityPattern("global", n, n, global_tokens=anchors)


def build_full_pattern(n) -> SparsityPattern:
    _check_len(n)
    return SparsityPattern("full", n, n)


def build_causal_pattern(n) -> SparsityPattern:
    _check_len(n)
    return SparsityPattern("causal", n, n)


def build_cross_pattern(queries, keys) -> SparsityPattern:
    _check_len(queries)
    _check_len(keys)
    return SparsityPattern("cross", queries, keys)


def build_encoder_pattern(kind, n, valid_len, window, shots, globals_per_shot=3):
    """Dispatch on a self-attention pattern kind (accepts fa/la/ga/lga aliases)."""
    # n duplicates valid_len only because perfbench/tests calls this form
    if n != valid_len:
        raise DimensionError(f"encoder pattern over {valid_len} of {n} rows")
    kind = canonical_kind(kind)
    if kind == "full":
        return build_full_pattern(n)
    if kind == "local":
        return build_la_pattern(n, window)
    if kind == "global":
        return build_ga_pattern(n, shots, globals_per_shot)
    if kind == "local_global":
        return build_lga_pattern(n, window, shots, globals_per_shot)
    raise ConfigError(f"{kind!r} is not an encoder self-attention pattern")


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
    s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True, dtype=np.float64).astype(s.dtype)


def _band_forward(q, k, v, pattern, scl):
    """Band plus anchor attention of all heads over (h, d_k, n) operands.

    Returns the (h, d_k, n) output and the state backward needs.
    """
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
    wr = q[:, :, rows].transpose(0, 2, 1) @ k          # (h, dense rows, n)
    wr *= scl
    _softmax_(wr, axis=2)
    out[:, :, rows] = v @ wr.transpose(0, 2, 1)
    return out, (q, kp, vp, w, wr, hw, anchors, rows, scl)


def _band_backward(g, saved):
    """(dq, dk, dv) of the band kernel for an (h, d_k, n) output gradient."""
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


def _band_maps(saved, pattern):
    """Dense (h, queries, keys) weight maps of a band kernel call."""
    q, _kp, _vp, w, wr, hw, anchors, rows, _scl = saved
    h, _dk, n = q.shape
    i = np.arange(n)
    keys = np.concatenate([i + np.arange(-hw, hw + 1)[:, None],
                           np.broadcast_to(anchors[:, None], (anchors.size, n))])
    queries = np.broadcast_to(i, keys.shape)
    keep = ~pattern.band_blocked
    maps = np.zeros((h, n, n), dtype=w.dtype)
    maps[:, queries[keep], keys[keep]] = w[:, keep]
    maps[:, rows] = wr
    return maps


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
    its backward is the hand-derived softmax/score VJP. Given a dict
    ``maps``, the call appends its dense (h, queries, keys) weights to
    ``maps[pattern.kind]``, so a stack of layers leaves one entry per layer
    under each kind it ran. Only the teacher-forced ``model.forward`` passes
    ``maps`` down; the cached decode never captures weights.
    """
    d = qp.shape[1]
    if d % h != 0:
        raise ConfigError(f"model width {d} not divisible by heads {h}")
    want = (pattern.valid_queries, d), (pattern.valid_len, d), (pattern.valid_len, d)
    if (qp.shape, kp.shape, vp.shape) != want:
        raise DimensionError(f"q/k/v shapes {qp.shape} {kp.shape} {vp.shape}, expected {want}")
    scl = qp.dtype.type(1.0 / math.sqrt(d // h))
    band = pattern.kind in BAND_KINDS
    if band:
        q, k, v = (np.ascontiguousarray(_heads(x, h).transpose(0, 2, 1))
                   for x in (qp, kp, vp))
        out, saved = _band_forward(q, k, v, pattern, scl)
        out = out.transpose(0, 2, 1)
    else:
        q, k, v = _heads(qp, h), _heads(kp, h), _heads(vp, h)
        out, w = _dense_forward(q, k, v, pattern, scl)
    if maps is not None:
        maps.setdefault(pattern.kind, []).append(
            _band_maps(saved, pattern) if band else w)
    result = _merge(out)
    if tape is not None:
        def backward(g, grads):
            if band:
                gh = np.ascontiguousarray(_heads(g, h).transpose(0, 2, 1))
                grad_heads = (x.transpose(0, 2, 1) for x in _band_backward(gh, saved))
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
        for qi, ki in zip(qs, ks):
            fh.write(f"{qi},{ki},{w[qi, ki]:.10g}\n")


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

