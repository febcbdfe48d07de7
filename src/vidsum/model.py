"""Encoder-decoder summarization model.

The encoder runs sparse (windowed + shot-anchor) self-attention over the
valid frames of a video; the decoder consumes embedded summary-frame
features under a causal mask, cross-attends into the encoder output, and a
linear head followed by a row softmax turns each decoder step into a
distribution over the video's frames.

All computation happens on the valid T frames only, so padding a video
changes nothing bitwise and no gradient can reach padded positions.
"""

import dataclasses
import json
import math
import numbers
import struct

import numpy as np

from .attention import (
    ConfigError,
    SELF_KINDS,
    WINDOW_KINDS,
    build_causal_pattern,
    build_cross_pattern,
    build_encoder_pattern,
    canonical_kind,
    multi_head,
    multi_head_attend,
)
from .data_io import DataError, ParseError, atomic_open
from .numerics import (
    add,
    col_slice,
    concat_rows,
    ffn,
    linear,
    layer_norm,
    matmul,
    project,
    softmax_row,
    xavier_uniform,
)
from .segmentation import resolve_shots
from .selection import make_summary

CHECKPOINT_MAGIC = b"FTNC"
CHECKPOINT_VERSION = 2
# version 2 stores each tensor's payload dtype, keyed here by item size
_TENSOR_CODES = {4: b"<f4", 8: b"<f8"}

_DTYPES = {"float32": np.float32, "float64": np.float64}


def check_int_fields(config, error):
    """Raise ``error`` if an int field of the dataclass ``config`` holds a
    bool or a non-integer; numpy integers pass and become ints."""
    for f in dataclasses.fields(config):
        if f.type in (int, "int"):
            value = getattr(config, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise error("%s must be an integer, got %r" % (f.name, value))
            setattr(config, f.name, int(value))


@dataclasses.dataclass
class ModelConfig:
    n_layers: int = 6
    d: int = 64
    d_ff: int = 2048
    h: int = 8
    window: int = 17
    input_dim: int = 1024
    max_len: int = 1536
    seed: int = 0
    attention: str = "local_global"
    globals_per_shot: int = 3
    kts_max_shots: int = 0  # 0 = scale with length
    kts_penalty: float = 1.0
    summary_ratio: float = 0.15
    decode_aggregate: str = "max"
    ln_eps: float = 1e-8
    pos_base: float = 10000.0
    dtype: str = "float32"

    def __post_init__(self):
        check_int_fields(self, ConfigError)
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.h < 1:
            raise ConfigError("h must be >= 1")
        if self.d < 1 or self.d % self.h != 0:
            raise ConfigError("d=%d must be a positive multiple of h=%d"
                              % (self.d, self.h))
        if self.d_ff < 1 or self.input_dim < 1 or self.max_len < 1:
            raise ConfigError("d_ff, input_dim, max_len must be positive")
        self.attention = canonical_kind(self.attention)
        if self.attention not in SELF_KINDS:
            raise ConfigError("encoder attention must be one of %s"
                              % sorted(SELF_KINDS))
        if self.attention in WINDOW_KINDS and (self.window < 1 or self.window % 2 == 0):
            raise ConfigError("window must be odd and >= 1, got %d" % self.window)
        if not 1 <= self.globals_per_shot <= 3:
            raise ConfigError("globals_per_shot must be 1..3")
        if not 0.0 < self.summary_ratio <= 1.0:
            raise ConfigError("summary_ratio must be in (0, 1]")
        if self.decode_aggregate not in ("max", "mean"):
            raise ConfigError("decode_aggregate must be 'max' or 'mean'")
        if self.dtype not in _DTYPES:
            raise ConfigError("dtype must be one of %s" % sorted(_DTYPES))
        for name in ("kts_penalty", "ln_eps", "pos_base"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("%s must be finite" % name)
        if self.kts_max_shots < 0 or self.kts_penalty < 0:
            raise ConfigError("kts settings must be non-negative")
        if self.ln_eps <= 0 or self.pos_base <= 0:
            raise ConfigError("ln_eps and pos_base must be positive")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError("unknown config keys: %s" % sorted(unknown))
        return cls(**doc)


# ---------------------------------------------------------------------------
# parameters


def _param_specs(config):
    """(name, rows, cols, init) for every parameter, in creation order."""
    d, dff = config.d, config.d_ff
    specs = [
        ("embed.enc.w", config.input_dim, d, "xavier"),
        ("embed.enc.b", 1, d, "zeros"),
        ("embed.dec.w", config.input_dim, d, "xavier"),
        ("embed.dec.b", 1, d, "zeros"),
        ("decoder.start", 1, d, "xavier"),
    ]

    def block(prefix):
        return [
            (prefix + ".wq", d, d, "xavier"),
            (prefix + ".wk", d, d, "xavier"),
            (prefix + ".wv", d, d, "xavier"),
            (prefix + ".wo", d, d, "xavier"),
        ]

    def ln(prefix):
        return [(prefix + ".g", 1, d, "ones"), (prefix + ".b", 1, d, "zeros")]

    def ffn(prefix):
        return [
            (prefix + ".w1", d, dff, "xavier"),
            (prefix + ".b1", 1, dff, "zeros"),
            (prefix + ".w2", dff, d, "xavier"),
            (prefix + ".b2", 1, d, "zeros"),
        ]

    for i in range(config.n_layers):
        p = "enc.%d" % i
        specs += block(p + ".attn") + ln(p + ".ln1") + ffn(p + ".ffn") + ln(p + ".ln2")
    for i in range(config.n_layers):
        p = "dec.%d" % i
        specs += block(p + ".self") + ln(p + ".ln1")
        specs += block(p + ".cross") + ln(p + ".ln2")
        specs += ffn(p + ".ffn") + ln(p + ".ln3")
    specs += [("head.w", d, config.max_len, "xavier"),
              ("head.b", 1, config.max_len, "zeros")]
    return specs


def init_params(config, seed=None) -> dict:
    """``{name: array}`` in ``_param_specs`` order."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    dt = config.np_dtype
    params = {}
    for name, rows, cols, kind in _param_specs(config):
        if kind == "xavier":
            params[name] = xavier_uniform(rows, cols, rng, dtype=dt)
        elif kind == "ones":
            params[name] = np.ones((rows, cols), dtype=dt)
        else:
            params[name] = np.zeros((rows, cols), dtype=dt)
    return params


# ---------------------------------------------------------------------------
# embedding


def positional_encoding(n, d, base=10000.0, dtype=np.float32) -> np.ndarray:
    """Sinusoidal table: PE[p, 2i] = sin(p / base^(2i/d)), odd = cos."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i2 = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(base, i2 / d)
    pe = np.zeros((n, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    return pe.astype(dtype)


def embed(features: np.ndarray, params, config, tape=None) -> np.ndarray:
    """The encoder's input: a linear projection to width d plus the
    sinusoidal position table. The features get no gradient."""
    x = project(features, params["embed.enc.w"], params["embed.enc.b"], tape)
    pe = positional_encoding(x.shape[0], config.d, config.pos_base, config.np_dtype)
    return add(x, pe, tape)


# ---------------------------------------------------------------------------
# layers


def _attn_block(params, prefix):
    return (params[prefix + ".wq"], params[prefix + ".wk"],
            params[prefix + ".wv"], params[prefix + ".wo"])


def _ffn(x, params, prefix, tape=None):
    try:
        return ffn(x, params[prefix + ".w1"], params[prefix + ".b1"],
                   params[prefix + ".w2"], params[prefix + ".b2"], tape)
    except FloatingPointError as err:
        raise FloatingPointError("%s: %s" % (prefix, err)) from None


def _ln(x, params, prefix, eps, tape=None):
    return layer_norm(x, params[prefix + ".g"], params[prefix + ".b"], eps, tape)


def encoder_layer(x: np.ndarray, pattern, params, prefix, config, tape=None,
                  maps=None) -> np.ndarray:
    wq, wk, wv, wo = _attn_block(params, prefix + ".attn")
    att = multi_head(x, x, x, pattern, wq, wk, wv, wo, config.h, tape, maps)
    x1 = _ln(add(x, att, tape), params, prefix + ".ln1", config.ln_eps, tape)
    x2 = _ln(add(x1, _ffn(x1, params, prefix + ".ffn", tape), tape),
             params, prefix + ".ln2", config.ln_eps, tape)
    return x2


def decoder_layer(s: np.ndarray, enc_out: np.ndarray, causal, cross, params,
                  prefix, config, tape=None, maps=None) -> np.ndarray:
    h, eps = config.h, config.ln_eps
    wq, wk, wv, wo = _attn_block(params, prefix + ".self")
    att = multi_head(s, s, s, causal, wq, wk, wv, wo, h, tape, maps)
    s1 = _ln(add(s, att, tape), params, prefix + ".ln1", eps, tape)
    wq, wk, wv, wo = _attn_block(params, prefix + ".cross")
    att = multi_head(s1, enc_out, enc_out, cross, wq, wk, wv, wo, h, tape, maps)
    s2 = _ln(add(s1, att, tape), params, prefix + ".ln2", eps, tape)
    s3 = _ln(add(s2, _ffn(s2, params, prefix + ".ffn", tape), tape),
             params, prefix + ".ln3", eps, tape)
    return s3


# ---------------------------------------------------------------------------
# encoder / decoder stacks


@dataclasses.dataclass
class EncodedVideo:
    y: np.ndarray  # valid_len x d, last encoder layer
    valid_len: int
    features: np.ndarray  # raw valid_len x input_dim, for decode-time embeds


def _valid_features(features, config, valid_len):
    """The valid rows of ``features`` in the model's dtype, checked to fit
    ``config``: at most ``max_len`` rows of width ``input_dim``, all finite."""
    arr = np.asarray(features)
    if arr.ndim != 2:
        raise DataError("features must be 2-D, got shape %r" % (arr.shape,))
    if valid_len is not None:
        if not 1 <= valid_len <= arr.shape[0]:
            raise DataError("valid_len %d out of range for %d rows"
                            % (valid_len, arr.shape[0]))
        arr = arr[:valid_len]  # padding rows never enter any computation
    if arr.shape[0] > config.max_len:
        raise DataError("video length %d exceeds max_len %d"
                        % (arr.shape[0], config.max_len))
    if arr.shape[1] != config.input_dim:
        raise DataError("config input_dim=%d but features have dim=%d"
                        % (config.input_dim, arr.shape[1]))
    arr = np.ascontiguousarray(arr, dtype=config.np_dtype)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise DataError("non-finite feature values in valid row(s) %s"
                        % bad[:8].tolist())
    return arr


def check_video(video, config):
    """``_valid_features`` of a VideoRecord, its DataError naming the video;
    run it before any work on the video, KTS included."""
    try:
        return _valid_features(video.features, config, None)
    except DataError as exc:
        raise DataError("video %s: %s" % (video.video_id, exc)) from None


def encode_video(features, shots, config, params, tape=None, maps=None,
                 valid_len=None) -> EncodedVideo:
    """Run the encoder stack over the valid frames only."""
    valid = _valid_features(features, config, valid_len)
    t = valid.shape[0]
    pattern = build_encoder_pattern(
        config.attention, t, t, config.window, shots, config.globals_per_shot
    )
    x = embed(valid, params, config, tape)
    for i in range(config.n_layers):
        x = encoder_layer(x, pattern, params, "enc.%d" % i, config, tape, maps)
    return EncodedVideo(y=x, valid_len=t, features=valid)


def _decoder_inputs(encoded, teacher_frames, config, params, tape):
    """Shifted-right teacher inputs: [start, embed(f_1), ..., embed(f_{L-1})]."""
    l = len(teacher_frames)
    start = params["decoder.start"]
    if l > 1:
        rows = encoded.features[np.asarray(teacher_frames[:-1], dtype=np.int64)]
        emb = project(rows, params["embed.dec.w"], params["embed.dec.b"], tape)
        seq = concat_rows([start, emb], tape)
    else:
        seq = start
    pe = positional_encoding(l, config.d, config.pos_base, config.np_dtype)
    return add(seq, pe, tape)


def _decoder_stack(seq, encoded, config, params, tape, maps=None):
    l = seq.shape[0]
    causal = build_causal_pattern(l)
    cross = build_cross_pattern(l, encoded.valid_len)
    s = seq
    for i in range(config.n_layers):
        s = decoder_layer(s, encoded.y, causal, cross, params, "dec.%d" % i,
                          config, tape, maps)
    return s


def output_head(dec_out: np.ndarray, t, params, tape=None) -> np.ndarray:
    logits = linear(dec_out, params["head.w"], params["head.b"], tape)
    return softmax_row(col_slice(logits, 0, t, tape), tape)


def forward(features, shots, teacher_frames, config, params, tape=None,
            valid_len=None, maps=None) -> np.ndarray:
    """Teacher-forced pass; returns an L x T matrix of frame distributions.

    Given ``maps``, every attention call hands it its pattern and weights
    in layer order (see ``multi_head_attend``); the cached decode never does.
    """
    encoded = encode_video(features, shots, config, params, tape, maps,
                           valid_len)
    if len(teacher_frames) == 0:
        raise ValueError("teacher summary must be nonempty")
    bad = [f for f in teacher_frames if not 0 <= int(f) < encoded.valid_len]
    if bad:
        raise ValueError("teacher frames %r outside [0, %d)"
                         % (bad, encoded.valid_len))
    seq = _decoder_inputs(encoded, list(teacher_frames), config, params, tape)
    dec = _decoder_stack(seq, encoded, config, params, tape, maps)
    return output_head(dec, encoded.valid_len, params, tape)


def decode_autoregressive(encoded, config, params):
    """Free-running decode; returns per-frame scores of length valid_len.

    Runs ceil(summary_ratio * T) steps from the learned start token, feeding
    each step's argmax frame back in.  A frame's score aggregates its softmax
    probability over steps (max by default): a running float64 maximum, or a
    running sum divided by the step count for ``mean``, so no (steps, T)
    table is kept. Both equal ``.max(axis=0)`` / ``.mean(axis=0)`` of the
    stacked step rows bit for bit, since numpy reduces such a table row by
    row in the same order.

    Decoding is incremental. Each layer projects the encoder output into its
    cross-attention K/V once per video and keeps the self-attention K/V of
    earlier steps in a preallocated (l_max, d) cache, so a step embeds only
    the newest token and pushes that one row through the layers, in
    ``decoder_layer``'s sublayer order, and the output head.  Causal
    self-attention never changes earlier rows, and LayerNorm, the FFN and the
    head act row by row, so every step row equals the last row of a full
    rerun over the prefix up to the summation order of the one-row matrix
    products.
    """
    t = encoded.valid_len
    l_max = max(1, int(np.ceil(config.summary_ratio * t)))
    h, eps, d, dt = config.h, config.ln_eps, config.d, config.np_dtype
    caches = []  # per layer: cross K, cross V, self K cache, self V cache
    for i in range(config.n_layers):
        _, ck, cv, _ = _attn_block(params, "dec.%d.cross" % i)
        caches.append((matmul(encoded.y, ck), matmul(encoded.y, cv),
                       np.zeros((l_max, d), dtype=dt),
                       np.zeros((l_max, d), dtype=dt)))
    cross = build_cross_pattern(1, t)
    pe = positional_encoding(l_max, d, config.pos_base, dt)
    agg = None  # the running max or sum of the step rows
    frame = None
    for step in range(l_max):
        if frame is None:
            token = params["decoder.start"]
        else:
            token = project(encoded.features[frame:frame + 1],
                            params["embed.dec.w"], params["embed.dec.b"])
        s = add(token, pe[step:step + 1])
        seen = build_cross_pattern(1, step + 1)  # the cached rows 0..step
        for i, (cross_k, cross_v, self_k, self_v) in enumerate(caches):
            p = "dec.%d" % i
            try:
                wq, wk, wv, wo = _attn_block(params, p + ".self")
                self_k[step] = matmul(s, wk)[0]
                self_v[step] = matmul(s, wv)[0]
                mixed = multi_head_attend(matmul(s, wq), self_k[:step + 1],
                                          self_v[:step + 1], seen, h)
                s1 = _ln(add(s, matmul(mixed, wo)), params, p + ".ln1", eps)
                cq, _, _, co = _attn_block(params, p + ".cross")
                mixed = multi_head_attend(matmul(s1, cq), cross_k, cross_v,
                                          cross, h)
                s2 = _ln(add(s1, matmul(mixed, co)), params, p + ".ln2", eps)
                s = _ln(add(s2, _ffn(s2, params, p + ".ffn")), params,
                        p + ".ln3", eps)
                if not np.isfinite(s).all():
                    raise FloatingPointError("non-finite output")
            except FloatingPointError as err:
                raise FloatingPointError("decoder layer %d at decode step %d: %s"
                                         % (i, step, err)) from None
        row = output_head(s, t, params)[0].astype(np.float64)
        frame = int(np.argmax(row))
        if agg is None:
            agg = row
        elif config.decode_aggregate == "max":
            np.maximum(agg, row, out=agg)
        else:
            agg += row
    if config.decode_aggregate == "max":
        return agg
    return agg / l_max


def summarize(video, config, params):
    """VideoRecord -> (SummaryResult, frame scores, shots)."""
    # checked before KTS, which is O(max_shots * T^2)
    features = check_video(video, config)
    shots = resolve_shots(video, max_shots=config.kts_max_shots,
                          penalty=config.kts_penalty)
    encoded = encode_video(features, shots, config, params)
    scores = decode_autoregressive(encoded, config, params)
    result = make_summary(scores, shots, budget_ratio=config.summary_ratio)
    return result, scores, shots


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config, params):
    """Write a version-2 ``.ftnc`` file atomically (temp file + rename)."""
    cfg_bytes = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(params)))
        for name, m in params.items():
            nb = name.encode("utf-8")
            code = _TENSOR_CODES[m.dtype.itemsize]
            fh.write(struct.pack("<III", len(nb), *m.shape))
            fh.write(nb)
            fh.write(code)
            fh.write(np.ascontiguousarray(m, dtype=code.decode()).tobytes())


def load_checkpoint(path):
    """Read a version-1 (all ``<f4``) or version-2 (per-tensor dtype) file.

    Every read is bounds-checked, so a file cut at any byte raises
    ParseError. Returns the config and ``{name: array}`` in
    ``_param_specs`` order.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(raw):
            raise ParseError("truncated checkpoint %s in %s" % (path, what),
                             len(raw))
        off += n
        return raw[off - n:off]

    magic = take(4, "the magic")
    if magic != CHECKPOINT_MAGIC:
        raise ParseError("bad checkpoint magic %r in %s" % (magic, path), 0)
    version, cfg_len = struct.unpack("<II", take(8, "the header"))
    if version not in (1, CHECKPOINT_VERSION):
        raise ParseError("unsupported checkpoint version %d" % version, 4)
    cfg_raw = take(cfg_len, "the config")
    try:
        config = ModelConfig.from_dict(json.loads(cfg_raw))
    except (TypeError, ValueError) as exc:  # bad JSON or UTF-8, ConfigError
        raise ParseError("unreadable checkpoint config in %s: %s" % (path, exc), 12)
    (n_params,) = struct.unpack("<I", take(4, "the tensor count"))
    params = {}
    dt = config.np_dtype
    for _ in range(n_params):
        name_len, rows, cols = struct.unpack("<III", take(12, "a tensor header"))
        try:
            name = take(name_len, "a tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("tensor name is not UTF-8 in checkpoint %s" % path,
                             off - name_len)
        if name in params:
            raise ParseError("duplicate tensor %r in checkpoint %s" % (name, path),
                             off - name_len)
        code = b"<f4"
        if version >= 2:
            code = take(3, "the dtype of %r" % name)
            if code not in _TENSOR_CODES.values():
                raise ParseError("bad tensor dtype %r for %r in %s"
                                 % (code, name, path), off - 3)
        size = int(code[2:])
        payload = take(rows * cols * size, "%r" % name)
        vals = np.frombuffer(payload, dtype=code.decode()).astype(dt)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ParseError("non-finite value %r in tensor %r of checkpoint %s"
                             % (float(vals[bad[0]]), name, path),
                             off - len(payload) + int(bad[0]) * size)
        params[name] = vals.reshape(rows, cols)
    if off != len(raw):
        raise ParseError("trailing bytes in checkpoint %s" % path, off)
    specs = _param_specs(config)
    if list(params) != [name for name, *_ in specs]:
        raise DataError(
            "checkpoint %s parameter set does not match its config" % path
        )
    for name, rows, cols, _init in specs:
        if params[name].shape != (rows, cols):
            raise DataError(
                "checkpoint %s tensor %r is %dx%d, its config needs %dx%d"
                % ((path, name) + params[name].shape + (rows, cols)))
    return config, params
