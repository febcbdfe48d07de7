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
import struct

import numpy as np

from .attention import (
    ConfigError,
    SELF_KINDS,
    build_causal_pattern,
    build_cross_pattern,
    build_encoder_pattern,
    canonical_kind,
    multi_head,
    multi_head_attend,
)
from .data_io import DataError, ParseError, atomic_open
from .numerics import (
    Matrix,
    ParameterStore,
    add,
    col_slice,
    concat_rows,
    linear,
    layer_norm,
    matmul,
    relu,
    softmax_row,
    xavier_uniform,
)
from .segmentation import resolve_shots

CHECKPOINT_MAGIC = b"FTNC"
CHECKPOINT_VERSION = 2
# version 2 stores each tensor's payload dtype, keyed here by item size
_TENSOR_CODES = {4: b"<f4", 8: b"<f8"}

_DTYPES = {"float32": np.float32, "float64": np.float64}


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
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.d < 1 or self.d % self.h != 0:
            raise ConfigError("d=%d must be a positive multiple of h=%d"
                              % (self.d, self.h))
        if self.d_ff < 1 or self.input_dim < 1 or self.max_len < 1:
            raise ConfigError("d_ff, input_dim, max_len must be positive")
        self.attention = canonical_kind(self.attention)
        if self.attention not in SELF_KINDS:
            raise ConfigError("encoder attention must be one of %s"
                              % sorted(SELF_KINDS))
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


def init_params(config, seed=None) -> ParameterStore:
    rng = np.random.default_rng(config.seed if seed is None else seed)
    dt = config.np_dtype
    store = ParameterStore()
    for name, rows, cols, kind in _param_specs(config):
        if kind == "xavier":
            m = xavier_uniform(rows, cols, rng, dtype=dt)
        elif kind == "ones":
            m = Matrix.wrap(np.ones((rows, cols), dtype=dt))
        else:
            m = Matrix.zeros(rows, cols, dtype=dt)
        store.add(name, m)
    return store


# ---------------------------------------------------------------------------
# embedding


def positional_encoding(n, d, base=10000.0, dtype=np.float32) -> Matrix:
    """Sinusoidal table: PE[p, 2i] = sin(p / base^(2i/d)), odd = cos."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i2 = np.arange(0, d, 2, dtype=np.float64)
    angle = pos / np.power(base, i2 / d)
    pe = np.zeros((n, d), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    return Matrix.wrap(pe.astype(dtype))


def embed(features: Matrix, params, config, kind, tape=None) -> Matrix:
    """Linear projection to width d plus the sinusoidal position table."""
    if kind not in ("enc", "dec"):
        raise ValueError("kind must be 'enc' or 'dec'")
    if features.cols != config.input_dim:
        raise DataError(
            "feature width %d does not match config input_dim %d"
            % (features.cols, config.input_dim)
        )
    x = linear(features, params["embed.%s.w" % kind],
               params["embed.%s.b" % kind], tape)
    pe = positional_encoding(x.rows, config.d, config.pos_base, config.np_dtype)
    return add(x, pe, tape)


# ---------------------------------------------------------------------------
# layers


def _attn_block(params, prefix):
    return (params[prefix + ".wq"], params[prefix + ".wk"],
            params[prefix + ".wv"], params[prefix + ".wo"])


def _ffn(x, params, prefix, tape):
    hidden = relu(linear(x, params[prefix + ".w1"], params[prefix + ".b1"], tape), tape)
    return linear(hidden, params[prefix + ".w2"], params[prefix + ".b2"], tape)


def _ln(x, params, prefix, eps, tape):
    return layer_norm(x, params[prefix + ".g"], params[prefix + ".b"], eps, tape)


def encoder_layer(x: Matrix, pattern, params, prefix, config, tape=None,
                  maps=None) -> Matrix:
    wq, wk, wv, wo = _attn_block(params, prefix + ".attn")
    att = multi_head(x, x, x, pattern, wq, wk, wv, wo, config.h, tape, maps)
    x1 = _ln(add(x, att, tape), params, prefix + ".ln1", config.ln_eps, tape)
    x2 = _ln(add(x1, _ffn(x1, params, prefix + ".ffn", tape), tape),
             params, prefix + ".ln2", config.ln_eps, tape)
    return x2


def _decoder_sublayers(s, self_attention, cross_attention, params, prefix,
                       config, tape=None) -> Matrix:
    """Residual, LayerNorm and FFN sequence of one decoder layer.

    ``self_attention`` and ``cross_attention`` map the rows entering each
    attention sublayer to its output rows; every other op acts row by row.
    """
    s1 = _ln(add(s, self_attention(s), tape), params, prefix + ".ln1",
             config.ln_eps, tape)
    s2 = _ln(add(s1, cross_attention(s1), tape), params, prefix + ".ln2",
             config.ln_eps, tape)
    s3 = _ln(add(s2, _ffn(s2, params, prefix + ".ffn", tape), tape),
             params, prefix + ".ln3", config.ln_eps, tape)
    return s3


def decoder_layer(s: Matrix, enc_out: Matrix, causal, cross, params, prefix,
                  config, tape=None, maps=None) -> Matrix:
    def self_attention(x):
        wq, wk, wv, wo = _attn_block(params, prefix + ".self")
        return multi_head(x, x, x, causal, wq, wk, wv, wo, config.h, tape,
                          maps)

    def cross_attention(x):
        wq, wk, wv, wo = _attn_block(params, prefix + ".cross")
        return multi_head(x, enc_out, enc_out, cross, wq, wk, wv, wo,
                          config.h, tape, maps)

    return _decoder_sublayers(s, self_attention, cross_attention, params,
                              prefix, config, tape)


# ---------------------------------------------------------------------------
# encoder / decoder stacks


@dataclasses.dataclass
class EncodedVideo:
    y: Matrix  # valid_len x d, last encoder layer
    pattern: object
    valid_len: int
    features: np.ndarray  # raw valid_len x input_dim, for decode-time embeds


def _valid_features(features, config, valid_len):
    arr = np.asarray(features)
    if arr.ndim != 2:
        raise DataError("features must be 2-D, got shape %r" % (arr.shape,))
    if valid_len is not None:
        if not 1 <= valid_len <= arr.shape[0]:
            raise DataError("valid_len %d out of range for %d rows"
                            % (valid_len, arr.shape[0]))
        arr = arr[:valid_len]  # padding rows never enter any computation
    arr = np.ascontiguousarray(arr, dtype=config.np_dtype)
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise DataError("non-finite feature values in valid row(s) %s"
                        % bad[:8].tolist())
    return arr


def encode_video(features, shots, config, params, tape=None, maps=None,
                 valid_len=None) -> EncodedVideo:
    """Run the encoder stack over the valid frames only."""
    valid = _valid_features(features, config, valid_len)
    feats = Matrix.wrap(valid)
    t = feats.rows
    if t > config.max_len:
        raise DataError("video length %d exceeds max_len %d" % (t, config.max_len))
    pattern = build_encoder_pattern(
        config.attention, t, t, config.window, shots, config.globals_per_shot
    )
    x = embed(feats, params, config, "enc", tape)
    for i in range(config.n_layers):
        x = encoder_layer(x, pattern, params, "enc.%d" % i, config, tape, maps)
    return EncodedVideo(y=x, pattern=pattern, valid_len=t, features=valid)


def _decoder_inputs(encoded, teacher_frames, config, params, tape):
    """Shifted-right teacher inputs: [start, embed(f_1), ..., embed(f_{L-1})]."""
    l = len(teacher_frames)
    start = params["decoder.start"]
    if l > 1:
        rows = encoded.features[np.asarray(teacher_frames[:-1], dtype=np.int64)]
        emb = linear(Matrix.wrap(np.ascontiguousarray(rows)),
                     params["embed.dec.w"], params["embed.dec.b"], tape)
        seq = concat_rows([start, emb], tape)
    else:
        seq = start
    pe = positional_encoding(l, config.d, config.pos_base, config.np_dtype)
    return add(seq, pe, tape)


def _decoder_stack(seq, encoded, config, params, tape, maps=None):
    l = seq.rows
    causal = build_causal_pattern(l)
    cross = build_cross_pattern(l, encoded.valid_len)
    s = seq
    for i in range(config.n_layers):
        s = decoder_layer(s, encoded.y, causal, cross, params, "dec.%d" % i,
                          config, tape, maps)
    return s


def output_head(dec_out: Matrix, t, params, tape=None) -> Matrix:
    logits = linear(dec_out, params["head.w"], params["head.b"], tape)
    return softmax_row(col_slice(logits, 0, t, tape), tape)


def forward(features, shots, teacher_frames, config, params, tape=None,
            valid_len=None, maps=None) -> Matrix:
    """Teacher-forced pass; returns an L x T matrix of frame distributions.

    Given a dict ``maps``, every attention call appends its dense
    (h, n_queries, key rows) weights under its pattern kind, so
    ``maps[config.attention]``, ``maps["causal"]`` and ``maps["cross"]``
    each hold one array per layer. Only this teacher-forced path captures
    weights; the cached decode of ``summarize`` never does.
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


class _CachedDecoderLayer:
    """One decoder layer run a single row at a time.

    The cross-attention K/V of the encoder output are projected once, and
    the self-attention K/V of every row seen so far sit in a preallocated
    (l_max, d) cache, so a step projects only its own row.
    """

    def __init__(self, encoded, params, prefix, config, l_max):
        self.params, self.prefix, self.config = params, prefix, config
        self.wq, self.wk, self.wv, self.wo = _attn_block(params, prefix + ".self")
        self.cq, ck, cv, self.co = _attn_block(params, prefix + ".cross")
        self.cross_k = matmul(encoded.y, ck)
        self.cross_v = matmul(encoded.y, cv)
        self.cross = build_cross_pattern(1, encoded.valid_len)
        shape = (l_max, config.d)
        self.self_k = np.zeros(shape, dtype=config.np_dtype)
        self.self_v = np.zeros(shape, dtype=config.np_dtype)

    def step(self, s: Matrix, pos) -> Matrix:
        """Output row of the layer for input row ``s`` at position ``pos``."""
        h = self.config.h

        def self_attention(x):
            self.self_k[pos] = matmul(x, self.wk).data[0]
            self.self_v[pos] = matmul(x, self.wv).data[0]
            seen = build_cross_pattern(1, pos + 1)
            mixed = multi_head_attend(
                matmul(x, self.wq), Matrix.wrap(self.self_k[:pos + 1]),
                Matrix.wrap(self.self_v[:pos + 1]), seen, h)
            return matmul(mixed, self.wo)

        def cross_attention(x):
            mixed = multi_head_attend(matmul(x, self.cq), self.cross_k,
                                      self.cross_v, self.cross, h)
            return matmul(mixed, self.co)

        return _decoder_sublayers(s, self_attention, cross_attention,
                                  self.params, self.prefix, self.config)


def decode_autoregressive(encoded, config, params):
    """Free-running decode; returns per-frame scores of length valid_len.

    Runs ceil(summary_ratio * T) steps from the learned start token, feeding
    each step's argmax frame back in.  A frame's score aggregates its softmax
    probability over steps (max by default).

    Decoding is incremental: each layer projects the encoder output into its
    cross-attention K/V once per video and caches the self-attention K/V of
    earlier steps, so a step embeds only the newest token and pushes that one
    row through the layers and the output head.  Causal self-attention never
    changes earlier rows, and LayerNorm, the FFN and the head act row by row,
    so every step row equals the last row of a full rerun over the prefix up
    to the summation order of the one-row matrix products.
    """
    t = encoded.valid_len
    l_max = max(1, int(np.ceil(config.summary_ratio * t)))
    layers = [_CachedDecoderLayer(encoded, params, "dec.%d" % i, config, l_max)
              for i in range(config.n_layers)]
    pe = positional_encoding(l_max, config.d, config.pos_base, config.np_dtype)
    step_rows = np.zeros((l_max, t), dtype=np.float64)
    frame = None
    for step in range(l_max):
        if frame is None:
            token = params["decoder.start"]
        else:
            token = linear(Matrix.wrap(encoded.features[frame:frame + 1]),
                           params["embed.dec.w"], params["embed.dec.b"])
        s = add(token, Matrix.wrap(pe.data[step:step + 1]))
        for layer in layers:
            s = layer.step(s, step)
        row = output_head(s, t, params).data[0].astype(np.float64)
        step_rows[step] = row
        frame = int(np.argmax(row))
    if config.decode_aggregate == "max":
        return step_rows.max(axis=0)
    return step_rows.mean(axis=0)


def summarize(video, config, params):
    """VideoRecord -> (SummaryResult, frame scores, shots)."""
    from .selection import make_summary

    features = _valid_features(video.features, config, None)  # before KTS
    shots = resolve_shots(
        video,
        max_shots=config.kts_max_shots or None,
        penalty=config.kts_penalty,
    )
    encoded = encode_video(features, shots, config, params)
    scores = decode_autoregressive(encoded, config, params)
    result = make_summary(scores, shots, budget_ratio=config.summary_ratio)
    return result, scores, shots


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, config, params):
    """Write a version-2 ``.ftnc`` file atomically (temp file + rename)."""
    cfg_bytes = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    names = params.names()
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            nb = name.encode("utf-8")
            m = params[name]
            code = _TENSOR_CODES[m.data.dtype.itemsize]
            fh.write(struct.pack("<III", len(nb), m.rows, m.cols))
            fh.write(nb)
            fh.write(code)
            fh.write(np.ascontiguousarray(m.data, dtype=code.decode()).tobytes())


def load_checkpoint(path):
    """Read a version-1 (all ``<f4``) or version-2 (per-tensor dtype) file.

    Every read is bounds-checked, so a file cut at any byte raises
    ParseError.
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
    store = ParameterStore()
    dt = config.np_dtype
    for _ in range(n_params):
        name_len, rows, cols = struct.unpack("<III", take(12, "a tensor header"))
        try:
            name = take(name_len, "a tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError("tensor name is not UTF-8 in checkpoint %s" % path,
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
        store.add(name, Matrix.wrap(vals.reshape(rows, cols)))
    if off != len(raw):
        raise ParseError("trailing bytes in checkpoint %s" % path, off)
    specs = _param_specs(config)
    if store.names() != [name for name, *_ in specs]:
        raise DataError(
            "checkpoint %s parameter set does not match its config" % path
        )
    for name, rows, cols, _init in specs:
        if store[name].shape != (rows, cols):
            raise DataError(
                "checkpoint %s tensor %r is %dx%d, its config needs %dx%d"
                % ((path, name) + store[name].shape + (rows, cols)))
    return config, store
