"""Temporal-overlap F-measure, multi-user aggregation, random baseline, and
the attention-pattern benchmark (exact score FLOPs, wall-clock, and the
measured allocation peak of one attention call)."""

import dataclasses
import time
import tracemalloc

import numpy as np

from .attention import (
    build_encoder_pattern,
    count_score_entries,
    multi_head_attend,
)
from .data_io import DataError, atomic_open
from .model import encode_video, init_params, summarize
from .segmentation import ShotList
from .selection import make_summary


def _as_mask(m, name):
    arr = np.asarray(m)
    if arr.ndim != 1:
        raise ValueError("%s must be 1-D" % name)
    return arr.astype(bool)


def f_measure(gen_mask, gt_mask):
    """(precision, recall, F%) from temporal overlap of two frame masks."""
    gen = _as_mask(gen_mask, "gen_mask")
    gt = _as_mask(gt_mask, "gt_mask")
    if gen.shape != gt.shape:
        raise ValueError("mask lengths differ: %d vs %d" % (gen.size, gt.size))
    overlap = float(np.logical_and(gen, gt).sum())
    p = overlap / float(gen.sum()) if gen.any() else 0.0
    r = overlap / float(gt.sum()) if gt.any() else 0.0
    f = 0.0 if p + r == 0.0 else 2.0 * p * r / (p + r) * 100.0
    return p, r, f


def evaluate_multi_user(gen_mask, user_masks, mode="max"):
    """Per-user P/R/F plus an aggregate: the best user (max) or the mean."""
    if len(user_masks) == 0:
        raise ValueError("need at least one user annotation")
    if mode not in ("max", "mean"):
        raise ValueError("mode must be 'max' or 'mean'")
    per_user = [f_measure(gen_mask, um) for um in user_masks]
    fs = [f for _, _, f in per_user]
    if mode == "max":
        best = int(np.argmax(fs))
        p, r, f = per_user[best]
    else:
        p = float(np.mean([p for p, _, _ in per_user]))
        r = float(np.mean([r for _, r, _ in per_user]))
        f = float(np.mean(fs))
    return {"per_user": per_user, "precision": p, "recall": r, "f_measure": f,
            "mode": mode}


def gt_user_masks(record, shots, ratio=0.15):
    """Ground-truth key-shot masks, one per user.

    Mask annotations are used as-is; score annotations are converted per user
    with the same budgeted key-shot selection the model output goes through.
    """
    if record.user_masks is not None:
        return [record.user_masks[i] for i in range(record.user_masks.shape[0])]
    if record.user_scores is not None:
        masks = []
        for i in range(record.user_scores.shape[0]):
            scores = np.clip(record.user_scores[i], 0.0, 1.0)
            masks.append(make_summary(scores, shots, ratio).keyframe_mask)
        return masks
    raise DataError("video %s has no user annotations" % record.video_id)


def default_mode(record):
    return "max" if record.user_masks is not None else "mean"


def evaluate_summary(gen_mask, record, shots, mode=None, ratio=0.15):
    mode = mode or default_mode(record)
    return evaluate_multi_user(gen_mask, gt_user_masks(record, shots, ratio), mode)


def evaluate_videos(records, model_config, params, mode=None):
    """Summarize each video with the model and score it against its users."""
    rows = []
    for record in records:
        result, scores, shots = summarize(record, model_config, params)
        entry = evaluate_summary(result.keyframe_mask, record, shots,
                                 mode=mode, ratio=model_config.summary_ratio)
        rows.append({
            "video": record.video_id,
            "precision": entry["precision"],
            "recall": entry["recall"],
            "f_measure": entry["f_measure"],
            "summary": result,
            "frame_scores": scores,
        })
    return rows


def random_baseline(record, shots, ratio=0.15, n_draws=1000, seed=0):
    """Monte-Carlo mean F of budget-respecting random shot selections."""
    t = record.n_frames
    budget = int(np.floor(ratio * t))
    lengths = shots.lengths()
    users = gt_user_masks(record, shots, ratio)
    mode = default_mode(record)
    rng = np.random.default_rng(seed)
    fs = np.empty(n_draws)
    for k in range(n_draws):
        mask = np.zeros(t, dtype=bool)
        used = 0
        for i in rng.permutation(len(lengths)):
            if used + lengths[i] <= budget:
                s, e = shots[int(i)]
                mask[s:e] = True
                used += lengths[i]
        fs[k] = evaluate_multi_user(mask, users, mode)["f_measure"]
    return float(fs.mean())


def write_eval_csv(path, rows):
    with atomic_open(path) as fh:
        fh.write("video,precision,recall,f_measure\n")
        for r in rows:
            fh.write("%s,%.6f,%.6f,%.4f\n"
                     % (r["video"], r["precision"], r["recall"], r["f_measure"]))
        if rows:
            fh.write("mean,%.6f,%.6f,%.4f\n" % (
                float(np.mean([r["precision"] for r in rows])),
                float(np.mean([r["recall"] for r in rows])),
                float(np.mean([r["f_measure"] for r in rows])),
            ))


# ---------------------------------------------------------------------------
# attention-pattern benchmark


@dataclasses.dataclass
class BenchReport:
    pattern: str
    length: int
    score_entries: int
    score_flops: int  # multiply-accumulates, exact from the pattern
    forward_flops: int  # estimated encoder MACs including projections/FFN
    runtime_s: float  # median of the repeats
    peak_attention_bytes: int  # tracemalloc peak of one attention call


def bench_shots(t) -> ShotList:
    """Eight even shots at every length, so global-token work stays linear."""
    bounds = np.linspace(0, t, 9).astype(int)
    return ShotList([(int(bounds[i]), int(bounds[i + 1])) for i in range(8)])


def peak_attention_bytes(x, pattern, h) -> int:
    """Allocation peak of one ``multi_head_attend(x, x, x, pattern, h)``
    call, measured with tracemalloc (numpy reports its buffers to it)."""
    tracemalloc.start()
    try:
        multi_head_attend(x, x, x, pattern, h)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def encoder_forward_flops(config, t, pattern) -> int:
    """Encoder MACs: embedding + per layer QKV/O projections, score and
    weighted-sum work on allowed pairs, and the FFN."""
    d, dk = config.d, config.d // config.h
    entries = count_score_entries(pattern)
    per_layer = 4 * t * d * d + 2 * entries * dk * config.h + 2 * t * d * config.d_ff
    return t * config.input_dim * d + config.n_layers * per_layer


def bench(kinds, lengths, model_config, repeats=5, seed=0):
    """Time the encoder forward per pattern and length; FLOPs are counted,
    runtime is the median of `repeats` runs, and memory the allocation peak
    of one attention call on a (length x d) input, measured after the timed
    runs."""
    if repeats < 5:
        raise ValueError("need at least 5 repeats for a stable median")
    for t in lengths:  # bench_shots needs a frame for each of its 8 shots
        if not 8 <= t <= model_config.max_len:
            raise ValueError("length %d outside [8, max_len %d]"
                             % (t, model_config.max_len))
    reports = []
    rng = np.random.default_rng(seed)
    for kind in kinds:
        cfg_doc = model_config.to_dict()
        cfg_doc["attention"] = kind
        cfg = type(model_config).from_dict(cfg_doc)
        params = init_params(cfg)
        for t in lengths:
            feats = rng.normal(size=(t, cfg.input_dim)).astype(cfg.np_dtype)
            shots = bench_shots(t)
            pattern = build_encoder_pattern(cfg.attention, t, t, cfg.window,
                                            shots, cfg.globals_per_shot)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                encode_video(feats, shots, cfg, params)
                times.append(time.perf_counter() - t0)
            x = np.zeros((t, cfg.d), dtype=cfg.np_dtype)
            dk = cfg.d // cfg.h
            reports.append(BenchReport(
                pattern=cfg.attention,
                length=t,
                score_entries=count_score_entries(pattern),
                score_flops=pattern.n_allowed_pairs() * dk * cfg.h * cfg.n_layers,
                forward_flops=encoder_forward_flops(cfg, t, pattern),
                runtime_s=float(np.median(times)),
                peak_attention_bytes=peak_attention_bytes(x, pattern, cfg.h),
            ))
    return reports


def write_bench_csv(path, reports):
    with atomic_open(path) as fh:
        fh.write("pattern,length,score_entries,score_flops,forward_flops,"
                 "runtime_s,peak_attention_bytes\n")
        for r in reports:
            fh.write("%s,%d,%d,%d,%d,%.6f,%d\n" % (
                r.pattern, r.length, r.score_entries, r.score_flops,
                r.forward_flops, r.runtime_s, r.peak_attention_bytes))


def format_bench_table(reports) -> str:
    header = ("pattern", "length", "score MFLOPs", "fwd MFLOPs", "runtime s",
              "attn MiB")
    rows = [header]
    for r in reports:
        rows.append((
            r.pattern, str(r.length),
            "%.2f" % (r.score_flops / 1e6),
            "%.2f" % (r.forward_flops / 1e6),
            "%.4f" % r.runtime_s,
            "%.2f" % (r.peak_attention_bytes / 2**20),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
