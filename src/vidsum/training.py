"""Teacher-forced training: target construction, BCE over the step-by-frame
grid, Adam (fixed ``ADAM_*`` betas and eps) with decoupled weight decay,
5-fold splits, loss logging.

Parameters are the model's ``{name: array}`` dict. A step's gradients are
the arrays ``Tape.backward`` returns, looked up by each parameter's id, with
zeros only for a parameter the tape did not reach; clipping scales copies,
never the tape's arrays, and ``adam_step`` updates the parameters in place.
"""

import dataclasses
import math
import os

import numpy as np

from .attention import ConfigError
from .data_io import DataError, atomic_open
from .model import (
    check_int_fields,
    check_video,
    forward,
    init_params,
    save_checkpoint,
)
from .numerics import Tape, accumulate
from .segmentation import resolve_shots
from .selection import make_summary

CLAMP = 1e-7
LOG_HEADER = "epoch,split,loss,f_measure"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclasses.dataclass
class TrainConfig:
    epochs: int = 300
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    seed: int = 0
    n_folds: int = 5
    clip_norm: float = 5.0  # 0 disables clipping
    target_mode: str = "grid"  # or "broadcast"
    eval_every: int = 0  # 0 = held-out F only after the last epoch

    def __post_init__(self):
        check_int_fields(self, ConfigError)
        if not all(map(math.isfinite, (self.learning_rate, self.weight_decay,
                                       self.clip_norm))):
            raise ConfigError(
                "learning_rate, weight_decay, clip_norm must be finite")
        if self.epochs < 1 or self.learning_rate <= 0:
            raise ConfigError("epochs/learning_rate must be positive")
        if self.weight_decay < 0 or self.clip_norm < 0 or self.n_folds < 1:
            raise ConfigError("weight_decay, clip_norm must be >= 0, n_folds >= 1")
        if self.target_mode not in ("grid", "broadcast"):
            raise ConfigError("target_mode must be 'grid' or 'broadcast'")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")


# ---------------------------------------------------------------------------
# ground-truth summaries and targets


def consensus_scores(record) -> np.ndarray:
    """Average user annotation as a length-T float64 score curve."""
    if record.users is None:
        raise DataError("video %s has no user annotations" % record.video_id)
    return np.mean(record.users, axis=0, dtype=np.float64)


def ground_truth_frames(record, shots, ratio=0.15):
    """Key-shot summary frame indices from the consensus curve."""
    scores = np.clip(consensus_scores(record), 0.0, 1.0)
    result = make_summary(scores, shots, budget_ratio=ratio)
    frames = np.flatnonzero(result.keyframe_mask)
    if frames.size == 0:
        # degenerate consensus (all zero): fall back to the top-scoring shot
        # so the decoder always has at least one teacher step
        order = np.argsort([-scores[s:e].mean() for s, e in shots])
        s, e = shots[int(order[0])]
        frames = np.arange(s, min(e, s + max(1, result.budget)))
    return [int(f) for f in frames]


def build_targets(gt_summary, t, mode="grid") -> np.ndarray:
    """L x T target grid; rows are one-hot at each summary frame ("grid")
    or copies of the full binary summary vector ("broadcast")."""
    frames = [int(f) for f in gt_summary]
    if len(frames) == 0:
        raise ValueError("empty ground-truth summary")
    if any(not 0 <= f < t for f in frames):
        raise ValueError("summary frame out of range [0, %d)" % t)
    if len(set(frames)) != len(frames):
        raise ValueError("duplicate summary frames %r" % frames)
    if frames != sorted(frames):
        raise ValueError("summary frames must be sorted")
    y = np.zeros((len(frames), t))
    if mode == "grid":
        y[np.arange(len(frames)), frames] = 1.0
    elif mode == "broadcast":
        y[:, frames] = 1.0
    else:
        raise ValueError("unknown target mode %r" % mode)
    return y


def bce_loss(p: np.ndarray, y: np.ndarray, t, tape=None) -> np.ndarray:
    """-(1/t) * sum over the L x T grid of y log p + (1-y) log(1-p).

    Predictions are clamped to [1e-7, 1-1e-7]; no gradient flows where the
    clamp is active.
    """
    if p.shape != y.shape:
        raise ValueError("prediction %r and target %r shapes differ"
                         % (p.shape, y.shape))
    active = (p > CLAMP) & (p < 1.0 - CLAMP)
    pc = np.clip(p, CLAMP, 1.0 - CLAMP)
    total = -(np.sum(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))) / float(t)
    out = np.array([[total]], dtype=p.dtype)
    if tape is not None:
        def backward(g, grads):
            gv = g[0, 0]
            dp = np.where(active, -(y / pc - (1.0 - y) / (1.0 - pc)) / float(t), 0.0)
            accumulate(grads, p, (gv * dp).astype(p.dtype))
        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Adam with decoupled weight decay


class AdamState:
    def __init__(self, params):
        self.t = 0
        self.m = {name: np.zeros_like(m) for name, m in params.items()}
        self.v = {name: np.zeros_like(m) for name, m in params.items()}


def adam_step(params, grads, state, config):
    """One update of every array in ``params`` (in place) from the
    same-named array in ``grads``."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    lr = config.learning_rate
    for name, mat in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if config.weight_decay:
            step = step + lr * config.weight_decay * mat
        mat -= step


# ---------------------------------------------------------------------------
# splits


def make_splits(n_videos, n_folds, seed):
    """Disjoint covering folds; fold k holds out every n_folds-th video of a
    seeded shuffle (80/20 at the default 5 folds)."""
    if n_videos < n_folds:
        raise ValueError("need at least %d videos for %d folds" % (n_folds, n_folds))
    order = np.random.default_rng(seed).permutation(n_videos)
    splits = []
    for k in range(n_folds):
        test = np.sort(order[k::n_folds])
        train = np.sort(np.setdiff1d(order, test))
        splits.append((train.tolist(), test.tolist()))
    return splits


# ---------------------------------------------------------------------------
# training loop


@dataclasses.dataclass
class FoldResult:
    fold: int
    loss_curve: list
    f_measure: float | None
    params: object
    checkpoint_path: str | None


@dataclasses.dataclass
class TrainResult:
    folds: list
    log_path: str | None


def _held_out_f(records, model_config, params, mode=None):
    # imported per call: perfbench's kfold-small replaces evaluate_videos
    from .evaluation import evaluate_videos

    rows = evaluate_videos(records, model_config, params, mode=mode)
    return float(np.mean([r["f_measure"] for r in rows]))


def _step_name(epoch, fold, record):
    return "epoch %d, fold %d, video %s" % (epoch, fold, record.video_id)


def _first_bad_grad(grads):
    for name, g in grads.items():
        if not np.isfinite(g).all():
            return ", first in %s" % name
    return " (every entry finite: the sum of squares overflowed)"


def train(videos, model_config, train_config, out_dir=None, splits=None,
          eval_mode=None):
    """Optimize per fold; returns TrainResult and (optionally) writes
    checkpoints plus a CSV loss log under out_dir.

    Shots are resolved once per record the splits name, and the teacher
    summary once per training record; the folds and their held-out
    evaluations share these, so KTS runs at most once per video.
    """
    if len(videos) == 0:
        raise DataError("empty dataset")
    if splits is None:
        if len(videos) >= train_config.n_folds > 1:
            splits = make_splits(len(videos), train_config.n_folds,
                                 train_config.seed)
        else:
            splits = [(list(range(len(videos))), [])]
    used = sorted({i for split in splits for part in split for i in part})
    for i in used:  # a video that does not fit the model fails before KTS
        check_video(videos[i].validate(), model_config)
    records = {}
    for i in used:
        shots = resolve_shots(videos[i], max_shots=model_config.kts_max_shots,
                              penalty=model_config.kts_penalty)
        records[i] = dataclasses.replace(videos[i], shots=shots)
    teachers = {i: ground_truth_frames(records[i], records[i].shots,
                                       model_config.summary_ratio)
                for i in {i for train_idx, _ in splits for i in train_idx}}
    log_rows = [LOG_HEADER]
    results = []
    for fold, (train_idx, test_idx) in enumerate(splits):
        held_out = [records[i] for i in test_idx]
        params = init_params(model_config, seed=model_config.seed + fold)
        state = AdamState(params)
        curve = []
        f_final = None
        for epoch in range(1, train_config.epochs + 1):
            losses = []
            for i in train_idx:  # fixed order: reproducibility
                record, gt = records[i], teachers[i]
                tape = Tape()
                probs = forward(record.features, record.shots, gt,
                                model_config, params, tape)
                targets = build_targets(gt, record.n_frames,
                                        train_config.target_mode)
                loss = bce_loss(probs, targets, record.n_frames, tape)
                value = loss.item()
                if not math.isfinite(value):
                    raise FloatingPointError("non-finite loss %r at %s" % (
                        value, _step_name(epoch, fold, record)))
                by_id = tape.backward(loss)
                grads = {}
                for name, m in params.items():
                    g = by_id.get(id(m))
                    grads[name] = np.zeros_like(m) if g is None else g
                norm = math.sqrt(sum(float(np.dot(g.ravel(), g.ravel()))
                                     for g in grads.values()))
                if not math.isfinite(norm):
                    raise FloatingPointError("non-finite gradient norm at %s%s" % (
                        _step_name(epoch, fold, record), _first_bad_grad(grads)))
                if train_config.clip_norm and norm > train_config.clip_norm:
                    scale = train_config.clip_norm / norm
                    grads = {name: g * scale for name, g in grads.items()}
                adam_step(params, grads, state, train_config)
                del by_id, grads  # not alive during the next step's backward
                losses.append(value)
            mean_loss = float(np.mean(losses))
            curve.append(mean_loss)
            want_eval = held_out and (
                epoch == train_config.epochs
                or (train_config.eval_every
                    and epoch % train_config.eval_every == 0)
            )
            if want_eval:
                f_final = _held_out_f(held_out, model_config, params, eval_mode)
                log_rows.append("%d,%d,%.8f,%.4f" % (epoch, fold, mean_loss, f_final))
            else:
                log_rows.append("%d,%d,%.8f," % (epoch, fold, mean_loss))
        ckpt = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            ckpt = os.path.join(out_dir, "fold%d.ftnc" % fold)
            save_checkpoint(ckpt, model_config, params)
        results.append(FoldResult(fold, curve, f_final, params, ckpt))
    log_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "loss_log.csv")
        with atomic_open(log_path) as fh:
            fh.write("\n".join(log_rows) + "\n")
    return TrainResult(results, log_path)
