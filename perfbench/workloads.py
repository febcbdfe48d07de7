"""The three benchmark workloads: inputs from a seed, set-up, ops and checks.

Every workload runs closed-loop with one client: the next op starts when the
previous one has returned. Inputs come from ``data_io.synth_video`` with the
workload seed; the program receives only the generated records.

* ``summarize-kts``: ``model.summarize`` with ``shots=None`` at paper scale.
  One op summarizes one video. Each op gets a freshly generated video, so a
  per-record shot cache never hits.
* ``train-paper``: ``training.train`` at paper scale on one fold with provided
  shots and no held-out videos. One op is one teacher-forced step, timed
  from the call of ``forward`` to the return of ``adam_step``.
* ``kfold-small``: a planted dataset written without shots through
  ``data_io`` and read back with ``load_dataset``; ``training.train`` runs
  one fold with held-out evaluation at several epochs. One op is one fold.

Paper-scale videos all have T = 768: decode cost grows about as T^3, so a mix
of lengths in a run of a few ops would make the figures depend on which
lengths fit. The seed changes features, shots and annotations.
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from spans import Patches

PAPER_CONFIG = dict(n_layers=6, d=64, d_ff=2048, h=8, window=17,
                    input_dim=1024, max_len=1536, seed=0,
                    attention="local_global")
SMALL_CONFIG = dict(n_layers=2, d=64, d_ff=128, h=8, window=17, input_dim=64,
                    max_len=192, seed=1)

PAPER_T = 768
PAPER_SHOTS = 32   # fixed, so encoder work and memory do not vary by seed
TRAIN_VIDEOS = 4
WARMUP_T = 128

SMALL_VIDEOS = 20
SMALL_T = (80, 160)
SMALL_SHOTS = (4, 10)
HELD_OUT_EVERY = 5        # videos 2, 7, 12, 17 are held out
KFOLD_EPOCHS = 6
KFOLD_EVAL_EVERY = 2
SMALL_TRAIN = dict(learning_rate=1e-3, weight_decay=1e-2, seed=1, n_folds=1,
                   target_mode="grid")

OFFSET_SCALE = 2.0


class StopRun(Exception):
    """Raised from the step hook to end ``training.train`` at the deadline."""


@dataclass
class Op:
    seconds: float
    frames: int
    problems: list
    output: object = None         # what the determinism test compares
    steps: list = field(default_factory=list)  # (seconds, loss) per step


def _video(vs, rng, direction, t, dim, n_shots, video_id, keep_shots=True):
    record, _mask, _planted = vs.data_io.synth_video(
        t, dim, n_shots, 0.15, rng, direction, offset_scale=OFFSET_SCALE,
        video_id=video_id)
    if not keep_shots:
        record.shots = None
    return record


def _direction(rng, dim):
    u = rng.normal(0.0, 1.0, size=dim)
    return u / np.linalg.norm(u)


def _rng(seed, *keys):
    return np.random.default_rng([seed % 2**63, *keys])


def paper_video(vs, seed, index, keep_shots, t=PAPER_T, stream=0):
    """Video ``index`` of a paper-scale workload, independent of the others;
    stream 1 holds the warm-up videos."""
    rng = _rng(seed, stream, index)
    return _video(vs, rng, _direction(rng, PAPER_CONFIG["input_dim"]), t,
                  PAPER_CONFIG["input_dim"], PAPER_SHOTS, "v%04d" % index,
                  keep_shots)


def small_videos(vs, seed):
    """Planted small-config dataset with evenly spaced lengths, shots kept."""
    rng = _rng(seed, 2)
    u = _direction(rng, SMALL_CONFIG["input_dim"])
    lengths = np.linspace(SMALL_T[0], SMALL_T[1], SMALL_VIDEOS).astype(int)
    return [_video(vs, rng, u, int(t), SMALL_CONFIG["input_dim"],
                   int(rng.integers(SMALL_SHOTS[0], SMALL_SHOTS[1] + 1)),
                   "small_%03d" % k)
            for k, t in enumerate(lengths)]


def small_split():
    test = [k for k in range(SMALL_VIDEOS) if k % HELD_OUT_EVERY == 2]
    train = [k for k in range(SMALL_VIDEOS) if k % HELD_OUT_EVERY != 2]
    return train, test


def write_dataset(vs, videos, out_dir):
    """Write features, shot-free annotations and a manifest with data_io."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for rec in videos:
        feat, ann = rec.video_id + ".ftnf", rec.video_id + ".json"
        vs.data_io.write_features(os.path.join(out_dir, feat), rec.features)
        rec.shots = None
        vs.data_io.write_annotations(os.path.join(out_dir, ann), rec)
        entries.append((rec.video_id, feat, ann))
    manifest = os.path.join(out_dir, "manifest.json")
    vs.data_io.write_manifest(manifest, "planted", entries)
    return manifest


# ---------------------------------------------------------------------------
# output checks


def summary_problems(result, scores, shots, t, ratio):
    problems = []
    scores = np.asarray(scores)
    if scores.shape != (t,):
        problems.append("scores have shape %r, expected (%d,)"
                        % (scores.shape, t))
    elif not np.all(np.isfinite(scores)):
        problems.append("non-finite frame scores")
    elif scores.min() < 0.0 or scores.max() > 1.0:
        problems.append("frame scores outside [0, 1]: [%g, %g]"
                        % (scores.min(), scores.max()))
    bounds = [(int(s), int(e)) for s, e in shots]
    ends = [0] + [e for _s, e in bounds]
    if (not bounds or any(s != prev for (s, _e), prev in zip(bounds, ends))
            or any(e <= s for s, e in bounds) or ends[-1] != t):
        problems.append("shots do not tile [0, %d)" % t)
    budget = math.floor(ratio * t)
    selected = int(np.asarray(result.keyframe_mask).sum())
    if selected > budget:
        problems.append("summary has %d frames, budget is %d"
                        % (selected, budget))
    return problems


def loss_problems(steps):
    return ["non-finite loss %r at step %d" % (loss, i)
            for i, (_s, loss) in enumerate(steps) if not math.isfinite(loss)]


# ---------------------------------------------------------------------------
# step hooks


class StepHooks:
    """Times teacher-forced steps and keeps their losses and held-out F.

    A step runs from the call of ``training.forward`` to the return of
    ``training.adam_step``. ``stop`` is asked after every step whether to end
    the run; it then raises ``StopRun`` out of ``training.train``. Used as a
    context manager, which puts the original functions back on exit.
    """

    def __init__(self, vs, stop=None):
        self._patches = patches = Patches()
        self.steps = []
        self.evals = []       # per held-out evaluation: list of per-video F
        self._start = None
        self._loss = None
        self.stop = stop
        forward, bce, adam = (vs.training.forward, vs.training.bce_loss,
                              vs.training.adam_step)
        evaluate = vs.evaluation.evaluate_videos

        def timed_forward(*args, **kwargs):
            self._start = time.perf_counter()
            return forward(*args, **kwargs)

        def kept_loss(*args, **kwargs):
            loss = bce(*args, **kwargs)
            self._loss = loss.item()
            return loss

        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            self.steps.append((time.perf_counter() - self._start, self._loss))
            if self.stop is not None and self.stop(len(self.steps)):
                raise StopRun()
            return out

        def kept_evaluation(*args, **kwargs):
            rows = evaluate(*args, **kwargs)
            self.evals.append([r["f_measure"] for r in rows])
            return rows

        patches.set(vs.training, "forward", timed_forward)
        patches.set(vs.training, "bce_loss", kept_loss)
        patches.set(vs.training, "adam_step", timed_adam)
        patches.set(vs.evaluation, "evaluate_videos", kept_evaluation)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


# ---------------------------------------------------------------------------
# workloads


class SummarizeKts:
    name = "summarize-kts"
    unit = "video"

    def setup(self, vs, seed, workdir):
        config = vs.model.ModelConfig(**PAPER_CONFIG)
        params = vs.model.init_params(config)
        vs.model.summarize(paper_video(vs, seed, 0, False, t=WARMUP_T, stream=1),
                           config, params)
        return {"seed": seed, "config": config, "params": params}

    def run(self, vs, state, more, reload=False, first=0):
        """Summarize videos first, first + 1, ... while ``more(done)`` holds;
        at least one.

        Each video is generated before its op starts, outside the timing.
        Returns the ops and the summed wall time of the ``summarize`` calls.
        """
        config, params = state["config"], state["params"]
        ops = []
        while not ops or more(len(ops)):
            video = paper_video(vs, state["seed"], first + len(ops), False)
            t0 = time.perf_counter()
            result, scores, shots = vs.model.summarize(video, config, params)
            seconds = time.perf_counter() - t0
            problems = summary_problems(result, scores, shots, video.n_frames,
                                        config.summary_ratio)
            ops.append(Op(seconds, video.n_frames, problems,
                          output=[int(i) for i in result.selected_shots]))
        return ops, sum(op.seconds for op in ops)


class TrainPaper:
    name = "train-paper"
    unit = "step"

    def setup(self, vs, seed, workdir):
        config = vs.model.ModelConfig(**PAPER_CONFIG)
        videos = [paper_video(vs, seed, i, True) for i in range(TRAIN_VIDEOS)]
        warm = paper_video(vs, seed, 0, True, t=WARMUP_T, stream=1)
        vs.training.train([warm], config, vs.training.TrainConfig(epochs=1),
                          splits=[([0], [])])
        return {"config": config, "videos": videos}

    def run(self, vs, state, more, reload=False, first=0):
        """One ``train`` call that the step hook ends once ``more`` fails.

        Returns the steps as ops and the wall time of the ``train`` call.
        """
        videos = state["videos"]
        config = vs.training.TrainConfig(epochs=1_000_000)  # the hook ends it
        with StepHooks(vs, stop=lambda done: not more(done)) as hooks:
            t0 = time.perf_counter()
            try:
                vs.training.train(videos, state["config"], config,
                                  splits=[(list(range(len(videos))), [])])
            except StopRun:
                pass
            wall = time.perf_counter() - t0
        ops = [Op(seconds, videos[i % len(videos)].n_frames,
                  loss_problems([(seconds, loss)]), output=loss,
                  steps=[(seconds, loss)])
               for i, (seconds, loss) in enumerate(hooks.steps)]
        return ops, wall


class KfoldSmall:
    name = "kfold-small"
    unit = "fold"

    def setup(self, vs, seed, workdir):
        config = vs.model.ModelConfig(**SMALL_CONFIG)
        manifest = write_dataset(vs, small_videos(vs, seed),
                                 os.path.join(workdir, "data"))
        videos = vs.data_io.load_dataset(manifest).videos
        vs.training.train(videos[:2], config,
                          self.train_config(vs, epochs=1, eval_every=1),
                          splits=[([0], [1])])
        return {"config": config, "manifest": manifest, "videos": videos}

    @staticmethod
    def train_config(vs, epochs=KFOLD_EPOCHS, eval_every=KFOLD_EVAL_EVERY):
        return vs.training.TrainConfig(epochs=epochs, eval_every=eval_every,
                                       **SMALL_TRAIN)

    def run(self, vs, state, more, reload=False, first=0):
        """Whole folds while ``more(done)`` holds; at least one.

        With ``reload`` each op first reads the dataset back with
        ``load_dataset``, so that a traced pass also covers ``data_io``.
        Returns the ops and their summed wall time.
        """
        ops = []
        while not ops or more(len(ops)):
            ops.append(self._fold(vs, state, reload))
        return ops, sum(op.seconds for op in ops)

    def _fold(self, vs, state, reload):
        train_idx, test_idx = small_split()
        with StepHooks(vs) as hooks:
            t0 = time.perf_counter()
            videos = (vs.data_io.load_dataset(state["manifest"]).videos
                      if reload else state["videos"])
            result = vs.training.train(videos, state["config"],
                                       self.train_config(vs),
                                       splits=[(train_idx, test_idx)])
            seconds = time.perf_counter() - t0
        fold = result.folds[0]
        curve = [float(x) for x in fold.loss_curve]
        problems = loss_problems(hooks.steps)
        if not curve[-1] < curve[0]:
            problems.append("epoch loss did not fall: %r -> %r"
                            % (curve[0], curve[-1]))
        for k, fs in enumerate(hooks.evals):
            problems += ["held-out F %r outside [0, 100] at evaluation %d"
                         % (f, k) for f in fs if not 0.0 <= f <= 100.0]
        evals = KFOLD_EPOCHS // KFOLD_EVAL_EVERY
        frames = (KFOLD_EPOCHS * sum(videos[i].n_frames for i in train_idx)
                  + evals * sum(videos[i].n_frames for i in test_idx))
        return Op(seconds, frames, problems,
                  output={"loss_curve": curve,
                          "f_measure": float(fold.f_measure)},
                  steps=hooks.steps)

    def random_baseline(self, vs, state):
        """Mean random-selection F on the held-out videos (1000 draws each)."""
        _train, test_idx = small_split()
        ratio = state["config"].summary_ratio
        held = [state["videos"][i] for i in test_idx]
        return float(np.mean([
            vs.evaluation.random_baseline(
                v, vs.segmentation.resolve_shots(v), ratio=ratio,
                n_draws=1000, seed=0)
            for v in held]))


WORKLOADS = {w.name: w for w in (SummarizeKts(), TrainPaper(), KfoldSmall())}
