"""The benchmark's hook points still fit the training loop.

``perfbench/`` times the program by replacing module attributes (``spans``
wraps every layer's public functions, ``workloads.StepHooks`` times each
teacher-forced step), so a renamed function or a changed signature breaks
it without failing any test of the program. This runs both sets of hooks
over a short training run, and the spans over one ``summarize`` with
detected shots; the perfbench files are only imported, never written (no
bytecode cache either).
"""

import dataclasses
import importlib
import math
import os
import sys
import types

import numpy as np
import pytest

from vidsum.data_io import synth_dataset
from vidsum.model import ModelConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    vs = types.SimpleNamespace(**{m: importlib.import_module("vidsum." + m)
                                  for m in spans.LAYERS})
    return spans, workloads, vs


def test_hooks_count_steps_evaluations_and_backward_calls(bench):
    spans, workloads, vs = bench
    originals = (vs.training.train, vs.training.adam_step,
                 vs.numerics.Tape.backward, vs.evaluation.evaluate_videos)
    videos, _ = synth_dataset(3, (24, 40), 8, (3, 5), seed=7)
    config = ModelConfig(n_layers=1, d=8, d_ff=8, h=2, window=5, input_dim=8,
                         max_len=64, seed=0)
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.install(tracer, vs, patches)
    try:
        with workloads.StepHooks(vs) as hooks:
            vs.training.train(videos, config,
                              vs.training.TrainConfig(epochs=2, seed=0),
                              splits=[([0, 1], [2])])
    finally:
        patches.restore()
    assert len(hooks.steps) == 4
    assert all(math.isfinite(loss) for _seconds, loss in hooks.steps)
    assert len(hooks.evals) == 1
    assert tracer.counts["numerics.backward_calls"] == 4
    assert (vs.training.train, vs.training.adam_step, vs.numerics.Tape.backward,
            vs.evaluation.evaluate_videos) == originals



def test_hooks_count_one_summarize_with_detected_shots(bench):
    spans, _workloads, vs = bench
    before = {m: dict(vars(getattr(vs, m))) for m in spans.LAYERS}
    backward = vs.numerics.Tape.backward
    videos, _ = synth_dataset(1, (40, 40), 8, (4, 4), seed=3)
    video = dataclasses.replace(videos[0], shots=None)  # KTS detects them
    config = ModelConfig(n_layers=2, d=8, d_ff=8, h=2, window=5, input_dim=8,
                         max_len=64, seed=0)
    params = vs.model.init_params(config)
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.install(tracer, vs, patches)
    try:
        vs.model.summarize(video, config, params)
    finally:
        patches.restore()
    assert tracer.counts["model.decode_steps"] == math.ceil(
        config.summary_ratio * video.n_frames)
    assert tracer.counts["segmentation.kts_calls"] == 1
    assert tracer.counts["selection.knapsack_calls"] == 1
    assert len(tracer.durations("decode")) == 1
    assert {m: dict(vars(getattr(vs, m))) for m in spans.LAYERS} == before
    assert vs.numerics.Tape.backward is backward


def test_spans_count_decoder_score_entries_from_pattern_fields(bench):
    # spans.py reads pattern.valid_queries and pattern.valid_len for the
    # decoder's causal and cross calls
    spans, _workloads, vs = bench
    before = {m: dict(vars(getattr(vs, m))) for m in spans.LAYERS}
    backward = vs.numerics.Tape.backward
    config = ModelConfig(n_layers=2, d=8, d_ff=8, h=2, window=5, input_dim=8,
                         max_len=64, seed=0)
    params = vs.model.init_params(config)
    t, teacher = 30, [2, 9, 17, 25]
    feats = np.random.default_rng(0).normal(size=(t, 8))
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.install(tracer, vs, patches)
    try:
        vs.model.forward(feats, [(0, 10), (10, 30)], teacher, config, params)
    finally:
        patches.restore()
    pairs = (vs.attention.build_causal_pattern(len(teacher)).n_allowed_pairs()
             + vs.attention.build_cross_pattern(len(teacher), t).n_allowed_pairs())
    assert tracer.counts["attention.score_entries"] == (
        config.n_layers * config.h * pairs)
    assert tracer.counts["attention.calls"] == 3 * config.n_layers
    assert {m: dict(vars(getattr(vs, m))) for m in spans.LAYERS} == before
    assert vs.numerics.Tape.backward is backward
