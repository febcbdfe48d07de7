"""Tests of the benchmark itself: determinism, output checks, trace coverage.

    python3 -m pytest -q perfbench/tests

Each workload runs a few ops here, so the whole file takes one to two
minutes at paper scale.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

VS = run.import_vidsum()
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
SEED = 7


def untraced(name, tmp, n):
    wl = WORKLOADS[name]
    state = wl.setup(VS, SEED, str(tmp))
    ops, _wall = wl.run(VS, state, lambda done: done < n)
    return ops


def traced(name, tmp):
    """One untraced op and the same op traced, as ``--trace 1`` runs them."""
    ops, _setups, _state, metrics = run.measure(
        WORKLOADS[name], VS, SEED, str(tmp), 0.0, True)
    return ops, metrics


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request, tmp_path_factory):
    name = request.param
    n = 2 if name == "train-paper" else 1
    plain = untraced(name, tmp_path_factory.mktemp("plain"), n)
    ops, metrics = traced(name, tmp_path_factory.mktemp("traced"))
    return types.SimpleNamespace(name=name, plain=plain, traced_ops=ops,
                                 metrics={k: v["value"]
                                          for k, v in metrics.items()})


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_gives_same_outputs(runs):
    # selected shots (summarize), losses (train) or loss curve and F (kfold)
    first = [op.output for op in runs.plain]
    assert first[0] is not None
    for op in runs.traced_ops:
        assert op.output == first[0]
    assert all(not op.problems for op in runs.plain + runs.traced_ops)


def test_train_paper_losses_repeat_step_by_step(tmp_path):
    a = untraced("train-paper", tmp_path / "a", 2)
    b = untraced("train-paper", tmp_path / "b", 2)
    assert [op.output for op in a] == [op.output for op in b]
    assert a[0].output != a[1].output  # two different videos


def test_other_seed_gives_other_inputs():
    a = workloads.paper_video(VS, 1, 0, False)
    b = workloads.paper_video(VS, 2, 0, False)
    again = workloads.paper_video(VS, 1, 0, False)
    assert np.array_equal(a.features, again.features)
    assert not np.array_equal(a.features, b.features)
    assert a.n_frames == b.n_frames == workloads.PAPER_T
    small_a = workloads.small_videos(VS, 1)
    small_b = workloads.small_videos(VS, 2)
    assert [v.n_frames for v in small_a] == [v.n_frames for v in small_b]
    assert not np.array_equal(small_a[0].features, small_b[0].features)
    assert np.array_equal(small_a[0].features,
                          workloads.small_videos(VS, 1)[0].features)


# ---------------------------------------------------------------------------
# output checks


class _Summary:
    def __init__(self, mask):
        self.keyframe_mask = np.asarray(mask, dtype=bool)


def test_summary_checks_accept_a_valid_summary():
    t = 40
    mask = np.zeros(t, bool)
    mask[:6] = True
    problems = workloads.summary_problems(
        _Summary(mask), np.linspace(0, 1, t), [(0, 6), (6, 40)], t, 0.15)
    assert problems == []


@pytest.mark.parametrize("scores, shots, selected, expect", [
    (np.full(40, 0.5), [(0, 6), (6, 40)], 7, "budget"),
    (np.full(40, 0.5), [(0, 6), (7, 40)], 6, "tile"),
    (np.full(40, 0.5), [(0, 6), (6, 39)], 6, "tile"),
    (np.full(40, 1.5), [(0, 40)], 0, "outside [0, 1]"),
    (np.full(40, np.nan), [(0, 40)], 0, "non-finite"),
])
def test_summary_checks_reject(scores, shots, selected, expect):
    mask = np.zeros(40, bool)
    mask[:selected] = True
    problems = workloads.summary_problems(_Summary(mask), scores, shots, 40,
                                          0.15)
    assert any(expect in p for p in problems), problems


def test_loss_check_rejects_non_finite_losses():
    assert workloads.loss_problems([(0.1, 0.5), (0.1, 0.4)]) == []
    assert len(workloads.loss_problems([(0.1, math.inf), (0.1, math.nan)])) == 2


# ---------------------------------------------------------------------------
# trace coverage


EXERCISED = {
    "summarize-kts": [
        "segmentation.kts_s", "segmentation.kts_calls",
        "segmentation.kts_frames", "model.encode_s", "model.decode_s",
        "model.decode_steps", "model.decode_s_per_step",
        "attention.encoder_s", "attention.causal_s", "attention.cross_s",
        "attention.calls", "attention.score_entries",
        "attention.score_bytes_computed", "selection.knapsack_s",
        "selection.knapsack_calls"],
    "train-paper": [
        "model.encode_s", "model.forward_s", "attention.encoder_s",
        "attention.causal_s", "attention.cross_s", "attention.calls",
        "attention.score_entries", "numerics.backward_s",
        "numerics.tape_records", "training.adam_s"],
    "kfold-small": [
        "segmentation.kts_s", "segmentation.kts_calls", "model.forward_s",
        "model.decode_s", "model.decode_steps", "attention.encoder_s",
        "attention.causal_s", "attention.cross_s", "numerics.backward_s",
        "numerics.tape_records", "training.adam_s", "selection.knapsack_s",
        "selection.knapsack_calls", "evaluation.eval_s",
        "evaluation.f_measure_calls", "data_io.load_s",
        "data_io.bytes_read"],
}
IDLE = {
    "summarize-kts": ["model.forward_s", "numerics.backward_s",
                      "training.adam_s", "evaluation.f_measure_calls",
                      "data_io.bytes_read"],
    "train-paper": ["segmentation.kts_calls", "model.decode_steps",
                    "model.decode_s", "evaluation.f_measure_calls",
                    "data_io.bytes_read"],
    "kfold-small": [],
}


def test_traced_run_reports_every_per_layer_metric(runs):
    assert set(runs.metrics) == {m["name"] for m in BENCH["per_layer"]}


def test_layers_meant_to_work_are_nonzero(runs):
    zero = [k for k in EXERCISED[runs.name] if not runs.metrics[k] > 0]
    assert zero == []


def test_layers_meant_to_idle_are_exactly_zero(runs):
    busy = {k: runs.metrics[k] for k in IDLE[runs.name] if runs.metrics[k]}
    assert busy == {}


def test_self_times_add_up_to_traced_wall(runs):
    m = runs.metrics
    total = sum(m[layer + ".self_s"] for layer in spans.LAYERS)
    assert total + m["trace.other_s"] == pytest.approx(m["trace.wall_s"],
                                                       rel=1e-9)
    assert 0.0 <= m["trace.other_s"] < 0.05 * m["trace.wall_s"]


def test_encoder_score_entries_match_the_pattern_count():
    cfg = VS.model.ModelConfig(n_layers=2, d=16, d_ff=24, h=2, window=5,
                               input_dim=8, max_len=64)
    params = VS.model.init_params(cfg)
    feats = np.random.default_rng(0).normal(size=(40, 8))
    shots = [(0, 10), (10, 25), (25, 40)]
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.install(tracer, VS, patches)
    try:
        VS.model.encode_video(feats, shots, cfg, params)
    finally:
        patches.restore()
    pattern = VS.attention.build_encoder_pattern(
        cfg.attention, 40, 40, cfg.window, shots, cfg.globals_per_shot)
    expect = VS.attention.count_score_entries(pattern) * cfg.h * cfg.n_layers
    assert tracer.counts["attention.calls"] == cfg.n_layers
    assert tracer.encoder_score_entries(
        VS.attention.count_score_entries) == expect


def test_wrapper_on_the_defining_module_alone_records_nothing():
    # model imported multi_head by name, so only model.multi_head is called
    cfg = VS.model.ModelConfig(n_layers=1, d=16, d_ff=24, h=2, window=5,
                               input_dim=8, max_len=64)
    params = VS.model.init_params(cfg)
    feats = np.random.default_rng(0).normal(size=(20, 8))
    calls = []
    original = VS.attention.multi_head
    patches = spans.Patches()
    patches.set(VS.attention, "multi_head",
                lambda *a, **k: calls.append(1) or original(*a, **k))
    try:
        VS.model.encode_video(feats, [(0, 20)], cfg, params)
    finally:
        patches.restore()
    assert calls == []


def test_patches_are_restored_after_a_traced_pass(runs):
    assert VS.model.multi_head is VS.attention.multi_head
    assert VS.training.forward is VS.model.forward
    assert VS.evaluation.summarize is VS.model.summarize
    assert VS.model.resolve_shots is VS.segmentation.resolve_shots
    assert not hasattr(VS.numerics.Tape.backward, "__wrapped__")
    assert not hasattr(VS.model.output_head, "__wrapped__")


# ---------------------------------------------------------------------------
# command line


def test_end_to_end_metric_names_match_the_declaration(tmp_path):
    ops, setups, _state, per_layer = run.measure(
        WORKLOADS["kfold-small"], VS, SEED, str(tmp_path), 0.0, False)
    assert per_layer is None
    assert len(ops) == run.SETUP_ROUNDS  # at least one op per slice
    assert len(setups) == run.SETUP_ROUNDS * run.SETUP_REPEATS
    metrics = run.end_to_end(ops, min(setups))
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


def test_summarize_slices_take_new_videos(tmp_path):
    # a slice of an untraced run starts at the next video, so no video repeats
    config = VS.model.ModelConfig(
        **dict(workloads.PAPER_CONFIG, n_layers=1, d_ff=32))
    state = {"seed": SEED, "config": config,
             "params": VS.model.init_params(config)}
    seen, summarize = [], VS.model.summarize
    patches = spans.Patches()
    patches.set(VS.model, "summarize",
                lambda video, *a: seen.append(video.video_id)
                or summarize(video, *a))
    try:
        wl = WORKLOADS["summarize-kts"]
        wl.run(VS, state, lambda done: done < 2)
        wl.run(VS, state, lambda done: False, first=2)
    finally:
        patches.restore()
    assert seen == ["v0000", "v0001", "v0002"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
