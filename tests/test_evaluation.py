import csv
import tracemalloc

import numpy as np
import pytest

from vidsum.attention import build_encoder_pattern

from vidsum.data_io import synth_dataset
from vidsum.evaluation import (
    bench,
    bench_shots,
    evaluate_multi_user,
    evaluate_videos,
    f_measure,
    format_bench_table,
    gt_user_masks,
    peak_attention_bytes,
    random_baseline,
    write_bench_csv,
    write_eval_csv,
)
from vidsum.model import ModelConfig, init_params
from vidsum.segmentation import check_shots
from vidsum.selection import make_summary


def mask(t, on):
    m = np.zeros(t, dtype=bool)
    m[list(on)] = True
    return m


# ---------------------------------------------------------------------------
# f-measure


def test_f_measure_fixtures():
    a = mask(20, range(5, 10))
    assert f_measure(a, a) == (1.0, 1.0, 100.0)
    b = mask(20, range(10, 15))
    assert f_measure(a, b) == (0.0, 0.0, 0.0)
    gen = mask(40, range(0, 10))
    gt = mask(40, range(5, 15))  # overlap 5, both size 10
    p, r, f = f_measure(gen, gt)
    assert (p, r) == (0.5, 0.5)
    assert f == pytest.approx(50.0, abs=1e-12)


def test_f_measure_empty_conventions():
    t = 10
    empty = np.zeros(t, dtype=bool)
    some = mask(t, [1, 2])
    assert f_measure(empty, some) == (0.0, 0.0, 0.0)
    assert f_measure(some, empty) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        f_measure(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


def test_f_measure_algebraic_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(2, 60))
        gen = rng.random(t) < rng.uniform(0.1, 0.9)
        gt = rng.random(t) < rng.uniform(0.1, 0.9)
        if not gen.any() or not gt.any():
            continue
        _, _, f = f_measure(gen, gt)
        direct = 200.0 * np.logical_and(gen, gt).sum() / (gen.sum() + gt.sum())
        worst = max(worst, abs(f - direct))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# multi-user aggregation


def test_multi_user_single_degenerate():
    gen = mask(10, [0, 1, 2])
    user = mask(10, [1, 2, 3])
    for mode in ("max", "mean"):
        entry = evaluate_multi_user(gen, [user], mode)
        assert entry["f_measure"] == f_measure(gen, user)[2]


def test_multi_user_forty_sixty():
    # |gen| = |user| = 5 on T=10: overlap 2 -> F=40, overlap 3 -> F=60
    gen = mask(10, range(5))
    u40 = mask(10, [0, 1, 5, 6, 7])
    u60 = mask(10, [0, 1, 2, 5, 6])
    assert f_measure(gen, u40)[2] == pytest.approx(40.0)
    assert f_measure(gen, u60)[2] == pytest.approx(60.0)
    assert evaluate_multi_user(gen, [u40, u60], "max")["f_measure"] == pytest.approx(60.0)
    assert evaluate_multi_user(gen, [u40, u60], "mean")["f_measure"] == pytest.approx(50.0)


def test_multi_user_loop_oracle():
    rng = np.random.default_rng(1)
    t = 30
    gen = rng.random(t) < 0.4
    users = [rng.random(t) < 0.4 for _ in range(5)]
    entry_max = evaluate_multi_user(gen, users, "max")
    entry_mean = evaluate_multi_user(gen, users, "mean")
    fs = [f_measure(gen, u)[2] for u in users]
    assert entry_max["f_measure"] == max(fs)
    assert entry_mean["f_measure"] == pytest.approx(np.mean(fs), abs=1e-12)
    with pytest.raises(ValueError):
        evaluate_multi_user(gen, [], "max")
    with pytest.raises(ValueError):
        evaluate_multi_user(gen, users, "median")


# ---------------------------------------------------------------------------
# ground-truth masks per user


def test_gt_user_masks_passthrough_and_conversion():
    videos, meta = synth_dataset(1, (60, 80), 8, (3, 5), seed=2)
    rec = videos[0]
    masks = gt_user_masks(rec, rec.shots, 0.15)
    assert len(masks) == rec.users.shape[0]
    for i, m in enumerate(masks):
        want = make_summary(np.clip(rec.users[i], 0, 1), rec.shots,
                            0.15).keyframe_mask
        assert np.array_equal(m, want)
    # mask-annotated record passes masks through untouched
    rec.users = np.stack([meta["planted_masks"][0]] * 2)
    masks = gt_user_masks(rec, rec.shots, 0.15)
    assert np.array_equal(masks[0], meta["planted_masks"][0])


# ---------------------------------------------------------------------------
# random baseline


def test_random_baseline_range_and_determinism():
    videos, meta = synth_dataset(1, (80, 120), 16, (4, 8), seed=3)
    rec = videos[0]
    base = random_baseline(rec, rec.shots, 0.15, n_draws=200, seed=0)
    assert 0.0 <= base <= 100.0
    assert base == random_baseline(rec, rec.shots, 0.15, n_draws=200, seed=0)
    # the planted oracle summary beats random selection comfortably
    from vidsum.evaluation import evaluate_summary

    oracle = evaluate_summary(meta["planted_masks"][0], rec, rec.shots)
    assert oracle["f_measure"] > base + 20.0


# ---------------------------------------------------------------------------
# model evaluation plumbing


def test_evaluate_videos_and_csv(tmp_path):
    videos, _ = synth_dataset(2, (24, 32), 8, (3, 4), seed=4)
    cfg = ModelConfig(n_layers=1, d=8, d_ff=8, h=2, window=5, input_dim=8,
                      max_len=40, dtype="float32")
    params = init_params(cfg)
    rows = evaluate_videos(videos, cfg, params)
    assert len(rows) == 2
    for r in rows:
        assert set(r) >= {"video", "precision", "recall", "f_measure"}
        assert 0.0 <= r["f_measure"] <= 100.0
    path = tmp_path / "eval.csv"
    write_eval_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "video,precision,recall,f_measure"
    assert len(lines) == 4 and lines[-1].startswith("mean,")


def test_write_eval_csv_content_and_no_temp_file(tmp_path):
    rows = [{"video": "a", "precision": 0.5, "recall": 0.25, "f_measure": 100 / 3},
            {"video": "b", "precision": 1.0, "recall": 0.75, "f_measure": 85.0}]
    path = tmp_path / "eval.csv"
    path.write_text("stale\n")
    write_eval_csv(path, rows)
    assert path.read_text() == (
        "video,precision,recall,f_measure\n"
        "a,0.500000,0.250000,33.3333\n"
        "b,1.000000,0.750000,85.0000\n"
        "mean,0.750000,0.500000,59.1667\n")
    assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]


def test_write_eval_csv_reads_back_any_video_id(tmp_path):
    ids = ["a,b", "line\nbreak", 'say "hi"', "plain"]
    rows = [{"video": v, "precision": 0.5, "recall": 0.5, "f_measure": 50.0}
            for v in ids]
    path = tmp_path / "eval.csv"
    write_eval_csv(path, rows)
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert [r[0] for r in table] == ["video"] + ids + ["mean"]
    assert all(len(r) == 4 for r in table)


# ---------------------------------------------------------------------------
# benchmark


def bench_config(**kw):
    base = dict(n_layers=1, d=16, d_ff=16, h=2, window=9, input_dim=16,
                max_len=512, dtype="float32")
    base.update(kw)
    return ModelConfig(**base)


def test_bench_shots_fixed_count():
    for t in (64, 129, 512):
        shots = bench_shots(t)
        assert len(shots) == 8
        check_shots(shots, t)


def test_bench_reports_and_scaling_laws(tmp_path):
    cfg = bench_config()
    reports = bench(["full", "local_global"], [256, 512], cfg, repeats=5)
    assert len(reports) == 4
    by_key = {(r.pattern, r.length): r for r in reports}
    for r in reports:
        assert r.score_entries > 0 and r.score_flops > 0
        assert r.forward_flops > r.score_flops
        assert r.runtime_s >= 0.0 and r.peak_attention_bytes > 0

    fa = by_key[("full", 512)].score_flops / by_key[("full", 256)].score_flops
    lga = (by_key[("local_global", 512)].score_flops
           / by_key[("local_global", 256)].score_flops)
    assert 3.4 <= fa <= 4.6
    assert 1.7 <= lga <= 2.3
    # sparse pattern does strictly less score work; its buffers win once the
    # dense T*T grid dominates the gather-index overhead
    assert (by_key[("local_global", 512)].score_flops
            < by_key[("full", 512)].score_flops)
    assert (by_key[("local_global", 512)].peak_attention_bytes
            < by_key[("full", 512)].peak_attention_bytes)

    csv_path = tmp_path / "bench.csv"
    write_bench_csv(csv_path, reports)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("pattern,length,score_entries")
    assert len(lines) == 5
    table = format_bench_table(reports)
    assert "pattern" in table and "local_global" in table
    assert len(table.splitlines()) == 6


def test_peak_attention_bytes_inside_an_outer_session():
    # the caller's session holds 16 MiB; the call reports its own peak
    # above that, and the caller's session stays on
    x = np.random.default_rng(9).normal(size=(64, 32))
    pattern = build_encoder_pattern("fa", 64, 64, 1, None)
    alone = peak_attention_bytes(x, pattern, 4)
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        ballast = np.ones(2**21)
        inside = peak_attention_bytes(x, pattern, 4)
        still_tracing = tracemalloc.is_tracing()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert still_tracing and held >= ballast.nbytes
    assert abs(inside - alone) <= 4096, (inside, alone)
    assert 0 < inside < ballast.nbytes // 8


def test_bench_rejects_thin_repeats():
    with pytest.raises(ValueError):
        bench(["full"], [64], bench_config(), repeats=3)
