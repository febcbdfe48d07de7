import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsum import segmentation
from vidsum.data_io import synth_video
from vidsum.segmentation import (
    SegmentationError,
    ShotList,
    kts_segment,
    resolve_shots,
    segmentation_penalty,
)

from oracles import kts_dp_oracle, segment_cost_table, segmentation_objective


def brute_force_objective(features, max_shots, penalty=1.0):
    """Enumerate every segmentation with <= max_shots segments."""
    t = features.shape[0]
    best = np.inf
    best_bounds = None
    for m in range(1, min(max_shots, t) + 1):
        for cuts in itertools.combinations(range(1, t), m - 1):
            pts = [0] + list(cuts) + [t]
            bounds = [(pts[i], pts[i + 1]) for i in range(m)]
            obj = segmentation_objective(features, bounds, penalty)
            if obj < best:
                best, best_bounds = obj, bounds
    return best, best_bounds


def test_shot_list_validation():
    ShotList([(0, 5), (5, 9)]).validate(9)
    with pytest.raises(SegmentationError):
        ShotList([(0, 5), (6, 9)]).validate(9)  # gap
    with pytest.raises(SegmentationError):
        ShotList([(0, 5), (4, 9)]).validate(9)  # overlap
    with pytest.raises(SegmentationError):
        ShotList([(0, 5), (5, 5)]).validate(5)  # empty shot
    with pytest.raises(SegmentationError):
        ShotList([(0, 5)]).validate(9)  # short coverage
    with pytest.raises(SegmentationError):
        ShotList([]).validate(0)


def test_constant_features_single_shot():
    feats = np.ones((12, 4))
    shots = kts_segment(feats, max_shots=5)
    assert list(shots) == [(0, 12)]


def test_two_block_boundary():
    # frames 0-9 one direction, 10-19 an orthogonal one
    feats = np.zeros((20, 4))
    feats[:10, 0] = 1.0
    feats[10:, 1] = 1.0
    shots = kts_segment(feats, max_shots=4)
    assert list(shots) == [(0, 10), (10, 20)]


def test_penalty_is_increasing_in_segments():
    vals = [segmentation_penalty(30, m) for m in range(1, 10)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_cost_table_matches_direct_scatter():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 3))
    xn = x / np.sqrt((x * x).sum(axis=1, keepdims=True))
    gram = xn @ xn.T
    cost = segment_cost_table(gram)
    for a in range(9):
        for b in range(a + 1, 10):
            blk = gram[a:b, a:b]
            want = np.trace(blk) - blk.sum() / (b - a)
            assert abs(cost[a, b] - want) < 1e-10


def test_dp_equals_brute_force_small():
    rng = np.random.default_rng(1)
    for trial in range(20):
        t = int(rng.integers(8, 31))
        d = int(rng.integers(2, 6))
        feats = rng.normal(size=(t, d))
        shots = kts_segment(feats, max_shots=4)
        got = segmentation_objective(feats, list(shots))
        want, _ = brute_force_objective(feats, max_shots=4)
        assert abs(got - want) < 1e-9, (trial, got, want)


def test_detected_shots_tile_input():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(40, 6))
    shots = kts_segment(feats, max_shots=6)
    shots.validate(40)
    assert shots.lengths().sum() == 40


def test_max_shots_cap_respected():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(30, 4)) * 5.0
    for cap in (1, 2, 3):
        assert len(kts_segment(feats, max_shots=cap)) <= cap


def test_kts_rejects_bad_input():
    with pytest.raises(SegmentationError):
        kts_segment(np.zeros((0, 4)), max_shots=3)
    with pytest.raises(SegmentationError):
        kts_segment(np.zeros((5, 4)), max_shots=0)


def test_resolve_shots_prefers_provided():
    class Vid:
        features = np.zeros((10, 3))
        shots = ShotList([(0, 4), (4, 10)])

    out = resolve_shots(Vid())
    assert list(out) == [(0, 4), (4, 10)]

    class Vid2:
        features = np.ones((10, 3))
        shots = None

    out2 = resolve_shots(Vid2(), max_shots=3)
    assert out2.n_frames == 10


@settings(max_examples=150, deadline=None)
@given(t=st.integers(1, 40), dim=st.integers(1, 4),
       max_shots=st.integers(1, 50), penalty=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1), repeat_rows=st.booleans())
def test_kts_tiles_within_cap_and_reruns_identically(t, dim, max_shots, penalty,
                                                     seed, repeat_rows):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t, dim))
    if repeat_rows:  # runs of identical frames make many tied costs
        feats = feats[np.sort(rng.integers(0, max(1, t // 3), size=t))]
    shots = kts_segment(feats, max_shots=max_shots, penalty=penalty)
    bounds = list(shots)
    assert 1 <= len(bounds) <= min(max_shots, t)
    assert bounds[0][0] == 0 and bounds[-1][1] == t
    assert all(s < e for s, e in bounds)
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert list(kts_segment(feats, max_shots=max_shots, penalty=penalty)) == bounds


# ---------------------------------------------------------------------------
# the one-pass DP against the per-(m, b) oracle


def oracle_kts_segment(features, max_shots, penalty=1.0):
    """kts_segment with its DP tables built by the per-(m, b) oracle."""
    with mock.patch.object(segmentation, "_kts_tables", kts_dp_oracle):
        return kts_segment(features, max_shots=max_shots, penalty=penalty)


@settings(max_examples=300, deadline=None)
@given(t=st.integers(1, 80), dim=st.integers(1, 5),
       max_shots=st.integers(1, 100), penalty=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1), repeat_rows=st.booleans(),
       zero_rows=st.booleans(), integer_valued=st.booleans())
def test_dp_tables_and_shots_equal_oracle(t, dim, max_shots, penalty, seed,
                                          repeat_rows, zero_rows, integer_valued):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t, dim))
    if integer_valued:  # few distinct directions make exactly tied costs
        feats = np.round(feats)
    if repeat_rows:
        feats = feats[np.sort(rng.integers(0, max(1, t // 3), size=t))]
    if zero_rows:
        feats[rng.integers(0, t, size=max(1, t // 4))] = 0.0
    gram = segmentation._gram(feats)
    kmax = min(max_shots, t)
    dp, back = segmentation._kts_tables(gram, kmax)
    want_dp, want_back = kts_dp_oracle(gram, kmax)
    assert dp.tobytes() == want_dp.tobytes()
    assert back.tobytes() == want_back.tobytes()
    got = kts_segment(feats, max_shots=max_shots, penalty=penalty)
    assert list(got) == list(oracle_kts_segment(feats, max_shots, penalty))


def test_paper_scale_videos_give_oracle_shots():
    rng = np.random.default_rng(5)
    direction = rng.normal(size=1024)
    direction /= np.linalg.norm(direction)
    for i in range(3):
        record, _, _ = synth_video(768, 1024, 24, 0.15, rng, direction,
                                   video_id="v%d" % i)
        got = kts_segment(record.features, max_shots=96)
        assert len(got) > 1
        assert list(got) == list(oracle_kts_segment(record.features, 96))


def _peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dp_peak_memory_no_higher_than_oracle():
    t = 384
    feats = np.random.default_rng(6).normal(size=(t, 64))
    got = _peak_bytes(kts_segment, feats, max_shots=48)
    want = _peak_bytes(oracle_kts_segment, feats, max_shots=48)
    assert got <= want, (got, want)
    # the tables alone stay a whole (T+1)^2 float64 table below the oracle's
    gram = segmentation._gram(feats)
    got = _peak_bytes(segmentation._kts_tables, gram, 48)
    want = _peak_bytes(kts_dp_oracle, gram, 48)
    assert got + (t + 1) ** 2 * 8 <= want, (got, want)
