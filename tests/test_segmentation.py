import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsum.segmentation import (
    SegmentationError,
    ShotList,
    kts_segment,
    resolve_shots,
    segment_cost_table,
    segmentation_penalty,
)

from oracles import segmentation_objective


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
    assert shots.source == "detected"


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
    assert out2.source == "detected"
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
    assert shots.source == "detected"
    assert list(kts_segment(feats, max_shots=max_shots, penalty=penalty)) == bounds
