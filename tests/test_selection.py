import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vidsum import selection
from vidsum.segmentation import SegmentationError, check_shots
from vidsum.selection import (
    export_summary,
    knapsack_select,
    make_summary,
    rle_encode,
)

from oracles import rle_decode, shot_scores


def knapsack_oracle(values, lengths, budget):
    """Exhaustive enumeration; ties to the lexicographically smallest tuple.

    Values must be exactly representable sums (e.g. multiples of 1/1024) so
    float association cannot blur equality.
    """
    values = np.asarray(values, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = values.size
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    val = bits @ values
    cost = bits @ lengths.astype(np.float64)
    feasible = cost <= budget
    best = val[feasible].max()
    cand = np.flatnonzero(feasible & (val == best))
    tuples = [tuple(int(i) for i in np.flatnonzero(bits[c])) for c in cand]
    return min(tuples)


def quantized(rng, n):
    return rng.integers(0, 1025, size=n).astype(np.float64) / 1024.0


# ---------------------------------------------------------------------------
# shot scores: make_summary pools frame scores into shot means


def test_shot_scores_mean():
    scores = np.array([0.0, 1.0, 0.5, 0.5, 1.0, 0.0, 0.25])
    shots = ((0, 2), (2, 4), (4, 7))
    assert np.allclose(shot_scores(scores, shots), [0.5, 0.5, 0.4166666666666667])


def test_shot_scores_coverage_check():
    with pytest.raises(SegmentationError):
        make_summary(np.zeros(5), ((0, 4),))
    # the whole tiling is checked, not only the last end
    with pytest.raises(SegmentationError, match="tile contiguously"):
        make_summary(np.zeros(5), ((0, 2), (3, 5)))
    with pytest.raises(SegmentationError, match="empty shot list"):
        make_summary(np.zeros(0), ())


def test_make_summary_checks_its_shots_once(monkeypatch):
    calls = []

    def counting_check_shots(shots, n_frames):
        calls.append(n_frames)
        return check_shots(shots, n_frames)

    monkeypatch.setattr(selection, "check_shots", counting_check_shots)
    make_summary(np.linspace(0, 1, 10), [(0, 4), (4, 10)], 0.5)
    assert calls == [10]


# ---------------------------------------------------------------------------
# knapsack


def test_knapsack_hand_example():
    # {1, 2} fits the budget and beats the singleton {0}
    assert knapsack_select([5.0, 4.0, 3.0], [4, 3, 2], 5) == [1, 2]


def test_knapsack_unconstrained_takes_everything():
    assert knapsack_select([1.0, 2.0, 3.0], [2, 2, 2], 100) == [0, 1, 2]


def test_knapsack_zero_budget_empty():
    assert knapsack_select([1.0, 2.0], [1, 1], 0) == []


def test_knapsack_all_zero_scores_empty():
    assert knapsack_select([0.0, 0.0, 0.0], [1, 1, 1], 2) == []


def test_knapsack_tie_prefers_lexicographically_smallest():
    # {0,1}, {0,2}, {1,2} all reach value 2 under budget 4
    assert knapsack_select([1.0, 1.0, 1.0], [2, 2, 2], 4) == [0, 1]
    # equal-value singletons: earliest index wins
    assert knapsack_select([3.0, 3.0], [2, 2], 2) == [0]
    # a free zero-value item is taken only if it lowers the tuple
    assert knapsack_select([0.0, 5.0], [1, 1], 2) == [0, 1]
    assert knapsack_select([5.0, 0.0], [1, 1], 2) == [0]


def test_knapsack_input_validation():
    with pytest.raises(ValueError):
        knapsack_select([1.0], [1, 2], 3)
    with pytest.raises(ValueError):
        knapsack_select([-1.0], [1], 3)
    with pytest.raises(ValueError):
        knapsack_select([1.0], [0], 3)
    with pytest.raises(ValueError):
        knapsack_select([1.0], [1], -1)


def test_knapsack_budget_respected_randomized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        values = quantized(rng, n)
        lengths = rng.integers(1, 12, size=n)
        budget = int(rng.integers(0, 40))
        picked = knapsack_select(values, lengths, budget)
        assert sum(int(lengths[i]) for i in picked) <= budget
        assert picked == sorted(set(picked))


def test_knapsack_matches_exhaustive_oracle():
    rng = np.random.default_rng(1)
    for trial in range(60):
        n = int(rng.integers(1, 13))
        values = quantized(rng, n)
        if trial % 5 == 0:
            values[rng.integers(0, n)] = 0.0  # force some exact ties
        lengths = rng.integers(1, 10, size=n)
        budget = int(rng.integers(0, int(lengths.sum()) + 3))
        got = knapsack_select(values, lengths, budget)
        want = list(knapsack_oracle(values, lengths, budget))
        assert got == want, (trial, values.tolist(), lengths.tolist(), budget)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_knapsack_lexicographic_tie_rule_property(data):
    # small integer values make many equal-value optima, and their float
    # sums are exact, so the oracle's equality test is exact too
    n = data.draw(st.integers(0, 10))
    values = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    lengths = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    budget = data.draw(st.integers(0, sum(lengths) + 2))
    got = knapsack_select(values, lengths, budget)
    assert got == list(knapsack_oracle(values, lengths, budget))


def test_knapsack_scale_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        values = quantized(rng, n)
        lengths = rng.integers(1, 8, size=n)
        budget = int(rng.integers(1, 25))
        base = knapsack_select(values, lengths, budget)
        for c in (2.0, 0.5, 4.0):  # powers of two keep float ties exact
            assert knapsack_select(values * c, lengths, budget) == base


# ---------------------------------------------------------------------------
# make_summary


def test_make_summary_budget_cap():
    rng = np.random.default_rng(3)
    scores = rng.random(100)
    shots = tuple((i * 10, (i + 1) * 10) for i in range(10))
    res = make_summary(scores, shots, budget_ratio=0.15)
    assert res.budget == 15
    assert res.keyframe_mask.sum() <= 15
    assert res.keyframe_mask.size == 100


def test_make_summary_composes_pooling_and_knapsack():
    rng = np.random.default_rng(4)
    scores = rng.random(60)
    shots = ((0, 13), (13, 29), (29, 41), (41, 60))
    res = make_summary(scores, shots, budget_ratio=0.3)
    pooled = shot_scores(scores, shots)
    want = knapsack_select(pooled, [e - s for s, e in shots], int(np.floor(0.3 * 60)))
    assert res.selected_shots == want
    mask = np.zeros(60, dtype=bool)
    for i in want:
        s, e = shots[i]
        mask[s:e] = True
    assert np.array_equal(res.keyframe_mask, mask)


def test_make_summary_selects_high_scoring_shot():
    scores = np.zeros(20)
    scores[5:10] = 1.0
    shots = ((0, 5), (5, 10), (10, 20))
    res = make_summary(scores, shots, budget_ratio=0.3)
    assert res.selected_shots == [1]
    assert res.selected_ranges == [(5, 10)]


@pytest.mark.parametrize("shots", [
    [(0, 2.7), (2.7, 5)],  # truncated, the summary would pick [(2, 5)]
    [(False, True), (True, 5)],
])
def test_make_summary_rejects_non_whole_shot_bounds(shots):
    with pytest.raises(SegmentationError, match="is not a whole number"):
        make_summary(np.linspace(0, 1, 5), shots, 0.6)


def test_make_summary_validates_scores():
    shots = ((0, 4),)
    with pytest.raises(ValueError):
        make_summary(np.array([0.1, 0.2, 1.5, 0.0]), shots)
    with pytest.raises(ValueError):
        make_summary(np.array([0.1, np.nan, 0.2, 0.0]), shots)
    with pytest.raises(ValueError):
        make_summary(np.full(4, 0.5), shots, budget_ratio=0.0)


# ---------------------------------------------------------------------------
# run-length encoding and export


def test_rle_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mask = rng.random(int(rng.integers(1, 50))) > 0.6
        assert np.array_equal(rle_decode(rle_encode(mask)), mask)
    assert rle_encode(np.zeros(0, dtype=bool)) == []
    assert rle_encode(np.array([True, True, False])) == [[1, 2], [0, 1]]


def test_export_summary_fields(tmp_path):
    scores = np.zeros(20)
    scores[5:10] = 1.0
    shots = ((0, 5), (5, 10), (10, 20))
    res = make_summary(scores, shots, budget_ratio=0.3)
    path = tmp_path / "video_1.summary.json"
    export_summary(path, "video_1", res)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["budget", "budget_ratio", "keyframe_rle", "n_frames",
                           "selected_shots", "video"]
    assert doc["video"] == "video_1"
    assert doc["selected_shots"] == [[5, 10]]
    assert doc["budget"] == 6
    assert np.array_equal(rle_decode(doc["keyframe_rle"]), res.keyframe_mask)
