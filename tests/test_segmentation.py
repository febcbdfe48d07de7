import itertools
import math
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
    check_shots,
    kts_segment,
    resolve_shots,
    segmentation_penalty,
)

from oracles import (
    _unit_gram,
    kts_dp_oracle,
    kts_segment_oracle,
    prefix_sums_one_copy,
    segment_cost_table,
    segmentation_objective,
    validate_shot_list,
)


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
    check_shots([(0, 5), (5, 9)], 9)
    with pytest.raises(SegmentationError):
        check_shots([(0, 5), (6, 9)], 9)  # gap
    with pytest.raises(SegmentationError):
        check_shots([(0, 5), (4, 9)], 9)  # overlap
    with pytest.raises(SegmentationError):
        check_shots([(0, 5), (5, 5)], 5)  # empty shot
    with pytest.raises(SegmentationError):
        check_shots([(0, 5)], 9)  # short coverage
    with pytest.raises(SegmentationError):
        check_shots([], 0)


def test_check_shots_returns_int_pairs():
    shots = check_shots([[0, 2.0], (np.int64(2), np.uint16(5))], 5)
    assert shots == ((0, 2), (2, 5))
    assert all(type(b) is int for pair in shots for b in pair)


@pytest.mark.parametrize("shots", [
    [(0, 2.7), (2.7, 5)],        # int() would read [(0, 2), (2, 5)]
    [(False, True), (True, 5)],  # and [(0, 1), (1, 5)]
    [(0, np.float32(2.5)), (np.float32(2.5), 5)],
    [(0, np.bool_(True)), (1, 5)],
    [(0, "2"), ("2", 5)],
    [(0, math.nan), (2, 5)],
    [(0, math.inf)],
])
def test_check_shots_rejects_non_whole_bounds(shots):
    with pytest.raises(SegmentationError, match="is not a whole number"):
        check_shots(shots, 5)


@settings(max_examples=300, deadline=None)
@given(shots=st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)),
                      max_size=6),
       n_frames=st.integers(-1, 12))
def test_check_shots_equals_the_shot_list_check(shots, n_frames):
    # random pair lists mostly fail; a tiling built from their ends passes
    ends = sorted({e for _s, e in shots if e > 0})
    tiling = list(zip([0] + ends[:-1], ends))
    cases = [(shots, n_frames), (tiling, n_frames),
             (tiling, ends[-1] if ends else 0)]
    for pairs, n in cases:
        try:
            want = validate_shot_list(pairs, n)
        except SegmentationError as exc:
            with pytest.raises(SegmentationError) as got:
                check_shots(pairs, n)
            assert type(got.value) is type(exc)
            assert str(got.value) == str(exc)
        else:
            assert check_shots(pairs, n) == tuple(want)


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
    check_shots(shots, 40)
    assert sum(e - s for s, e in shots) == 40


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
        shots = ((0, 4), (4, 10))

    out = resolve_shots(Vid())
    assert list(out) == [(0, 4), (4, 10)]

    class Vid2:
        features = np.ones((10, 3))
        shots = None

    out2 = resolve_shots(Vid2(), max_shots=3)
    assert out2[-1][1] == 10


def test_resolve_shots_cap_0_scales_with_length():
    class Vid:
        features = np.random.default_rng(4).normal(size=(40, 3)) * 5.0
        shots = None

    want = kts_segment(Vid.features, max_shots=5)
    assert resolve_shots(Vid(), max_shots=0) == want
    assert resolve_shots(Vid()) == want


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
    def tables(sums, kmax):
        return kts_dp_oracle(_unit_gram(features), kmax)

    with mock.patch.object(segmentation, "_kts_tables", tables):
        return kts_segment(features, max_shots=max_shots, penalty=penalty)


def _shot_features(rng, t, dim, n_blocks, noise):
    """Piecewise-constant rows plus noise. Low noise gives shots, on which
    the bound cuts layers; noise 10 is in effect unstructured."""
    starts = np.sort(rng.choice(np.arange(1, t), size=min(n_blocks, t) - 1,
                                replace=False)) if t > 1 else np.zeros(0, int)
    centers = rng.normal(size=(len(starts) + 1, dim))
    labels = np.searchsorted(starts, np.arange(t), side="right")
    return centers[labels] + noise * rng.normal(size=(t, dim))


def _layer_counts(features, max_shots, penalty=1.0):
    """kts_segment's shots and the segment counts it passed to the DP."""
    seen = []
    tables = segmentation._kts_tables

    def spy(sums, kmax):
        seen.append(kmax)
        return tables(sums, kmax)

    with mock.patch.object(segmentation, "_kts_tables", spy):
        shots = kts_segment(features, max_shots=max_shots, penalty=penalty)
    return shots, seen


@settings(max_examples=300, deadline=None)
@given(t=st.integers(1, 80), dim=st.integers(1, 5), n_blocks=st.integers(1, 12),
       noise=st.sampled_from([0.05, 0.3, 1.0, 10.0]),
       max_shots=st.integers(1, 100), penalty=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
       seed=st.integers(0, 2**32 - 1), repeat_rows=st.booleans(),
       zero_rows=st.booleans(), integer_valued=st.booleans())
def test_dp_tables_and_shots_equal_oracle(t, dim, n_blocks, noise, max_shots, penalty,
                                          seed, repeat_rows, zero_rows,
                                          integer_valued):
    rng = np.random.default_rng(seed)
    feats = _shot_features(rng, t, dim, n_blocks, noise)
    if integer_valued:  # few distinct directions make exactly tied costs
        feats = np.round(feats)
    if repeat_rows:
        feats = feats[np.sort(rng.integers(0, max(1, t // 3), size=t))]
    if zero_rows:
        feats[rng.integers(0, t, size=max(1, t // 4))] = 0.0
    kmax = min(max_shots, t)
    dp, back = segmentation._kts_tables(segmentation._prefix_sums(feats), kmax)
    want_dp, want_back = kts_dp_oracle(_unit_gram(feats), kmax)
    assert dp.tobytes() == want_dp.tobytes()
    assert back.tobytes() == want_back.tobytes()
    # the bounded DP against the unbounded oracle, max_shots >= T included
    got, layers = _layer_counts(feats, max_shots, penalty)
    assert list(got) == kts_segment_oracle(feats, max_shots, penalty)
    assert len(got) <= layers[0] <= kmax
    if penalty == 0.0:
        assert layers == [kmax]


def test_paper_scale_videos_give_oracle_shots():
    rng = np.random.default_rng(5)
    direction = rng.normal(size=1024)
    direction /= np.linalg.norm(direction)
    for i in range(3):
        record, _, _ = synth_video(768, 1024, 24, 0.15, rng, direction,
                                   video_id="v%d" % i)
        got = kts_segment(record.features, max_shots=96)
        assert len(got) > 1
        assert list(got) == kts_segment_oracle(record.features, 96)


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
    # building the table and running the DP stays a whole (T+1)^2 float64
    # table below the oracle's DP on a Gram matrix it is handed
    got = _peak_bytes(
        lambda: segmentation._kts_tables(segmentation._prefix_sums(feats), 48))
    want = _peak_bytes(kts_dp_oracle, _unit_gram(feats), 48)
    assert got + (t + 1) ** 2 * 8 <= want, (got, want)


def test_kts_peak_memory_is_one_prefix_table():
    # the (T+1)^2 table is the only T x T array: no Gram matrix beside it
    t = 1024
    feats = np.random.default_rng(8).normal(size=(t, 64))
    peak = _peak_bytes(kts_segment, feats, max_shots=8)
    assert peak <= 1.25 * (t + 1) ** 2 * 8, peak


def test_kts_peak_at_paper_width_is_the_table_and_row_blocks():
    # the features are converted to float64 a few blocks of rows at a time
    dim = 1024
    for t in (768, 1536):
        rng = np.random.default_rng(7)
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        record, _, _ = synth_video(t, dim, t // 24, 0.15, rng, direction)
        peak = _peak_bytes(kts_segment, record.features, max_shots=t // 8)
        bound = 1.25 * ((t + 1) ** 2 + 2 * segmentation.KTS_ROWS * dim) * 8
        assert peak <= bound, (t, peak, bound)


def _zero_row_features(t, dim, dtype, seed):
    feats = np.random.default_rng(seed).normal(size=(t, dim)).astype(dtype)
    feats[t // 3] = 0.0
    feats[t - 1] = 0.0
    return feats


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [1, 127, 128, 129, 300, 383, 384, 512, 640, 768,
                               1000])
def test_prefix_sums_equal_the_one_copy_oracle_bitwise(t, dtype):
    feats = _zero_row_features(t, 96, dtype, t)
    got = segmentation._prefix_sums(feats)
    want = prefix_sums_one_copy(feats)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_prefix_sums_off_the_8_row_grid_stay_within_an_ulp():
    # T = 526: stripes of 256 and 270 rows. OpenBLAS computes the last
    # T mod 8 columns of the one-call x @ x.T with other kernels than the
    # blocked products, so those kernel entries (at most 7 columns of T
    # entries in [-1, 1]) may round differently, by an ulp; a prefix sum
    # over them moves by at most about 8 T eps.
    t = 526
    feats = _zero_row_features(t, 1024, np.float32, 3)
    got = segmentation._prefix_sums(feats)
    want = prefix_sums_one_copy(feats)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 8 * t * np.finfo(np.float64).eps
    assert kts_segment(feats, max_shots=t // 8) == tuple(
        kts_segment_oracle(feats, t // 8))


def test_kts_leaves_the_callers_features_unchanged():
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(50, 6)) * 3.0
    feats[7] = 0.0
    before = feats.copy()
    kts_segment(feats, max_shots=6)
    assert feats.dtype == np.float64
    assert feats.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# the segment-count bound against the unbounded oracle


def test_bound_cuts_layers_on_planted_shots():
    # the oracle property test only means something if the bound cuts
    rng = np.random.default_rng(11)
    cut = 0
    for _ in range(20):
        feats = _shot_features(rng, 80, 4, 5, 0.05)
        got, layers = _layer_counts(feats, 40)
        assert list(got) == kts_segment_oracle(feats, 40)
        cut += layers[0] < 40
    assert cut >= 15


def test_paper_scale_dp_builds_few_layers_and_the_full_rows():
    rng = np.random.default_rng(7)
    direction = rng.normal(size=1024)
    direction /= np.linalg.norm(direction)
    for i in range(3):
        record, _, _ = synth_video(768, 1024, 32, 0.15, rng, direction,
                                   offset_scale=2.0, video_id="v%d" % i)
        feats = record.features
        _, layers = _layer_counts(feats, 96)
        assert layers[0] <= 34, layers
        sums = segmentation._prefix_sums(feats)
        dp, back = segmentation._kts_tables(sums, layers[0])
        full_dp, full_back = segmentation._kts_tables(sums, 96)
        assert dp.tobytes() == full_dp[:layers[0] + 1].tobytes()
        assert back.tobytes() == full_back[:layers[0] + 1].tobytes()
    assert _layer_counts(feats, 96, penalty=0.0)[1] == [96]


def _bound_and_objective(sums, kmax, penalty):
    """The bound's m_max and the greedy objective U it came from."""
    seen = []
    greedy = segmentation._greedy_objective

    def spy(*args):
        seen.append(greedy(*args))
        return seen[-1]

    with mock.patch.object(segmentation, "_greedy_objective", spy):
        m_max = segmentation._segment_count_bound(sums, kmax, penalty)
    return m_max, seen[0]


def test_near_tie_at_the_bound_keeps_the_oracle_shots():
    # bisect the penalty until penalty(m + 1) lies within 1e-9 of U, where m
    # is the bound at penalty 1: the margin must keep layer m + 1, and the
    # shots must equal the oracle's however the rounding falls
    rng = np.random.default_rng(3)
    t, kmax = 60, 20
    feats = _shot_features(rng, t, 3, 6, 0.05)
    sums = segmentation._prefix_sums(feats)
    m, _ = _bound_and_objective(sums, kmax, 1.0)
    assert m < kmax

    def gap(p):
        m_max, upper = _bound_and_objective(sums, kmax, p)
        return m_max, segmentation_penalty(t, m + 1, p) - upper

    lo, hi = 1e-3, 1.0
    assert gap(lo)[1] < 0.0 < gap(hi)[1]
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if gap(mid)[1] > 0.0:
            hi = mid
        else:
            lo = mid
    for p in (lo, hi):
        m_max, g = gap(p)
        assert abs(g) <= 1e-9 and m_max >= m + 1, (p, g, m_max)
        got = kts_segment(feats, max_shots=kmax, penalty=p)
        assert list(got) == kts_segment_oracle(feats, kmax, p)
