"""Shots and their detection by kernel change-point segmentation.

Shots are a tuple of int (start, end) pairs: half-open frame ranges that
tile [0, T). ``check_shots`` is the one check of that rule; it turns any
sequence of pairs into that form and rejects a bool or fractional bound.

Frame descriptors are L2-normalized, and dynamic programming places
boundaries that minimize total within-segment scatter under a linear kernel
(Potapov et al., ECCV 2014). The one T x T table is a (T + 1)^2 block: the
Gram matrix is written into its interior and summed there in place into 2-D
prefix sums. The DP is one pass over end frames b = 1 .. T: each step builds
the cost row of every segment [a, b) from those sums and settles all segment
counts m <= max_shots at b with one argmin per count, so the
O(max_shots * T^2) work runs in T numpy steps and no cost table is kept.
Ties go to the earliest split. The segment count m is chosen by penalizing
the DP objective with penalty * m * (log(T / m) + 1), capped at max_shots;
ties go to the smaller m. Everything is float64 arithmetic in a fixed order,
so results are deterministic.

Before the DP, a greedy best-first binary split over the same prefix sums
gives U, the objective of one feasible segmentation. Scatter is never
negative and the penalty does not decrease in m, so no count whose penalty
alone exceeds U (plus a margin for rounding) can win, and the DP builds
only the counts up to the largest one that still can. Its rows are those
of the full table and the chosen shots are the same; on shot-structured
paper-scale videos it builds about a third of the T // 8 counts.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .numerics import row_blocks

# Feature rows per float64 copy when KTS builds its kernel matrix: a stripe
# of KTS_STRIPE rows is copied once, the rows after it KTS_ROWS at a time.
KTS_STRIPE = 256
KTS_ROWS = 128


class SegmentationError(ValueError):
    """Shot ranges are inconsistent (overlap, gap, or out of bounds)."""


def _whole_bound(v):
    """A shot bound as an int: a whole number (numpy integers and whole
    floats too), never a bool."""
    if type(v) is int:  # most calls re-check pairs already normalised here
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        return int(v)
    raise SegmentationError(f"shot bound {v!r} is not a whole number")


def check_shots(shots, n_frames) -> tuple:
    """Shots as a tuple of int (start, end) pairs, checked to tile
    [0, n_frames) with non-empty half-open ranges."""
    shots = tuple((_whole_bound(s), _whole_bound(e)) for s, e in shots)
    if not shots:
        raise SegmentationError("empty shot list")
    prev_end = 0
    for s, e in shots:
        if s != prev_end:
            raise SegmentationError(
                f"shots must tile contiguously: expected start {prev_end}, got {s}"
            )
        if e <= s:
            raise SegmentationError(f"empty or reversed shot [{s}, {e})")
        prev_end = e
    if prev_end != n_frames:
        raise SegmentationError(
            f"shots cover [0, {prev_end}) but the video has {n_frames} frames"
        )
    return shots


def _prefix_sums(features):
    """(diag_cs, block) of the unit-normalized rows' linear kernel K:
    diag_cs[b] sums the diagonal of K[:b, :b] and block[a, b] sums K[:a, :b],
    so any segment cost takes O(1) work. K is built and summed inside block,
    the only T x T array.

    The features are never copied whole. The row norms are squared
    ``KTS_ROWS`` rows at a time. K is built one stripe of ``KTS_STRIPE`` rows
    at a time (``row_blocks``): the stripe's rows are copied to float64 and
    divided by their norms, its diagonal block is ``xi @ xi.T``, and the
    blocks to its right are ``xi @ xj.T`` over ``KTS_ROWS``-row blocks xj of
    the later rows, each converted the same way and mirrored below the
    diagonal. So KTS holds the table, the caller's features and float64
    copies of at most three ``KTS_ROWS`` blocks; the cost is converting each
    later block again for every stripe above it. With OpenBLAS, K equals one
    ``x @ x.T`` over a whole normalized copy bit for bit at every T below
    384 and every multiple of 8 tried (up to 1600); at other T, that one
    product rounds its last T mod 8 columns with other kernels, and entries
    there may differ by an ulp."""
    t = features.shape[0]
    norms = np.sqrt(np.concatenate([
        np.square(features[a:a + KTS_ROWS], dtype=np.float64)
        .sum(axis=1, keepdims=True) for a in range(0, t, KTS_ROWS)]))
    norms[norms == 0.0] = 1.0  # leave zero rows alone
    block = np.zeros((t + 1, t + 1))
    inner = block[1:, 1:]
    for a, b in row_blocks(t, KTS_STRIPE):
        xi = features[a:b] / norms[a:b]  # a float64 copy
        np.matmul(xi, xi.T, out=inner[a:b, a:b])
        for c, d in row_blocks(t - b, KTS_ROWS):
            c, d = b + c, b + d
            np.matmul(xi, (features[c:d] / norms[c:d]).T, out=inner[a:b, c:d])
            inner[c:d, a:b] = inner[a:b, c:d].T
        del xi  # before the next stripe's copy
    diag_cs = np.concatenate([[0.0], np.cumsum(np.diag(inner))])
    np.cumsum(inner, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return diag_cs, block


def _kts_tables(sums, kmax):
    """(dp, back) of KTS from ``_prefix_sums``: dp[m, b] is the least
    scatter of frames [0, b) in m segments, back[m, b] the start of the last
    one. dp[m - 1, a] is inf for a < m - 1, so the argmin over every a < b
    never picks those splits.
    """
    diag_cs, block = sums
    t = block.shape[0] - 1
    block_diag = np.diag(block)
    lengths = np.arange(t, 0, -1, dtype=np.float64)  # [t - b:] is b - a, a < b

    dp = np.full((kmax + 1, t + 1), np.inf)
    back = np.zeros((kmax + 1, t + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for b in range(1, t + 1):
        blk = block[b, b] - block[:b, b] - block[b, :b] + block_diag[:b]
        row = (diag_cs[b] - diag_cs[:b]) - blk / lengths[t - b:]
        mm = min(kmax, b)
        prev = dp[:mm, :b] + row
        j = prev.argmin(axis=1)
        dp[1:mm + 1, b] = prev[np.arange(mm), j]
        back[1:mm + 1, b] = j
    return dp, back


def segmentation_penalty(n_frames, n_segments, penalty=1.0):
    return penalty * n_segments * (math.log(n_frames / n_segments) + 1.0)


def _greedy_objective(sums, pen, margin):
    """U: the least objective along a greedy best-first binary split.

    ``pen[m]`` is the penalty of m segments, m = 1 .. kmax. Each round
    splits the segment whose best split lowers the scatter most. The greedy
    stops once pen[m + 1] > U + margin, when no further split can lower U,
    or once even gains as large as the best one left could not bring U
    below pen[kmax] - margin. Stopping early only raises U.
    """
    diag_cs, block = sums
    t = block.shape[0] - 1
    kmax = len(pen) - 1
    block_diag = np.diag(block)
    lengths = np.arange(t + 1, dtype=np.float64)

    def cost(a, b):  # the DP row's expression at one (a, b)
        return float((diag_cs[b] - diag_cs[a])
                     - (block_diag[b] - block[a, b] - block[b, a]
                        + block_diag[a]) / lengths[b - a])

    def best_split(a, b, whole):
        """(-gain, a, b, k, C(a, k), C(k, b)) of the best split of [a, b).
        The diagonal sums of C(a, k) + C(k, b) add up to C(a, b)'s, so the
        sum is least where the two block ratios add up to the most."""
        inner = slice(a + 1, b)
        d = block_diag[inner]
        ratio = ((d - block[a, inner] - block[inner, a] + block_diag[a])
                 / lengths[1:b - a])
        ratio += ((block_diag[b] - block[inner, b] - block[b, inner] + d)
                  / lengths[b - a - 1:0:-1])
        k = a + 1 + int(ratio.argmax())
        left, right = cost(a, k), cost(k, b)
        return (left + right - whole, a, b, k, left, right)

    scatter = cost(0, t)
    upper = scatter + pen[1]
    heap = [best_split(0, t, scatter)]
    m = 1
    while heap and m < kmax and pen[m + 1] <= upper + margin:
        if scatter + (kmax - m) * heap[0][0] + pen[m + 1] >= pen[kmax] - margin:
            break
        neg_gain, a, b, k, left, right = heapq.heappop(heap)
        scatter += neg_gain
        m += 1
        upper = min(upper, scatter + pen[m])
        if k - a > 1:
            heapq.heappush(heap, best_split(a, k, left))
        if b - k > 1:
            heapq.heappush(heap, best_split(k, b, right))
    return upper


def _segment_count_bound(sums, kmax, penalty):
    """m_max: the largest segment count that can still minimize the KTS
    objective, the largest m with penalty(m) <= U + margin.

    U, from ``_greedy_objective``, is the objective of a feasible
    segmentation, so the optimum is at most U. Scatter is never negative
    and the penalty does not decrease in m, so every m > m_max has an
    objective above U and cannot win. A penalty of 0 (or below) cuts
    nothing.
    """
    t = sums[1].shape[0] - 1
    if penalty <= 0.0 or kmax < 2:
        return kmax
    pen = [0.0] + [segmentation_penalty(t, m, penalty)
                   for m in range(1, kmax + 1)]
    # Rounding. Kernel entries lie in [-1, 1], so a prefix sum of up to T^2
    # of them, built by two running sums, is off by less than T^3 eps, and
    # one cost C(a, b) (four such entries over a length >= 1, two diagonal
    # sums and its own few roundings) by less than delta = 8 (T + 1)^3 eps.
    # The exact costs of a tiling are >= 0 and sum to at most T, so adding up
    # to kmax of them rounds by less than kmax T eps, well inside kmax delta.
    # The DP's dp[m, T] and the greedy's running scatter are such sums, so
    # each is within kmax delta of an exact scatter. The margin, 4 kmax
    # delta plus a few roundings of the penalty, covers both errors at once.
    eps = np.finfo(np.float64).eps
    margin = 32.0 * kmax * (t + 1) ** 3 * eps + 4.0 * eps * pen[kmax]
    upper = _greedy_objective(sums, pen, margin)
    if not upper + margin < pen[kmax]:  # also when U is not finite
        return kmax
    return max(m for m in range(1, kmax + 1) if pen[m] <= upper + margin)


def kts_segment(features, max_shots, penalty=1.0) -> tuple:
    """Detect shot boundaries in a T x D feature matrix.

    Returns the segmentation minimizing
        total within-segment scatter + penalty * m * (log(T/m) + 1)
    over segment counts m = 1 .. min(max_shots, T). Ties go to the smaller
    segment count / earliest boundaries. The DP runs only for the counts
    that ``_segment_count_bound`` leaves: every larger count has a penalty
    above the objective of a segmentation the bound found, so it cannot win,
    and the DP rows it does build are those of the full table.
    """
    x = np.asarray(features)
    t = x.shape[0]
    if t == 0:
        raise SegmentationError("cannot segment an empty video")
    if max_shots < 1:
        raise SegmentationError(f"max_shots must be >= 1, got {max_shots}")
    kmax = min(int(max_shots), t)

    sums = _prefix_sums(x)
    kmax = _segment_count_bound(sums, kmax, penalty)
    dp, back = _kts_tables(sums, kmax)

    best_m, best_obj = 1, math.inf
    for m in range(1, kmax + 1):
        obj = dp[m, t] + segmentation_penalty(t, m, penalty)
        if obj < best_obj:
            best_m, best_obj = m, obj

    cuts = [t]
    b = t
    for m in range(best_m, 0, -1):
        b = int(back[m, b])
        cuts.append(b)
    cuts.reverse()
    bounds = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
    return check_shots(bounds, t)


def resolve_shots(video, max_shots=0, penalty=1.0) -> tuple:
    """Use the video's provided shots if any, otherwise run detection.

    ``video`` only needs ``.shots`` and ``.features`` attributes. A shot cap
    of 0, the config default, scales with length: max(1, T // 8).
    """
    shots = getattr(video, "shots", None)
    if shots is not None:
        return check_shots(shots, len(video.features))
    t = len(video.features)
    if max_shots == 0:
        max_shots = max(1, t // 8)
    return kts_segment(video.features, max_shots=max_shots, penalty=penalty)
