"""Shot boundary detection by kernel change-point segmentation.

Frame descriptors are L2-normalized, a linear-kernel Gram matrix is formed,
and dynamic programming places boundaries that minimize total within-segment
scatter (Potapov et al., ECCV 2014). The DP is one pass over end frames
b = 1 .. T: each step builds the cost row of every segment [a, b) from
prefix sums and settles all segment counts m <= max_shots at b with one
argmin per count, so the O(max_shots * T^2) work runs in T numpy steps and
no T x T cost table is kept. Ties go to the earliest split. The segment
count m is chosen by penalizing the DP objective with
penalty * m * (log(T / m) + 1), capped at max_shots; ties go to the smaller
m. Everything is float64 arithmetic in a fixed order, so results are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class SegmentationError(ValueError):
    """Shot ranges are inconsistent (overlap, gap, or out of bounds)."""


@dataclass
class ShotList:
    """Half-open [start, end) frame ranges tiling [0, n_frames)."""

    boundaries: list = field(default_factory=list)  # list[(start, end)]

    def __post_init__(self):
        self.boundaries = [(int(s), int(e)) for s, e in self.boundaries]

    def __len__(self):
        return len(self.boundaries)

    def __iter__(self):
        return iter(self.boundaries)

    def __getitem__(self, i):
        return self.boundaries[i]

    @property
    def n_frames(self):
        return self.boundaries[-1][1] if self.boundaries else 0

    def lengths(self):
        return np.array([e - s for s, e in self.boundaries], dtype=np.int64)

    def validate(self, n_frames=None):
        if not self.boundaries:
            raise SegmentationError("empty shot list")
        prev_end = 0
        for s, e in self.boundaries:
            if s != prev_end:
                raise SegmentationError(
                    f"shots must tile contiguously: expected start {prev_end}, got {s}"
                )
            if e <= s:
                raise SegmentationError(f"empty or reversed shot [{s}, {e})")
            prev_end = e
        if n_frames is not None and prev_end != n_frames:
            raise SegmentationError(
                f"shots cover [0, {prev_end}) but the video has {n_frames} frames"
            )
        return self


def _gram(features):
    x = np.asarray(features, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0  # leave zero rows alone
    x = x / norms
    return x @ x.T


def _kts_tables(gram, kmax):
    """(dp, back) of KTS: dp[m, b] is the least scatter of frames [0, b) in
    m segments, back[m, b] the start of the last one. dp[m - 1, a] is inf
    for a < m - 1, so the argmin over every a < b never picks those splits.
    """
    t = gram.shape[0]
    diag_cs = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
    block = np.zeros((t + 1, t + 1))
    inner = block[1:, 1:]  # running sums in place: no T x T temporaries
    np.cumsum(gram, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
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


def kts_segment(features, max_shots, penalty=1.0) -> ShotList:
    """Detect shot boundaries in a T x D feature matrix.

    Returns the segmentation minimizing
        total within-segment scatter + penalty * m * (log(T/m) + 1)
    over segment counts m = 1 .. min(max_shots, T). Ties go to the smaller
    segment count / earliest boundaries.
    """
    x = np.asarray(features)
    t = x.shape[0]
    if t == 0:
        raise SegmentationError("cannot segment an empty video")
    if max_shots < 1:
        raise SegmentationError(f"max_shots must be >= 1, got {max_shots}")
    kmax = min(int(max_shots), t)

    dp, back = _kts_tables(_gram(x), kmax)

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
    return ShotList(bounds).validate(t)


def resolve_shots(video, max_shots=None, penalty=1.0) -> ShotList:
    """Use the video's provided shots if any, otherwise run detection.

    ``video`` only needs ``.shots`` and ``.features`` attributes. The default
    shot cap scales with length (about one shot per eight frames).
    """
    shots = getattr(video, "shots", None)
    if shots is not None:
        if not isinstance(shots, ShotList):
            shots = ShotList(list(shots))
        return shots.validate(len(video.features))
    t = len(video.features)
    if max_shots is None:
        max_shots = max(1, t // 8)
    return kts_segment(video.features, max_shots=max_shots, penalty=penalty)
