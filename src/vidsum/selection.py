"""Budgeted key-shot selection.

Frame scores are pooled per shot, then a 0/1 knapsack picks the shot set
maximizing total pooled score subject to a frame budget (a fraction of the
video length, 15% by default). Ties between equal-value solutions resolve to
the lexicographically smallest index set, which keeps selection deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data_io import atomic_open
from .segmentation import check_shots


def knapsack_select(values, lengths, budget) -> list:
    """0/1 knapsack: maximize sum of values subject to sum of lengths <= budget.

    Returns selected item indices in increasing order. Among all optimal
    subsets the lexicographically smallest index tuple wins; in particular an
    item whose inclusion does not increase the total is taken only when that
    makes the index tuple smaller (and the all-zero optimum is the empty set).
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if values.size != lengths.size:
        raise ValueError(f"{values.size} values vs {lengths.size} lengths")
    if (values < 0).any():
        raise ValueError("negative shot scores")
    if (lengths <= 0).any():
        raise ValueError("non-positive shot lengths")
    budget = int(budget)
    if budget < 0:
        raise ValueError(f"negative budget {budget}")
    n = values.size

    # best[i][w] = max value using items i.. with capacity w
    best = np.zeros((n + 1, budget + 1), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        best[i] = best[i + 1]
        li = int(lengths[i])
        if li <= budget:
            take = values[i] + best[i + 1, : budget - li + 1]
            skip = best[i + 1, li:]
            best[i, li:] = np.maximum(take, skip)

    # Greedy front-to-back backtrack. On a value tie, taking item i gives an
    # index tuple starting at i, which beats any later start; the exception
    # is when skipping can finish with the empty set (remaining optimum 0).
    chosen = []
    w = budget
    for i in range(n):
        li = int(lengths[i])
        if li > w:
            continue
        take = values[i] + best[i + 1, w - li]
        skip = best[i + 1, w]
        if take > skip or (take == skip and skip > 0.0):
            chosen.append(i)
            w -= li
    return chosen


@dataclass
class SummaryResult:
    shots: tuple                # (start, end) pairs from check_shots
    selected_shots: list        # shot indices
    keyframe_mask: np.ndarray   # bool, one entry per frame
    budget: int
    budget_ratio: float

    @property
    def selected_ranges(self):
        return [self.shots[i] for i in self.selected_shots]


def make_summary(frame_scores, shots, budget_ratio=0.15) -> SummaryResult:
    """Pool frame scores into shot means, knapsack the shots under
    floor(budget_ratio * T) frames."""
    scores = np.asarray(frame_scores, dtype=np.float64).reshape(-1)
    if not (0.0 < budget_ratio <= 1.0):
        raise ValueError(f"budget_ratio must be in (0, 1], got {budget_ratio}")
    shots = check_shots(shots, scores.size)
    if np.isnan(scores).any() or np.isinf(scores).any():
        raise ValueError("frame scores must be finite")
    lo, hi = float(scores.min(initial=0.0)), float(scores.max(initial=0.0))
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"frame scores must lie in [0, 1], got [{lo}, {hi}]")
    t = scores.size
    budget = int(np.floor(budget_ratio * t))
    pooled = np.array([np.mean(scores[s:e]) for s, e in shots], dtype=np.float64)
    picked = knapsack_select(pooled, [e - s for s, e in shots], budget)
    mask = np.zeros(t, dtype=bool)
    for i in picked:
        s, e = shots[i]
        mask[s:e] = True
    return SummaryResult(shots, picked, mask, budget, budget_ratio)


def rle_encode(mask) -> list:
    """Run-length encode a boolean mask as [value, count] pairs."""
    mask = np.asarray(mask).astype(np.int64).reshape(-1)
    runs = []
    if mask.size == 0:
        return runs
    val, count = int(mask[0]), 0
    for v in mask:
        v = int(v)
        if v == val:
            count += 1
        else:
            runs.append([val, count])
            val, count = v, 1
    runs.append([val, count])
    return runs


def export_summary(path, video_id, result: SummaryResult):
    """Write one structured-text summary record (selected ranges, RLE mask)."""
    doc = {
        "video": str(video_id),
        "n_frames": int(result.keyframe_mask.size),
        "budget": int(result.budget),
        "budget_ratio": float(result.budget_ratio),
        "selected_shots": [[int(s), int(e)] for s, e in result.selected_ranges],
        "keyframe_rle": rle_encode(result.keyframe_mask),
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
