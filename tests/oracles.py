"""Test oracles and tools shared by the test files.

None of this runs in the pipeline: a ReLU recorded as its own op (with
``numerics.linear``, the reference that ``numerics.ffn`` is checked
against), the finite-difference gradient checker and its scalar head, the
dense allow-matrix of an attention pattern, the full KTS cost table with the
per-(m, b) DP it replaced and the objective of an explicit segmentation, the
construction-secret frame scores of synthetic videos, readers for the
PGM and run-length formats the program writes, and the memory probe of one
training step.
"""

import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from vidsum.model import forward
from vidsum.numerics import DimensionError, Tape, accumulate
from vidsum.segmentation import segmentation_penalty
from vidsum.training import bce_loss, build_targets, ground_truth_frames


# ---------------------------------------------------------------------------
# reference ops


def relu(a: np.ndarray, tape=None) -> np.ndarray:
    """max(a, 0) as its own tape record."""
    out = np.maximum(a, 0)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g * (a > 0))
        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# finite-difference gradient checking


def half_sum_squares(a: np.ndarray, tape=None) -> np.ndarray:
    """0.5 * sum(a ** 2) as a 1x1 array; the scalar head of grad checks."""
    val = 0.5 * float(np.dot(a.ravel(), a.ravel()))
    out = np.array([[val]], dtype=a.dtype)
    if tape is not None:
        def backward(g, grads):
            accumulate(grads, a, g[0, 0] * a)
        tape.record(out, backward)
    return out


@dataclass
class GradCheckEntry:
    name: str
    index: tuple
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    passed: bool
    tolerance: float
    step: float
    n_checked: int
    max_rel_error: float
    worst: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"gradcheck {'PASSED' if self.passed else 'FAILED'}: "
            f"{self.n_checked} entries, max rel err {self.max_rel_error:.3e} "
            f"(tol {self.tolerance:.1e}, step {self.step:.1e})"
        ]
        for e in self.worst:
            lines.append(
                f"  {e.name}{list(e.index)}: analytic {e.analytic:+.6e} "
                f"numeric {e.numeric:+.6e} rel {e.rel_error:.3e}"
            )
        return "\n".join(lines)


def finite_diff_check(
    loss_fn,
    params,
    step=1e-5,
    tolerance=1e-4,
    n_samples=200,
    seed=0,
    denom_floor=1e-6,
    n_worst=10,
) -> GradCheckReport:
    """Compare tape gradients of loss_fn against central differences.

    loss_fn(params, tape) must be a deterministic function returning a 1x1
    array; it is called once with a Tape for the analytic gradient and twice
    per sampled entry (tape=None) for the numeric one. ``params`` is a
    ``{name: array}`` dict of float64 arrays. Entries are a deterministic subsample of at least one entry
    per parameter plus random fill up to n_samples. Failures are reported,
    never raised.
    """
    for name, m in params.items():
        if m.dtype != np.float64:
            raise DimensionError(
                f"finite_diff_check needs float64 params, {name!r} is {m.dtype}"
            )

    tape = Tape()
    loss = loss_fn(params, tape)
    by_id = tape.backward(loss)

    sizes = {name: m.size for name, m in params.items()}
    total = sum(sizes.values())
    rng = np.random.default_rng(seed)
    chosen = set()
    for name, size in sizes.items():  # at least one entry per parameter
        chosen.add((name, int(rng.integers(size))))
    if total <= n_samples:
        chosen = {(name, i) for name, size in sizes.items() for i in range(size)}
    else:
        names = list(sizes.keys())
        offsets = np.cumsum([0] + [sizes[n] for n in names])
        while len(chosen) < n_samples:
            flat = int(rng.integers(total))
            j = int(np.searchsorted(offsets, flat, side="right") - 1)
            chosen.add((names[j], flat - int(offsets[j])))
    ordered = sorted(chosen)

    entries = []
    for name, flat in ordered:
        m = params[name]
        orig = m.flat[flat]
        m.flat[flat] = orig + step
        up = loss_fn(params, None).item()
        m.flat[flat] = orig - step
        dn = loss_fn(params, None).item()
        m.flat[flat] = orig
        numeric = (up - dn) / (2.0 * step)
        g = by_id.get(id(m))
        analytic = 0.0 if g is None else float(g.flat[flat])
        denom = max(abs(analytic), abs(numeric), denom_floor)
        rel = abs(analytic - numeric) / denom
        idx = np.unravel_index(flat, m.shape)
        entries.append(GradCheckEntry(name, tuple(int(i) for i in idx), analytic, numeric, rel))

    entries.sort(key=lambda e: -e.rel_error)
    max_rel = entries[0].rel_error if entries else 0.0
    return GradCheckReport(
        passed=max_rel <= tolerance,
        tolerance=tolerance,
        step=step,
        n_checked=len(entries),
        max_rel_error=max_rel,
        worst=entries[:n_worst],
    )


# ---------------------------------------------------------------------------
# attention patterns


def dense_mask(pattern) -> np.ndarray:
    """Boolean queries x keys allow-matrix of a SparsityPattern."""
    nq, nk = pattern.valid_queries, pattern.valid_len
    if pattern.kind in ("full", "cross"):
        return np.ones((nq, nk), dtype=bool)
    if pattern.kind == "causal":
        return np.tri(nq, nk, dtype=bool)
    hw, anchors, rows = pattern.band_geometry()
    mask = np.abs(np.arange(nq)[:, None] - np.arange(nk)) <= hw
    mask[:, anchors] = True
    mask[rows] = True
    return mask


def allowed_keys(pattern, m) -> np.ndarray:
    """Sorted key indices query m may attend to."""
    return np.flatnonzero(dense_mask(pattern)[m])


# ---------------------------------------------------------------------------
# segmentation


def segment_cost_table(gram):
    """cost[a, b] = within-segment scatter of frames [a, b), half-open.

    Scatter of a segment is sum of diagonal kernel entries minus the block
    sum divided by the segment length. Computed from 2-D prefix sums.
    """
    t = gram.shape[0]
    diag_cs = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
    block = np.zeros((t + 1, t + 1))
    block[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
    cost = np.full((t + 1, t + 1), np.inf)
    for b in range(1, t + 1):
        a = np.arange(b)
        lengths = (b - a).astype(np.float64)
        blk = block[b, b] - block[a, b] - block[b, a] + block[a, a]
        cost[a, b] = (diag_cs[b] - diag_cs[a]) - blk / lengths
    return cost


def kts_dp_oracle(gram, kmax):
    """(dp, back) of KTS from the full cost table, one argmin per (m, b).

    The DP that ``segmentation._kts_tables`` replaces: dp[m, b] is the least
    scatter of frames [0, b) in m segments, back[m, b] the start of the
    last segment, and ties go to the earliest split.
    """
    t = gram.shape[0]
    cost = segment_cost_table(gram)
    dp = np.full((kmax + 1, t + 1), np.inf)
    back = np.zeros((kmax + 1, t + 1), dtype=np.int64)
    dp[0, 0] = 0.0
    for m in range(1, kmax + 1):
        for b in range(m, t + 1):
            prev = dp[m - 1, m - 1:b] + cost[m - 1:b, b]
            j = int(np.argmin(prev))
            dp[m, b] = prev[j]
            back[m, b] = j + m - 1
    return dp, back


def segmentation_objective(features, boundaries, penalty=1.0):
    """Scatter-plus-penalty objective of an explicit segmentation."""
    x = np.asarray(features, dtype=np.float64)
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    x = x / norms
    cost = segment_cost_table(x @ x.T)
    total = 0.0
    for s, e in boundaries:
        total = total + cost[s, e]
    return total + segmentation_penalty(x.shape[0], len(boundaries), penalty)


# ---------------------------------------------------------------------------
# synthetic data


def oracle_frame_scores(features, meta):
    """Frame scores from the construction secret: projection on the offset
    axis, scaled into [0, 1].  Planted frames land near 1, others near 0."""
    proj = np.asarray(features, dtype=np.float64) @ meta["offset_direction"]
    return np.clip(proj / meta["offset_scale"], 0.0, 1.0)


# ---------------------------------------------------------------------------
# readers of formats the program writes


def read_pgm(path):
    """Parse back a P5 file written by attention.export_weights_pgm."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if parts[0] != b"P5":
        raise ValueError(f"not a P5 file: {path}")
    width, height = (int(x) for x in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    pixels = np.frombuffer(parts[3][: width * height], dtype=np.uint8)
    return pixels.reshape(height, width)


def rle_decode(runs) -> np.ndarray:
    """Inverse of selection.rle_encode: [value, count] pairs to a bool mask."""
    parts = [np.full(int(c), bool(v)) for v, c in runs]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)


# ---------------------------------------------------------------------------
# memory probe

MIB = 2.0 ** 20


def step_memory(config, params, video):
    """tracemalloc figures of one teacher-forced training step on ``video``
    (a VideoRecord with shots and user annotations), as in ``training.train``:
    (MiB held after the forward pass and the loss, MiB at the peak of the
    backward pass, tape records). Only allocations made during the step
    count; the parameters, the features and the targets already exist.
    """
    teacher = ground_truth_frames(video, video.shots, config.summary_ratio)
    targets = build_targets(teacher, video.n_frames)
    tracemalloc.start()
    try:
        tape = Tape()
        probs = forward(video.features, video.shots, teacher, config, params,
                        tape)
        loss = bce_loss(probs, targets, video.n_frames, tape)
        held, records = tracemalloc.get_traced_memory()[0], len(tape)
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held / MIB, peak / MIB, records
