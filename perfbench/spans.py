"""Spans and counters recorded around calls into the vidsum modules.

Nothing here is imported by the program: the benchmark replaces a module
attribute with a timing wrapper for the length of one pass and puts the
original back afterwards. A wrapper goes on the name where the caller looks
it up, because ``from .x import f`` copies the binding into the caller:
``model`` calls its own ``multi_head`` and ``resolve_shots``, ``training``
calls its own ``forward``, and ``evaluation`` calls its own ``summarize``.
KTS is timed at ``segmentation.kts_segment``, which ``resolve_shots`` looks
up in its own module whichever module called it.

A span is (layer, name, start, end, parent). A layer's self time is the
duration of its spans minus the part their child spans cover, so the self
times of all layers plus the time outside every span add up to the wall time
of the traced calls.
"""

import functools
import os
import time
from collections import Counter

LAYERS = ("segmentation", "model", "attention", "numerics", "training",
          "selection", "evaluation", "data_io")
ENCODER_KINDS = ("full", "local", "global", "local_global")


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self):
        self.spans = []      # [layer, name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._encoder_patterns = {}  # id -> (pattern, heads, calls)

    def begin(self, layer, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def inside(self, name):
        """Whether a span called ``name`` is open."""
        return any(self.spans[i][1] == name for i in self._stack)

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def self_times(self):
        """Self time per layer, and the summed length of the top-level spans."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for layer, _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for i, (layer, _name, start, end, _parent) in enumerate(self.spans):
            per_layer[layer] += (end - start) - child[i]
        return per_layer, top

    def note_encoder_pattern(self, pattern, heads):
        key = id(pattern)
        entry = self._encoder_patterns.get(key)
        if entry is None:
            self._encoder_patterns[key] = [pattern, heads, 1]
        else:
            entry[2] += 1

    def encoder_score_entries(self, count_score_entries):
        """Exact encoder score entries, counted after the timed region so the
        count's own cost does not land in any span."""
        total = 0
        for pattern, heads, calls in self._encoder_patterns.values():
            total += count_score_entries(pattern) * heads * calls
        return total


def _timed(tracer, layer, name, fn, before=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        tracer.begin(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


class Patches:
    """Module attributes replaced for one pass; ``restore`` puts them back."""

    def __init__(self):
        self._saved = []

    def set(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def install(tracer, vs, patches):
    """Wrap the public functions of every layer where their callers find them.

    ``vs`` is a namespace holding the imported vidsum modules.
    """
    t, c = tracer, tracer.counts

    def kts_args(args, kwargs):
        features = args[0] if args else kwargs["features"]
        c["segmentation.kts_calls"] += 1
        c["segmentation.kts_frames"] += len(features)
    patches.set(vs.segmentation, "kts_segment",
                _timed(t, "segmentation", "kts", vs.segmentation.kts_segment,
                       kts_args))

    encode = _timed(t, "model", "encode", vs.model.encode_video)
    patches.set(vs.model, "encode_video", encode)
    patches.set(vs.training, "forward",
                _timed(t, "model", "forward", vs.training.forward))

    patches.set(vs.model, "decode_autoregressive",
                _timed(t, "model", "decode", vs.model.decode_autoregressive))
    output_head = vs.model.output_head

    @functools.wraps(output_head)
    def counted_output_head(*args, **kwargs):
        # a free-running decode step ends in one output_head call
        if tracer.inside("decode"):
            c["model.decode_steps"] += 1
        return output_head(*args, **kwargs)
    patches.set(vs.model, "output_head", counted_output_head)

    summarize = _timed(t, "model", "summarize", vs.model.summarize)
    patches.set(vs.model, "summarize", summarize)
    patches.set(vs.evaluation, "summarize", summarize)

    multi_head = vs.model.multi_head

    @functools.wraps(multi_head)
    def traced_multi_head(q, k, v, pattern, *args, **kwargs):
        heads = args[4] if len(args) > 4 else kwargs["h"]
        kind = pattern.kind
        c["attention.calls"] += 1
        if kind in ENCODER_KINDS:
            name = "encoder"
            tracer.note_encoder_pattern(pattern, heads)
        elif kind == "causal":
            name = "causal"
            n = pattern.valid_queries
            c["attention.score_entries"] += heads * n * (n + 1) // 2
        else:
            name = "cross"
            c["attention.score_entries"] += (
                heads * pattern.valid_queries * pattern.valid_len)
        tracer.begin("attention", name)
        try:
            return multi_head(q, k, v, pattern, *args, **kwargs)
        finally:
            tracer.end()
    patches.set(vs.model, "multi_head", traced_multi_head)

    backward = vs.numerics.Tape.backward

    @functools.wraps(backward)
    def traced_backward(self, loss):
        c["numerics.backward_calls"] += 1
        c["numerics.tape_records"] += len(self)
        tracer.begin("numerics", "backward")
        try:
            return backward(self, loss)
        finally:
            tracer.end()
    patches.set(vs.numerics.Tape, "backward", traced_backward)

    patches.set(vs.training, "adam_step",
                _timed(t, "training", "adam", vs.training.adam_step))
    patches.set(vs.training, "train",
                _timed(t, "training", "train", vs.training.train))

    def knapsack_args(args, kwargs):
        c["selection.knapsack_calls"] += 1
    patches.set(vs.selection, "knapsack_select",
                _timed(t, "selection", "knapsack", vs.selection.knapsack_select,
                       knapsack_args))

    patches.set(vs.evaluation, "evaluate_videos",
                _timed(t, "evaluation", "evaluate_videos",
                       vs.evaluation.evaluate_videos))
    f_measure = vs.evaluation.f_measure

    @functools.wraps(f_measure)
    def counted_f_measure(*args, **kwargs):
        c["evaluation.f_measure_calls"] += 1
        return f_measure(*args, **kwargs)
    patches.set(vs.evaluation, "f_measure", counted_f_measure)

    def read_args(args, kwargs):
        c["data_io.bytes_read"] += os.path.getsize(args[0])
    for name in ("read_features", "read_annotations"):
        fn = getattr(vs.data_io, name)
        patches.set(vs.data_io, name, _timed(t, "data_io", name, fn, read_args))
    patches.set(vs.data_io, "load_dataset",
                _timed(t, "data_io", "load_dataset", vs.data_io.load_dataset,
                       read_args))


def per_layer_metrics(tracer, ops, traced_wall, untraced_wall,
                      count_score_entries, itemsize):
    """Per-layer figures of one traced pass, each per op unless named per step.

    ``ops`` is the number of workload ops in the pass; ``traced_wall`` and
    ``untraced_wall`` are the wall times of the same ops with and without
    the wrappers.
    """
    c = tracer.counts
    total = lambda name: sum(tracer.durations(name))
    self_s, top = tracer.self_times()
    entries = c["attention.score_entries"] + tracer.encoder_score_entries(
        count_score_entries)
    decode_s = total("decode")
    steps = c["model.decode_steps"]
    m = {
        "segmentation.kts_s": total("kts") / ops,
        "segmentation.kts_calls": c["segmentation.kts_calls"] / ops,
        "segmentation.kts_frames": c["segmentation.kts_frames"] / ops,
        "model.encode_s": total("encode") / ops,
        "model.forward_s": total("forward") / ops,
        "model.decode_s": decode_s / ops,
        "model.decode_steps": steps / ops,
        "model.decode_s_per_step": decode_s / steps if steps else 0.0,
        "attention.encoder_s": total("encoder") / ops,
        "attention.causal_s": total("causal") / ops,
        "attention.cross_s": total("cross") / ops,
        "attention.calls": c["attention.calls"] / ops,
        "attention.score_entries": entries / ops,
        # score plus softmax-weight entries of the attention dtype, computed
        # from the entry count, not measured
        "attention.score_bytes_computed": 2 * itemsize * entries / ops,
        "numerics.backward_s": total("backward") / ops,
        "numerics.tape_records": (c["numerics.tape_records"]
                                  / c["numerics.backward_calls"]
                                  if c["numerics.backward_calls"] else 0.0),
        "training.adam_s": total("adam") / ops,
        "selection.knapsack_s": total("knapsack") / ops,
        "selection.knapsack_calls": c["selection.knapsack_calls"] / ops,
        "evaluation.eval_s": self_s["evaluation"] / ops,
        "evaluation.f_measure_calls": c["evaluation.f_measure_calls"] / ops,
        "data_io.load_s": total("load_dataset") / ops,
        "data_io.bytes_read": c["data_io.bytes_read"] / ops,
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = self_s[layer] / ops
    m["trace.other_s"] = (traced_wall - top) / ops
    m["trace.wall_s"] = traced_wall / ops
    m["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return m
