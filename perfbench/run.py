"""vidsum benchmark: one workload, one seed, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload summarize-kts --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it imports ``vidsum`` from ``src/``.
``--trace 0`` times the ops with only the step hooks installed, sets up
twelve times spread over the run, and reports the end-to-end metrics.
``--trace 1`` sets up once, runs one op to warm up, then ops for half the
time untraced, then the same ops again with a span around every call into a
vidsum module, and reports the per-layer metrics per op with the tracing
overhead. Every op's output is checked; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passed, 1 when one failed
and 2 when the program is missing.

BLAS runs on one thread, within the machine's ``nproc``: on a 2-core machine
two threads made neither summarize nor a training step faster.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread cap)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _BENCH = json.load(_fh)
UNITS = {m["name"]: m["unit"]
         for m in _BENCH["end_to_end"] + _BENCH["per_layer"]}
SETUP_ROUNDS = 6   # set-up rounds spread over an untraced run
SETUP_REPEATS = 2  # set-ups per round
MODULES = ("attention", "data_io", "evaluation", "model", "numerics",
           "segmentation", "selection", "training")


def import_vidsum():
    """The vidsum modules of this source tree, or None when it has none."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vidsum", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import importlib
    vs = types.SimpleNamespace(
        **{m: importlib.import_module("vidsum." + m) for m in MODULES})
    if not os.path.abspath(vs.model.__file__).startswith(src + os.sep):
        return None
    return vs


def machine(seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "vidsum")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def with_units(values):
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def timed_setup(workload, vs, seed, workdir):
    """(state, seconds) of one set-up."""
    t0 = time.perf_counter()
    state = workload.setup(vs, seed, workdir)
    return state, time.perf_counter() - t0


def end_to_end(ops, setup_s):
    seconds = [op.seconds for op in ops]
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(seconds),
        "frames_per_s": sum(op.frames for op in ops) / sum(seconds),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return with_units(metrics)


def named(workload, ops, metrics, extra):
    """The same run under the names of each workload's own metrics."""
    out = {"setup_s": metrics["setup_s"]["value"],
           "peak_rss_mib": metrics["peak_rss_mib"]["value"]}
    seconds = [op.seconds for op in ops]
    if workload.name == "summarize-kts":
        out["summarize_frames_per_s"] = metrics["frames_per_s"]["value"]
        out["summarize_video_p50_s"] = statistics.median(seconds)
        out["summarize_videos"] = len(ops)
    else:
        steps = [s for op in ops for s, _loss in op.steps]
        out["train_steps_per_s"] = len(steps) / sum(steps)
        out["train_step_p50_s"] = statistics.median(steps)
        out["train_steps"] = len(steps)
        if len(steps) >= 100:
            out["train_step_p90_s"] = float(np.percentile(steps, 90))
    if workload.name == "kfold-small":
        out["kfold_wall_s"] = statistics.median(seconds)
        out["kfold_folds"] = len(ops)
    out.update(extra)
    return out


def measure(workload, vs, seed, workdir, seconds, trace):
    """Set up and run the ops; returns (ops, set-up times, state, metrics or
    None).

    Untraced, the ops run in SETUP_ROUNDS slices of equal op time, with
    SETUP_REPEATS set-ups before each slice, and setup_s is the median of all
    set-ups. The machine's slow phases last tens of seconds, so set-ups made
    in one burst would all land in one phase.
    """
    if not trace:
        ops, setups = [], []
        op_time = 0.0
        for k in range(SETUP_ROUNDS):
            for _ in range(SETUP_REPEATS):
                # free the last state and its files, as a fresh run would
                state = None
                shutil.rmtree(workdir, ignore_errors=True)
                state, setup_s = timed_setup(workload, vs, seed, workdir)
                setups.append(setup_s)
            t0 = time.perf_counter()
            deadline = t0 + (k + 1) * seconds / SETUP_ROUNDS - op_time
            batch, _wall = workload.run(
                vs, state, lambda done: time.perf_counter() < deadline,
                first=len(ops))
            ops += batch
            op_time += time.perf_counter() - t0
        return ops, setups, state, None
    state, setup_s = timed_setup(workload, vs, seed, workdir)
    # one op first, so that neither pass pays for the first full-size op
    warm, _wall = workload.run(vs, state, lambda done: False, reload=True)
    deadline = time.perf_counter() + seconds / 2.0
    plain, plain_wall = workload.run(
        vs, state, lambda done: time.perf_counter() < deadline, reload=True)
    n = len(plain)
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.install(tracer, vs, patches)
    try:
        traced, traced_wall = workload.run(vs, state, lambda done: done < n,
                                           reload=True)
    finally:
        patches.restore()
    itemsize = np.dtype(state["config"].np_dtype).itemsize
    per_layer = spans.per_layer_metrics(
        tracer, len(traced), traced_wall, plain_wall,
        vs.attention.count_score_entries, itemsize)
    return warm + plain + traced, [setup_s], state, with_units(per_layer)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vs = import_vidsum()
    if vs is None:
        print("no vidsum sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    extra, metrics, ops, setups, error = {}, {}, [], [], None
    try:
        ops, setups, state, per_layer = measure(
            workload, vs, args.seed, workdir, args.seconds, bool(args.trace))
        if workload.name == "kfold-small":
            extra["heldout_f_measure"] = ops[-1].output["f_measure"]
            extra["heldout_random_baseline"] = workload.random_baseline(
                vs, state)
            # reported, not checked: see perfbench/README.md
            extra["heldout_f_above_baseline"] = (
                extra["heldout_f_measure"] >= extra["heldout_random_baseline"])
        metrics = per_layer or end_to_end(ops, statistics.median(setups))
    except Exception:  # report any failure of the program as a failed op
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [p for op in ops for p in op.problems]
    attempted = len(ops) + (1 if error else 0)
    failed = sum(1 for op in ops if op.problems) + (1 if error else 0)
    record = {
        "workload": workload.name, "unit": workload.unit,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(args.seed),
        "attempted": attempted, "failed": failed,
        "op_failure_ratio": failed / attempted if attempted else 1.0,
        "failures": failures[:20] + ([error] if error else []),
        "op_seconds": [op.seconds for op in ops],
        "setup_seconds": setups,
    }
    if ops and not args.trace and not error:
        record["named"] = named(workload, ops, metrics, extra)
    elif extra:
        record["named"] = extra
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (workload.name, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(record, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
