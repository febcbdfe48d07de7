"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload summarize-kts --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --sets 2 --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. With ``--sets 2``
it runs the seeds again after the first set and prints how far each median of
the second set lies from the first, as a share of the first. ``--out`` writes
those figures, with the machine details of the first run, as JSON: the first
set under ``workloads``, the second under ``second_set``. Run it from the root of a source tree,
one benchmark process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    """(result, record) from one benchmark process."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s%s"
                           % (workload, seed, proc.returncode, proc.stdout,
                              proc.stderr))
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarize(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def measure_set(workload, args, bounds, report):
    """Median, quartiles and spread of each metric over one set of seeds."""
    values = {}
    for seed in seeds_of(args.seeds):
        result, record = run_once(workload, seed, args.seconds, 0)
        report.setdefault("machine", record["machine"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("%s seed %d: %s" % (workload, seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
            flush=True)
    stats = {name: summarize(v) for name, v in values.items()}
    for name, s in stats.items():
        print("%-14s %-14s median %-12.6g q1 %-12.6g q3 %-12.6g "
              "spread %.4f (bound %s)" % (workload, name, s["median"],
                                          s["q1"], s["q3"], s["spread"],
                                          bounds.get(name)), flush=True)
    return stats


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": seeds_of(args.seeds)}
    first = {w: measure_set(w, args, bounds, report) for w in workloads}
    report["workloads"] = first
    if args.sets == 2:
        second = {w: measure_set(w, args, bounds, report) for w in workloads}
        report["second_set"] = second
        report["second_median_vs_first"] = shifts = {
            w: {name: second[w][name]["median"] / s["median"] - 1.0
                for name, s in stats.items()}
            for w, stats in first.items()}
        for w, by_name in shifts.items():
            for name, shift in by_name.items():
                print("%-14s %-14s second median vs first %+.4f (bound %s)"
                      % (w, name, shift, bounds.get(name)), flush=True)
    if args.out:
        report["machine"].pop("seed", None)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
