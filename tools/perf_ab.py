#!/usr/bin/env python3
"""A/B runner for host-time claims between two checkouts.

    python3 tools/perf_ab.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are the roots of two checkouts of this repository. Each
checkout's driver is built by that checkout's own perfbench/run.py (its
build() function, so each side measures its own src/ with its own driver).
The script then runs N pairs of driver processes, one repetition of W at
seed S per process, alternating which side goes first in each pair, with
every child pinned to the same CPUs (os.sched_setaffinity: the last allowed
core, or the last two for alibaba_sharded, whose shards run on two threads).

It fails (exit 1) when a run reports an error or when the simulated outputs
differ: every run of both sides must print the same timeline digest,
goodput, SLO-miss share, latencies and request counts. A speed change must
not move the simulation.

For each end-to-end metric of CHANGE's BENCHMARK.json it prints both sides'
median and quartiles, the ratio of the medians (CHANGE / PARENT), the number
of pairs in which CHANGE was better, and whether the median gain exceeds the
spread (interquartile range) of PARENT's runs. It also prints the per-layer
counts that differ between the sides. --json FILE writes all of it, every
run's values included.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

# Outputs of the simulation itself: identical on both sides or the A/B is void.
SIM_KEYS = ("goodput_rps", "slo_miss_frac", "latency_p50_ms", "latency_p99_ms",
            "requests_offered", "requests_failed", "timeline_digest")

# Entries of the driver's "counts" that are derived from host time, so they
# vary from run to run of one build.
HOST_TIMED_COUNTS = ("des.host_ns_per_event", "des.shard.blocked_frac",
                     "des.shard.busy_imbalance")

REP_TIMEOUT_S = 300


def fail(msg):
    print("perf_ab: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


def load_run_module(root, tag):
    """`root`/perfbench/run.py as a module: its build() and quantile()."""
    script = os.path.join(root, "perfbench", "run.py")
    if not os.path.isfile(script):
        fail("%s has no perfbench/run.py" % root)
    spec = importlib.util.spec_from_file_location("perfbench_run_" + tag, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(module, root, tag):
    """Builds `root`'s driver with its own run.py; returns the binary."""
    binary, _, info = module.build()
    print("[perf_ab] %s: %s (commit %s, %s, rebuilt=%s)" % (
        tag, root, info["commit"], info["compiler"], info["rebuilt"]), flush=True)
    return binary


def end_to_end(root):
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("%s has no BENCHMARK.json" % root)
    with open(path) as f:
        return json.load(f)["end_to_end"]


def run_once(binary, root, workload, seed, cpus, scratch, quantile):
    out_dir = tempfile.mkdtemp(dir=scratch)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--root", root,
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd), proc.returncode,
                                   proc.stderr.strip()[-400:]))
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("unreadable driver output from %s" % binary)
    if rep["errors"]:
        fail("%s: %s" % (binary, "; ".join(rep["errors"])))
    rep["sim_second_ms_p50"] = quantile(rep["window_ms"], 0.5)
    rep["sim_second_ms_p90"] = quantile(rep["window_ms"], 0.9)
    return rep


def summarize(metric, better, parent_runs, change_runs, quantile):
    a = [r[metric] for r in parent_runs]
    b = [r[metric] for r in change_runs]
    med_a, med_b = statistics.median(a), statistics.median(b)
    if better == "lower":
        wins = sum(1 for x, y in zip(a, b) if y < x)
        gain = med_a - med_b
    else:
        wins = sum(1 for x, y in zip(a, b) if y > x)
        gain = med_b - med_a
    iqr = quantile(a, 0.75) - quantile(a, 0.25)
    return {
        "better": better,
        "parent": {"median": med_a, "q1": quantile(a, 0.25), "q3": quantile(a, 0.75)},
        "change": {"median": med_b, "q1": quantile(b, 0.25), "q3": quantile(b, 0.75)},
        "ratio": med_b / med_a if med_a else float("nan"),
        "wins": wins,
        "pairs": len(a),
        "gain_exceeds_parent_iqr": gain > iqr,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the baseline checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--json", default=None, help="also write the results here")
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    # The last allowed CPU (the last two for alibaba_sharded, whose shards
    # run on two threads).
    allowed = sorted(os.sched_getaffinity(0))
    want = 2 if args.workload == "alibaba_sharded" else 1
    if len(allowed) < want:
        fail("%s needs %d CPUs, %d allowed" % (args.workload, want, len(allowed)))
    cpus = set(allowed[-want:])

    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    # run.py honours CARGO_TARGET_DIR; an absolute one would put both sides'
    # builds in one directory, each wiping the other's.
    os.environ.pop("CARGO_TARGET_DIR", None)
    modules = {side: load_run_module(root, side) for side, root in roots.items()}
    binaries = {side: build(modules[side], root, side) for side, root in roots.items()}
    quantile = modules["change"].quantile
    print("[perf_ab] workload=%s seed=%d pairs=%d cpus=%s nproc=%d" % (
        args.workload, args.seed, args.pairs, sorted(cpus), os.cpu_count() or 1),
        flush=True)

    runs = {"parent": [], "change": []}
    reference = None
    scratch = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rep = run_once(binaries[side], roots[side], args.workload, args.seed,
                               cpus, scratch, quantile)
                sim = {k: rep[k] for k in SIM_KEYS}
                if reference is None:
                    reference = sim
                elif sim != reference:
                    fail("pair %d, %s: simulated outputs differ: %s vs %s" % (
                        i, side, sim, reference))
                runs[side].append(rep)
            print("[perf_ab] pair %d: run_wall_s parent=%.4f change=%.4f  "
                  "peak_rss_mb parent=%.2f change=%.2f" % (
                      i, runs["parent"][-1]["run_wall_s"], runs["change"][-1]["run_wall_s"],
                      runs["parent"][-1]["peak_rss_mb"], runs["change"][-1]["peak_rss_mb"]),
                  flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print("[perf_ab] timeline digest %s on every run of both sides" %
          reference["timeline_digest"])
    summary = {}
    print("%-18s %24s %24s %7s %6s %s" % ("metric", "parent med [q1, q3]",
                                          "change med [q1, q3]", "ratio", "wins",
                                          "gain>IQR"))
    metrics = end_to_end(roots["change"])
    for entry in metrics:
        name = entry["name"]
        s = summarize(name, entry["better"], runs["parent"], runs["change"], quantile)
        summary[name] = s
        fmt = lambda side: "%.4g [%.4g, %.4g]" % (s[side]["median"], s[side]["q1"],
                                                  s[side]["q3"])
        print("%-18s %24s %24s %7.3f %3d/%-2d %s" % (
            name, fmt("parent"), fmt("change"), s["ratio"], s["wins"], s["pairs"],
            "yes" if s["gain_exceeds_parent_iqr"] else "no"))

    counts = {}
    for name in sorted(runs["parent"][0]["counts"]):
        if name in HOST_TIMED_COUNTS:
            continue
        a = runs["parent"][0]["counts"][name]
        b = runs["change"][0]["counts"].get(name)
        if a != b:
            counts[name] = {"parent": a, "change": b}
            print("[perf_ab] count %s: parent=%s change=%s" % (name, a, b))
    if not counts:
        print("[perf_ab] every per-layer count is identical")

    if args.json is not None:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                       "cpus": sorted(cpus), "nproc": os.cpu_count() or 1,
                       "timeline_digest": reference["timeline_digest"],
                       "end_to_end": summary, "counts_differing": counts,
                       "runs": {side: [{e["name"]: r[e["name"]] for e in metrics}
                                       for r in rs] for side, rs in runs.items()}},
                      f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
