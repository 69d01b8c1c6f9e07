#!/usr/bin/env python3
"""TopFull reproduction benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds perfbench/ (the driver
plus the checkout's own src/, RelWithDebInfo) into .bench_build/, then runs
the driver, one process per repetition, until S seconds have passed. Every
repetition simulates the workload's fixed stretch of simulated time from
the same seed, so its simulated outputs must repeat exactly; host times are
reported as medians over the repetitions.

--trace 0 prints the end-to-end metrics of untraced repetitions.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer ledger: counts from the untraced run, times from the traced one.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. An operation is one repetition; it fails when the driver
crashes, when an output check fails, or when its simulated outputs differ
from the first repetition's. Lines before it describe the build and each
repetition (seeds, digests, the simulator's own request counts).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
MIN_REPS = 3
REP_TIMEOUT_S = 150

WORKLOADS = ("alibaba_closed", "boutique_observed", "trainticket_dagor_retry",
             "alibaba_sharded")

END_TO_END = [
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("run_cpu_s", "s"),
    ("sim_second_ms_p50", "ms"),
    ("sim_second_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("goodput_rps", "1/s"),
    ("slo_miss_frac", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
]

# Per-layer metrics: (name, unit, source). "count" comes from the untraced
# repetition's public accessors, "time" from the traced repetition's spans.
PER_LAYER = [
    ("des.events", "count", "count"),
    ("des.events_scheduled", "count", "count"),
    ("des.events_cancelled", "count", "count"),
    ("des.timer_slots", "count", "count"),
    ("des.pending_p50", "count", "count"),
    ("des.host_ns_per_event", "ns", "count"),
    ("des.hold_ns", "ns", "time"),
    ("des.hold_share", "ratio", "derived"),
    ("sim.event_self_ns", "ns", "time"),
    ("sim.window_close_ms", "ms", "time"),
    ("sim.hop_attempts", "count", "count"),
    ("sim.retries", "count", "count"),
    ("sim.hop_timeouts", "count", "count"),
    ("sim.arena_attempt_capacity", "count", "count"),
    ("sim.good_per_hop", "ratio", "count"),
    ("workload.offered", "count", "count"),
    ("workload.users", "count", "count"),
    ("admit.entry_calls", "count", "count"),
    ("admit.entry_reject_frac", "ratio", "count"),
    ("admit.entry_ns", "ns", "time"),
    ("admit.hop_calls", "count", "time"),
    ("admit.hop_reject_frac", "ratio", "time"),
    ("admit.hop_ns", "ns", "time"),
    ("core.ticks", "count", "count"),
    ("core.tick_ms_p50", "ms", "time"),
    ("core.tick_ms_p90", "ms", "time"),
    ("core.tick_share", "ratio", "time"),
    ("core.detect_cluster_ms_p50", "ms", "time"),
    ("core.clusters_per_tick", "count", "count"),
    ("core.decisions", "count", "count"),
    ("core.rate_changes", "count", "time"),
    ("rl.decide_calls", "count", "time"),
    ("rl.decide_us_p50", "us", "time"),
    ("obs.window_observer_ms_p50", "ms", "time"),
    ("obs.tracer_hook_ns", "ns", "time"),
    ("obs.spans_sampled", "count", "count"),
    ("obs.decision_log_us", "us", "time"),
    ("obs.export_s", "s", "time"),
    ("obs.export_bytes", "bytes", "count"),
    ("fault.injected", "count", "count"),
    ("des.shard.rounds_per_sim_s", "1/s", "count"),
    ("des.shard.blocked_frac", "ratio", "count"),
    ("des.shard.busy_imbalance", "ratio", "count"),
    ("des.shard.messages", "count", "count"),
    ("des.shard.barrier_frac", "ratio", "time"),
    ("apps.build_s", "s", "setup"),
    ("exp.policy_load_s", "s", "setup"),
    ("self_frac.des_sim", "ratio", "time"),
    ("self_frac.sim_window_close", "ratio", "time"),
    ("self_frac.admit", "ratio", "time"),
    ("self_frac.core", "ratio", "time"),
    ("self_frac.rl", "ratio", "time"),
    ("self_frac.obs", "ratio", "time"),
    ("self_frac.shard_sync", "ratio", "time"),
    ("ledger.coverage", "ratio", "time"),
    ("trace_overhead_frac", "ratio", "derived"),
]


def log(msg):
    print("[perfbench] " + msg, flush=True)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


BUILD_INPUT = (".cpp", ".hpp", ".h", "CMakeLists.txt")


def source_digest():
    """Hash of every input of the build, so a checkout never runs a stale
    binary: when it changes, the build directory is rebuilt from scratch."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(BUILD_INPUT):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit_id(digest):
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-sha256:" + digest[:16]


def build():
    """Configures and builds the driver; returns (binary, build info)."""
    for needed in ("src/CMakeLists.txt", "models/base_policy.txt",
                   "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout" % needed, 2)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench_driver")
    stamp = os.path.join(build_dir, "source.sha256")
    digest = source_digest()
    fresh = (os.path.isfile(binary) and os.path.isfile(stamp)
             and open(stamp).read().strip() == digest)
    if not fresh:
        shutil.rmtree(build_dir, ignore_errors=True)
        os.makedirs(build_dir)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        logfile = os.path.join(build_dir, "build.log")
        with open(logfile, "w") as out:
            for cmd in (["cmake", "-S", BENCH_DIR, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                        ["cmake", "--build", build_dir, "-j", jobs,
                         "--target", "perfbench_driver"]):
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
                if rc != 0:
                    with open(logfile) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(cmd))
        with open(stamp, "w") as f:
            f.write(digest + "\n")
    compiler = "unknown"
    cache = os.path.join(build_dir, "CMakeCache.txt")
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                try:
                    ver = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, timeout=10).stdout.splitlines()
                    compiler = ver[0] if ver else path
                except (OSError, subprocess.SubprocessError):
                    compiler = path
    info = {"commit": commit_id(digest), "compiler": compiler,
            "build_type": BUILD_TYPE, "nproc": os.cpu_count() or 1,
            "rebuilt": not fresh}
    return binary, build_root, info


def run_rep(binary, out_root, workload, seed, traced, index):
    out_dir = os.path.join(out_root, "%s-%d-%d" % (workload, os.getpid(), index))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--root", ROOT,
           "--out-dir", out_dir]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    finally:
        if traced:
            # Keep the latest traced repetition's spans for inspection.
            spans = os.path.join(out_root, "spans", workload)
            shutil.rmtree(spans, ignore_errors=True)
            if os.path.isdir(out_dir):
                os.makedirs(os.path.dirname(spans), exist_ok=True)
                shutil.move(out_dir, spans)
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-400:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unreadable driver output"


def quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


# Simulated outputs: every repetition, traced or not, must repeat them
# exactly. The timeline digest covers every per-window, per-API and
# per-service value; the artifacts digest every exported file.
SIM_KEYS = ("goodput_rps", "slo_miss_frac", "latency_p50_ms", "latency_p99_ms",
            "requests_offered", "requests_failed", "timeline_digest",
            "artifacts_digest")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    binary, build_root, info = build()
    log("build: commit=%s compiler=%s build_type=%s nproc=%d rebuilt=%s" % (
        info["commit"], info["compiler"], info["build_type"], info["nproc"],
        info["rebuilt"]))
    if args.workload == "alibaba_sharded" and info["nproc"] < 2:
        log("skip: alibaba_sharded needs 2 cores, nproc=%d" % info["nproc"])
        sys.exit(3)

    out_root = os.path.join(build_root, "out")
    os.makedirs(out_root, exist_ok=True)
    plain, traced, errors = [], [], []
    failed_reps = 0
    reference = None
    start = time.monotonic()
    index = 0
    while True:
        want_traced = args.trace == 1 and len(traced) < len(plain)
        rep, err = run_rep(binary, out_root, args.workload, args.seed, want_traced, index)
        index += 1
        if rep is not None and rep["errors"]:
            err = "; ".join(rep["errors"])
        if rep is not None and err is None:
            sim = {k: rep[k] for k in SIM_KEYS}
            if reference is None:
                reference = sim
            elif sim != reference:
                err = "simulated outputs differ from repetition 0: %s" % sim
        label = "traced" if want_traced else "untraced"
        if err is not None:
            errors.append(err)
            failed_reps += 1
            log("rep %d (%s) FAILED: %s" % (index - 1, label, err))
        else:
            (traced if want_traced else plain).append(rep)
            log("rep %d (%s): wall=%.4fs setup=%.5fs digest=%s offered=%d failed=%d" % (
                index - 1, label, rep["run_wall_s"], rep["setup_s"], rep["timeline_digest"],
                rep["requests_offered"], rep["requests_failed"]))
        if errors and index >= MIN_REPS:
            break
        # Stop once the minimum is met and another repetition (at the
        # mean pace so far) would overrun the measuring time.
        elapsed = time.monotonic() - start
        enough = len(plain) >= MIN_REPS and (args.trace == 0 or len(traced) >= 1)
        if enough and elapsed + elapsed / index > args.seconds:
            break

    ok = not errors and bool(plain) and (args.trace == 0 or bool(traced))
    metrics = {}
    if plain:
        first = plain[0]
        log("seed %d: timeline digest %s, artifacts digest %s" % (
            args.seed, first["timeline_digest"], first["artifacts_digest"]))
        log("simulated requests: offered=%d failed=%d (refused, shed, timed out "
            "or errored)" % (first["requests_offered"], first["requests_failed"]))
    if ok and args.trace == 0:
        windows = [w for rep in plain for w in rep["window_ms"]]
        if len(windows) < 100:
            errors.append("only %d measured windows" % len(windows))
            ok = False
        med = lambda key: statistics.median(rep[key] for rep in plain)
        values = {
            "setup_s": med("setup_s"),
            "run_wall_s": med("run_wall_s"),
            "run_cpu_s": med("run_cpu_s"),
            "sim_second_ms_p50": quantile(windows, 0.5),
            "sim_second_ms_p90": quantile(windows, 0.9),
            "peak_rss_mb": med("peak_rss_mb"),
            "goodput_rps": first["goodput_rps"],
            "slo_miss_frac": first["slo_miss_frac"],
            "latency_p50_ms": first["latency_p50_ms"],
            "latency_p99_ms": first["latency_p99_ms"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        log("repetitions=%d measured windows=%d" % (len(plain), len(windows)))
    elif ok:
        counts = plain[0]["counts"]
        plain_wall = statistics.median(r["run_wall_s"] for r in plain)
        traced_wall = statistics.median(r["run_wall_s"] for r in traced)
        tmed = lambda key: statistics.median(r["ledger"][key] for r in traced)
        for name, unit, source in PER_LAYER:
            if source == "count":
                value = counts[name]
            elif source == "setup":
                value = statistics.median(r[name] for r in plain)
            elif name == "des.hold_share":
                value = tmed("des.hold_ns") * counts["des.events"] / (plain_wall * 1e9)
            elif name == "trace_overhead_frac":
                value = (traced_wall - plain_wall) / plain_wall
            else:
                value = tmed(name)
            metrics[name] = {"value": value, "unit": unit}
        log("repetitions: untraced=%d traced=%d" % (len(plain), len(traced)))
    for err in errors[failed_reps:]:
        log("check FAILED: " + err)
    print(json.dumps({"correct": ok, "attempted": index, "failed": failed_reps,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
