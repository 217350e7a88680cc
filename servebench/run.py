#!/usr/bin/env python3
"""Serve-plane benchmark of streamshare_serve.

Builds the daemon and the load generator from the checkout's sources
(first run only), runs one workload, checks the program's outputs, and
prints every metric by name with its unit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 servebench/run.py --workload grid_feed.r6k --seed 1 \
      --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (the daemon is never traced);
--trace 1 reports the per-layer metrics of the traced in-process replay.
--steady N runs the workload N times (seeds seed..seed+N-1) and prints
each end-to-end metric's median, quartiles and spread against its bound
in BENCHMARK.json. See servebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# BENCHMARK.json lists the first two; the others run by hand (README.md,
# "Left out of BENCHMARK.json").
WORKLOADS = ["grid_feed.r6k", "subscribe_churn", "grid_feed.r2k", "grid_bulk"]

RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    # The benchmark's own build tree inside the checkout.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build():
    """Configures (once) and builds; returns the binaries' directory."""
    out = build_dir()
    tmp = os.path.join(ROOT, ".bench_run", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(step))
    return out


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_once(binaries, workload, seed, seconds, trace):
    """Runs the load generator once; returns its parsed JSON object."""
    steal_before, total_before = cpu_ticks()
    run_dir = os.path.join(ROOT, ".bench_run",
                           "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command = [os.path.join(binaries, "servebench_load"),
               "--serve=" + os.path.join(binaries, "streamshare_serve"),
               "--dir=" + run_dir, "--workload=" + workload,
               "--seed=%d" % seed, "--seconds=%d" % seconds]
    if trace:
        command.append("--trace")
    # Own process group, so a timeout stops the daemon along with the
    # load generator; both are waited for.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError("load generator timed out after %ds" %
                           RUN_TIMEOUT_S)
    finally:
        # Keep the span files of the latest traced run of each workload.
        for name in ("trace.json", "trace_recovery.json"):
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                os.replace(path, os.path.join(
                    ROOT, ".bench_run", "%s.%s" % (workload, name)))
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        log(stderr[-4000:])
        raise RuntimeError("load generator failed (exit %d)" %
                           child.returncode)
    raw = json.loads(lines[-1])
    # Share of CPU time the hypervisor took from this VM during the run:
    # the first suspect when a timing moves and the counts do not.
    steal_after, total_after = cpu_ticks()
    raw["info"]["host_steal_pct"] = 100.0 * (steal_after - steal_before) / max(
        1, total_after - total_before)
    return raw


def result_line(raw, wanted):
    """The benchmark's result object over `wanted` ({name: unit});
    missing or non-finite metrics make the run incorrect."""
    correct = bool(raw["correct"])
    metrics = {}
    for name, unit in wanted.items():
        value = raw["metrics"].get(name)
        if value is None or not math.isfinite(value):
            correct = False
            log("metric %s missing" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}


def print_result(raw, result):
    for error in raw.get("errors", []):
        print("# error: " + error)
    for name, entry in result["metrics"].items():
        print("%-40s %16.6g %s" % (name, entry["value"], entry["unit"]))
    for name, value in sorted(raw.get("info", {}).items()):
        print("# %-38s %16.6g" % (name, value if value is not None else
                                  float("nan")))
    print("# attempted=%d failed=%d correct=%s" % (
        result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result), flush=True)


def load_spec():
    """BENCHMARK.json's metrics: (end-to-end {name: (unit, bound)},
    per-layer {name: unit}). Every workload reports every metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: (m["unit"], m["bound"])
                  for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return end_to_end, per_layer


def steady(binaries, args, end_to_end):
    """Runs the workload repeatedly and prints each end-to-end metric's
    median, quartiles and spread (IQR / median) against its bound."""
    units = {name: unit for name, (unit, _) in end_to_end.items()}
    values = {name: [] for name in end_to_end}
    for i in range(args.steady):
        seed = args.seed + i
        raw = run_once(binaries, args.workload, seed, args.seconds, False)
        result = result_line(raw, units)
        if not result["correct"]:
            print("seed %d: incorrect run: %s" % (seed, raw.get("errors")))
            return 1
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        log("seed %d: %s steal=%.1f%%" % (seed, " ".join(
            "%s=%.4g" % (name, entry["value"])
            for name, entry in result["metrics"].items()),
            raw["info"]["host_steal_pct"]))
    print("workload=%s runs=%d seconds=%d hw_threads=%d" % (
        args.workload, args.steady, args.seconds, os.cpu_count() or 1))
    print("%-24s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "ok"))
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = end_to_end[name][1]
        verdict = ("yes" if spread <= bound / 3 else
                   "within-bound" if spread <= bound else "NO")
        print("%-24s %12.6g %12.6g %12.6g %8.4f %6.2f %s" % (
            name, median, q1, q3, spread, bound, verdict))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0,
                        help="steadiness mode: number of runs")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    try:
        end_to_end, per_layer = load_spec()
        binaries = build()
        if args.steady > 0:
            return steady(binaries, args, end_to_end)
        raw = run_once(binaries, args.workload, args.seed, args.seconds,
                       args.trace == 1)
    except (RuntimeError, OSError, ValueError, KeyError) as error:
        log("servebench: %s" % error)
        return 1
    wanted = per_layer if args.trace == 1 else {
        name: unit for name, (unit, _) in end_to_end.items()}
    result = result_line(raw, wanted)
    print_result(raw, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
