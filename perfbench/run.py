#!/usr/bin/env python3
"""End-to-end benchmark of the ammb simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use this builds perfbench/ (the ammb library from the
repository sources plus the ammb_perf sampler) into .bench_build/.  It
then runs fresh ammb_perf processes, one per sample, for about S
seconds.  A sample executes its workload once on one thread.  One
process per sample keeps one sample's heap growth out of the next
sample's timing and gives every sample its own peak RSS.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, each the
median over the samples.  --trace 1 spends half the time on untraced
samples and half on traced ones, and prints the per-layer metrics
(medians over the traced samples) with tracing.overhead_frac.

A sample is correct when its run solved, every oracle stayed green and
its span arithmetic closed.  At the committed seed its fingerprint of
the simulated output must also equal perfbench/expected.json; at any
other seed every sample, traced or not, must agree with the others.
The last line of stdout is the JSON result; the exit code is non-zero
when a sample failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "ammb_perf")
SPEC_DIR = os.path.join(HERE, "specs")
EXPECTED = os.path.join(HERE, "expected.json")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")

COMMITTED_SEED = 1
SPOOLED_WORKLOAD = "bmmb-adversarial-drift-checked"
MIN_UNTRACED = 3
SAMPLE_TIMEOUT_S = 60

END_TO_END = {
    "us_per_rcv": lambda s: s["run_s"] / max(s["rcvs"], 1) * 1e6,
    "ms_per_cell": lambda s: s["cell_ms"],
    "setup_s": lambda s: s["setup_s"],
    "peak_rss_mb": lambda s: s["peak_rss_mb"],
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once; the build tool skips whatever is current."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ammb_perf",
                    "-j", "4"], stdout=sys.stderr, check=True)
    os.makedirs(TMP_DIR, exist_ok=True)


def run_sample(workload, seed, traced):
    command = [BINARY, "sample", "--workload", workload, "--seed", str(seed),
               "--tmp-dir", TMP_DIR, "--spec-dir", SPEC_DIR]
    if traced:
        command.append("--traced")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": ["sample ran over %d s" % SAMPLE_TIMEOUT_S]}
    if proc.returncode != 0:
        return {"problems": ["sample exited %d: %s" %
                             (proc.returncode, proc.stderr.strip()[-400:])]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed, traced, until, minimum):
    """Samples until the next one would likely end after `until`."""
    samples, longest = [], 0.0
    while len(samples) < minimum or time.monotonic() + longest <= until:
        began = time.monotonic()
        samples.append(run_sample(workload, seed, traced))
        longest = max(longest, time.monotonic() - began)
    return samples


def judge(workload, seed, samples):
    """Adds fingerprint findings to each sample; returns the failures."""
    if seed == COMMITTED_SEED:
        with open(EXPECTED) as f:
            reference = json.load(f)[workload]
    else:
        reference = next((s["fingerprint"] for s in samples
                          if "fingerprint" in s), None)
    failed = 0
    for sample in samples:
        problems = sample.setdefault("problems", [])
        if "fingerprint" in sample:
            if sample["fingerprint"] != reference:
                problems.append("fingerprint '%s' differs from '%s'" %
                                (sample["fingerprint"], reference))
            if workload == SPOOLED_WORKLOAD and sample["spool_files"] < 1:
                problems.append("no trace spool was created under %s" %
                                TMP_DIR)
        if problems:
            failed += 1
            log("sample failed: " + "; ".join(problems))
    return failed


def median_of(samples, value):
    values = [value(s) for s in samples if "fingerprint" in s]
    return statistics.median(values) if values else 0.0


def end_to_end(benchmark, samples):
    return {m["name"]: {"value": median_of(samples, END_TO_END[m["name"]]),
                        "unit": m["unit"]}
            for m in benchmark["end_to_end"]}


def per_layer(benchmark, untraced, traced):
    names = [m["name"] for m in benchmark["per_layer"]]
    layers = [s["layers"] for s in traced if "layers" in s]
    unknown = sorted({k for sheet in layers for k in sheet} - set(names))
    if unknown:
        raise RuntimeError("metrics missing from BENCHMARK.json: %s" % unknown)
    metrics = {}
    for m in benchmark["per_layer"]:
        if m["name"] == "tracing.overhead_frac":
            base = median_of(untraced, lambda s: s["run_s"])
            wall = median_of(traced, lambda s: s["run_s"])
            value = wall / base - 1.0 if base > 0 else 0.0
        else:
            # A layer the workload never calls reads 0.
            values = [sheet.get(m["name"], 0.0) for sheet in layers]
            value = statistics.median(values) if values else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(BENCHMARK_FILE) as f:
        benchmark = json.load(f)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        log("unknown workload '%s'" % args.workload)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 1
    if subprocess.run([BINARY, "selftest"], stdout=sys.stderr).returncode:
        log("the harness self-test failed")
        return 1

    start = time.monotonic()
    if args.trace == 0:
        untraced = collect(args.workload, args.seed, False,
                           start + args.seconds, MIN_UNTRACED)
        traced = []
    else:
        untraced = collect(args.workload, args.seed, False,
                           start + args.seconds / 2, 2)
        traced = collect(args.workload, args.seed, True,
                         start + args.seconds, 1)
    samples = untraced + traced
    failed = judge(args.workload, args.seed, samples)
    if args.trace == 0:
        metrics = end_to_end(benchmark, untraced)
    else:
        metrics = per_layer(benchmark, untraced, traced)

    first = next((s for s in samples if "fingerprint" in s), {})
    print("%s seed %d: %d untraced + %d traced samples, %d failed" %
          (args.workload, args.seed, len(untraced), len(traced), failed))
    print("fingerprint: %s" % first.get("fingerprint"))
    for key, value in first.get("info", {}).items():
        print("%s: %s" % (key, json.dumps(value)))
    if args.trace:
        print("protocol.self_s still holds the engine API work its callbacks "
              "trigger (bcast, deliver, timers); engine.self_s is the "
              "residual: event queue, progress guard, plan validation, "
              "trace-sink append.")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
