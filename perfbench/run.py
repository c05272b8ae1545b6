#!/usr/bin/env python3
"""Runs one benchmark measurement and prints its result.

    python3 perfbench/run.py --workload lane-ring --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds the driver (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, and
prints the result as one JSON object on the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, measured
untraced; with --trace 1 they are its per_layer metrics, from the traced ledger.
The line before it carries the full record (every metric's median, quartiles
and sample count, the run's environment, notes); the same record is appended
to .bench_results/runs.jsonl, which compare.py reads.
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
WORKLOADS = ("lane-ring", "scalar-paper", "evidence-fabric")
# Fresh processes whose set-up time is sampled next to the run's own: a
# multiple of the common core counts, so every CPU gets the same share.
SETUP_SAMPLES = 24
# Executor workers for in-process sweeps.  One: the sweep then runs inline on
# the driver's thread, and a second thread on a shared host measured mostly
# how often the scheduler parked one of the two.
WORKERS = 1
DRIVER_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, cpu_count())))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfdriver")


def build_type():
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment():
    cores = cpu_count()
    load1 = os.getloadavg()[0]
    env = {"nproc": cores, "loadavg_1m": load1, "build_type": build_type(),
           "loaded": load1 > cores}
    if env["loaded"]:
        log(f"WARNING: load average {load1:.2f} exceeds {cores} cores; figures are suspect")
    return env


def driver_json(command):
    """Runs the driver and returns the JSON object on its last output line."""
    proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def pin_to(cpu):
    """A preexec_fn that confines the child to one CPU (None where unsupported)."""
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def setup_samples(driver, args, workers, own):
    """The run's own set-up time plus SETUP_SAMPLES fresh processes', each
    started on the next allowed CPU in turn: a fresh process otherwise tends
    to start where its parent sleeps, and one busy neighbour there would set
    the whole run's median."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = [None]
    samples = [own]
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run([driver, "setup", "--workload", args.workload, "--seed",
                               str(args.seed), "--workers", str(workers)],
                              stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S, text=True,
                              check=True, preexec_fn=pin_to(cpus[i % len(cpus)]))
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    env = environment()
    workers = WORKERS
    golden = os.path.join(HERE, "golden.txt")
    results_dir = os.path.join(os.getcwd(), ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workers", str(workers),
              "--golden", golden]
    started = time.time()
    try:
        if args.trace:
            trace_path = os.path.join(results_dir, f"trace-{args.workload}-{args.seed}.json")
            result = driver_json([driver, "ledger", *common, "--trace-out", trace_path])
        else:
            result = driver_json([driver, "run", *common, "--seconds", str(args.seconds)])
            samples = setup_samples(driver, args, workers,
                                    result["metrics"]["setup_s"]["value"])
            stats = summary(samples)
            result["metrics"]["setup_s"] = {"value": stats["median"], "unit": "s", **stats}
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as error:
        log(f"driver failed: {error}")
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        log(f"driver did not report {', '.join(missing)}")
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workers": workers, "env": env,
              "elapsed_s": time.time() - started, **result}
    with open(os.path.join(results_dir, "runs.jsonl"), "a") as runs:
        runs.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
