#!/usr/bin/env python3
"""End-to-end benchmark entry point (see unitsbench/README.md).

    python3 unitsbench/run.py --workload fit|serve|stream --seed N \
        --seconds S --trace 0|1
    python3 unitsbench/run.py --selftest

Builds the benchmark package (the repository's library, units_serve,
units_router and the unitsbench binary) into .bench_build/units from
source, runs one workload in its own process group, and prints the
binary's notes followed by one JSON line holding exactly the metrics
BENCHMARK.json lists: the end-to-end ones with --trace 0, the per-layer
ones with --trace 1. Exits non-zero when the build fails, a check fails,
or a listed metric is missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO, ".bench_build", "units")
RUN_TIMEOUT_S = 170


def fail(message):
    print("unitsbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no library sources next to the benchmark; nothing to build")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_group(cmd, timeout_s):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload exceeded %d s" % timeout_s)
    finally:
        # The binary stops its servers itself; this only catches leftovers
        # (servers share the binary's process group).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def selected_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["fit", "serve", "stream"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build("unitsbench_selftest")
        sys.exit(subprocess.call(
            [os.path.join(BUILD_DIR, "unitsbench_selftest")]))
    if args.workload is None:
        parser.error("--workload is required")

    build("unitsbench")
    work_dir = os.path.join(REPO, ".bench_build", "runs",
                            "%s-%d-%d" % (args.workload, args.seed, args.trace))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "unitsbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(BUILD_DIR, "units", "tools"),
           "--work-dir", work_dir]
    code, out = run_group(cmd, RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        fail("unitsbench exited %d without a result" % code)
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for spec in selected_metrics(args.trace):
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            print("missing or mis-unit metric: %s" % spec["name"])
            result["correct"] = False
            continue
        metrics[spec["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
