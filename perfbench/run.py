#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build) under the checkout, the perfbench
binary runs the workload, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (and writes the spans of
the latest traced run to <build dir>/perfbench/traces/<workload>.jsonl).
A failed build, a failed correctness check or a timeout exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("index_kscan", "engine_wal_mixed", "engine_mvcc_rw")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def check_names(result, trace):
    """The reported metrics must be exactly the ones BENCHMARK.json lists."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(want.items()) ^ set(got.items()))}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    trace = args.trace == "1"

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    if trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}.jsonl")]
    try:
        # subprocess.run kills and reaps the child on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or result["correct"] is not True or result["attempted"] < 1:
        fail("malformed or failed result: " + lines[-1])
    check_names(result, trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
