#!/usr/bin/env python3
"""reCloud benchmark: builds the benchmark binary from source, runs one
workload and prints every metric BENCHMARK.json names, by name and with its
unit.

    python3 perfbench/run.py --workload search|assess --seed N \
        --seconds S --trace 0|1

Run it from the root of a source tree. The build goes to .bench_build/ there.
The last line of standard output is the result object. The lines before it
record provenance (build info, nproc, seeds, rates and input sizes) and, in
the traced run, the library's own span totals. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

import metrics

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    source_dir = os.path.join(root, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "recloud_perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "recloud_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "assess"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build(root)
    completed = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace)],
        check=True, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    raw = json.loads(completed.stdout.strip().splitlines()[-1])
    out = metrics.result(raw, spec, bool(args.trace))
    provenance = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": raw["seconds"],
        "trace": raw["trace"],
        "nproc": raw["nproc"],
        "service_shards": raw["service_shards"],
        "service_workers_per_shard": raw["service_workers_per_shard"],
        "service_rate_rps": raw["service"]["rate_rps"],
        "parameters": raw["parameters"],
        "build": raw["build"],
        "failed_checks": [c for c in raw["checks"] if not c["ok"]],
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        # The library's own spans in the workload's phase, total ms by name.
        print("spans " + json.dumps(raw[args.workload]["trace"], sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
