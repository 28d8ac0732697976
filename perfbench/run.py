#!/usr/bin/env python3
"""Builds and runs the ADP benchmark (see perfbench/DESIGN.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_solve --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which compiles the
repository's src/) into .bench_build/perfbench; later runs rebuild only what
changed. Build output goes to stderr. The benchmark's last stdout line is the
result JSON; a traced run also writes its spans to
.bench_build/spans/<workload>-seed<seed>.json. The exit status is the
benchmark's: 0 when every answer matched the reference.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_solve", "serve_mixed")
# A run measures for --seconds; data generation, reference solves, the
# repeated set-ups, warm-up and the traced probes come on top.
RUN_OVERHEAD_S = 90


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "adp_perfbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    base = build_dir()
    out = os.path.join(base, "perfbench")
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    spans_dir = os.path.join(base, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(out, "adp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out",
           os.path.join(spans_dir, "%s-seed%d.json" % (args.workload,
                                                       args.seed))]
    sys.stdout.flush()
    timeout_s = RUN_OVERHEAD_S + 2 * args.seconds
    try:
        return subprocess.run(cmd, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %.0f s" % timeout_s, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
