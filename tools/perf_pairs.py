#!/usr/bin/env python3
"""Alternating-pairs comparison of perfbench at two revisions (stdlib only).

Exports each revision into a temporary directory with `git archive` (a
directory argument is used as it stands, e.g. `.` for the working tree),
builds perfbench there into its own CARGO_TARGET_DIR, then runs N pairs per
workload and seed. Each pair runs both revisions back to back, and which one
goes first alternates from pair to pair, so host drift hits both alike.

For every end-to-end metric it prints the parent's and the change's medians,
the change/parent ratio of the medians, the pairs the change won (in the
metric's direction, from BENCHMARK.json) and the parent's interquartile
range. For paper_solve it also prints each cell's median_cpu_ms ratio, from
the run facts line. Each side's `reference_checksum` (from the facts line:
a hash of the answers the run checks itself against) is printed too, and a
pair whose two checksums differ is flagged, so "same answers" is read off
the same runs. With `--trace`, one traced run per side follows the
pairs, and its per-layer figures (every `relational.*` and `solver.*`
metric: count_ms, count_only_ms, case.*_ms, self_ms, node counts) are
printed side by side, so a gain is attributed to its layer by the same
tool that measured it. `--out` keeps every run's facts and result. A run
whose answers disagree with the reference (`correct` false or `failed` > 0)
is reported and stops the comparison.

Usage, from the repository root:

    python3 tools/perf_pairs.py --parent HEAD~1 --change . \\
        --workload paper_solve --seeds 1 --pairs 10 --seconds 20 [--trace]

Seed 7919 is held out (perfbench/DESIGN.md): develop on seed 1 and check a
claimed gain on 7919 once, at the end.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_solve", "serve_mixed")
HELD_OUT_SEED = 7919
# Metric-name prefixes of the per-layer figures a traced run reports.
LAYER_PREFIXES = ("relational.", "solver.")


def export(rev, dest):
    """Puts the tree of `rev` (a git revision or a directory) at `dest`."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("perf_pairs: git archive %s failed" % rev)
    return dest


def build(tree, target_dir):
    out = os.path.join(target_dir, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    for cmd in (["cmake", "-S", os.path.join(tree, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "adp_perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode:
            sys.exit("perf_pairs: building perfbench in %s failed" % tree)


def run_once(tree, target_dir, workload, seed, seconds, trace=False):
    """One perfbench run: (facts, result) from its last two stdout lines."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        sys.exit("perf_pairs: no result from %s (exit %d)" %
                 (tree, proc.returncode))
    facts, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) > 0:
        sys.exit("perf_pairs: %s answered wrongly on %s seed %d: %s" %
                 (tree, workload, seed, lines[-1]))
    return facts, result


def directions():
    """metric -> True when higher is better, from BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["better"] == "higher"
                for m in spec.get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        return {"ops_s": True}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report_checksums(runs):
    """Prints each side's reference_checksum; flags pairs where they differ."""
    sums = {side: [r[side][0].get("reference_checksum") for r in runs]
            for side in ("parent", "change")}
    for side in ("parent", "change"):
        print("reference_checksum %-6s %s" %
              (side, " ".join(str(c) for c in sorted(set(sums[side]),
                                                     key=str))))
    differ = [i for i, (p, c) in enumerate(zip(sums["parent"],
                                               sums["change"])) if p != c]
    if differ:
        print("reference_checksum DIFFERS in pairs %s" %
              ", ".join(str(i) for i in differ))
    else:
        print("reference_checksum equal in all %d pairs" % len(runs))


def report(workload, seed, runs, higher_better):
    parent = [r["parent"][1]["metrics"] for r in runs]
    change = [r["change"][1]["metrics"] for r in runs]
    print("\n%s seed %d: %d pairs" % (workload, seed, len(runs)))
    report_checksums(runs)
    print("%-18s %12s %12s %7s %6s %12s" %
          ("metric", "parent", "change", "ratio", "won", "parent IQR"))
    for name in sorted(parent[0]):
        p = [m[name]["value"] for m in parent if name in m]
        c = [m[name]["value"] for m in change if name in m]
        if len(p) != len(runs) or len(c) != len(runs):
            continue
        higher = higher_better.get(name, False)
        won = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        pm, cm = statistics.median(p), statistics.median(c)
        q1, q3 = quartiles(p)
        print("%-18s %12.4g %12.4g %7.3f %3d/%-2d %12.4g" %
              (name, pm, cm, cm / pm if pm else float("nan"), won, len(runs),
               q3 - q1))
    cells_p = [r["parent"][0].get("cells") for r in runs]
    cells_c = [r["change"][0].get("cells") for r in runs]
    if not cells_p[0] or not isinstance(cells_p[0], dict):
        return
    print("%-34s %9s %9s %7s" % ("cell median_cpu_ms", "parent", "change",
                                 "ratio"))
    for cell in cells_p[0]:
        p = statistics.median(c[cell]["median_cpu_ms"] for c in cells_p)
        c = statistics.median(x[cell]["median_cpu_ms"] for x in cells_c)
        print("%-34s %9.3f %9.3f %7.2f" %
              (cell, p, c, c / p if p else float("nan")))


def report_layers(workload, seed, traced):
    """Prints the per-layer figures of one traced run per side."""
    parent = traced["parent"][1]["metrics"]
    change = traced["change"][1]["metrics"]
    print("\n%s seed %d: per-layer, one traced run per side" %
          (workload, seed))
    print("%-28s %12s %12s %7s" % ("layer", "parent", "change", "ratio"))
    for name in sorted(parent):
        if not name.startswith(LAYER_PREFIXES) or name not in change:
            continue
        p, c = parent[name]["value"], change[name]["value"]
        print("%-28s %12.4g %12.4g %7.3f" %
              (name, p, c, c / p if p else float("nan")))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="git revision (or directory) to compare against")
    ap.add_argument("--change", required=True,
                    help="git revision (or directory, e.g. .) to measure")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default: both")
    ap.add_argument("--seeds", default="1",
                    help="comma-separated perfbench seeds (default 1)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", action="store_true",
                    help="after the pairs, one traced run per side, and its "
                         "per-layer figures side by side")
    ap.add_argument("--keep", action="store_true",
                    help="keep the exported trees and builds")
    ap.add_argument("--out",
                    help="append every run's facts and result to this file, "
                         "one JSON object per line")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if HELD_OUT_SEED in seeds:
        print("perf_pairs: warning: seed %d is held out; use it once, to "
              "confirm a gain found on other seeds" % HELD_OUT_SEED,
              file=sys.stderr)

    scratch = tempfile.mkdtemp(prefix="perf_pairs_")
    try:
        sides = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            tree = export(rev, os.path.join(scratch, side))
            target = os.path.join(scratch, side + "_build")
            print("perf_pairs: building %s (%s)" % (side, rev),
                  file=sys.stderr)
            build(tree, target)
            sides[side] = (tree, target)
        higher_better = directions()
        for workload in args.workload or WORKLOADS:
            for seed in seeds:
                runs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else \
                            ("change", "parent")
                    pair = {}
                    for side in order:
                        tree, target = sides[side]
                        pair[side] = run_once(tree, target, workload, seed,
                                              args.seconds)
                    runs.append(pair)
                    if args.out:
                        with open(args.out, "a") as f:
                            for side in order:
                                facts, result = pair[side]
                                f.write(json.dumps({
                                    "workload": workload, "seed": seed,
                                    "pair": i, "side": side, "facts": facts,
                                    "result": result}) + "\n")
                    print("perf_pairs: %s seed %d pair %d/%d done" %
                          (workload, seed, i + 1, args.pairs),
                          file=sys.stderr)
                if runs:
                    report(workload, seed, runs, higher_better)
                if args.trace:
                    traced = {}
                    for side in ("parent", "change"):
                        tree, target = sides[side]
                        traced[side] = run_once(tree, target, workload, seed,
                                                args.seconds, trace=True)
                        if args.out:
                            with open(args.out, "a") as f:
                                facts, result = traced[side]
                                f.write(json.dumps({
                                    "workload": workload, "seed": seed,
                                    "pair": "traced", "side": side,
                                    "facts": facts, "result": result}) + "\n")
                    report_layers(workload, seed, traced)
    finally:
        if args.keep:
            print("perf_pairs: kept %s" % scratch, file=sys.stderr)
        else:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
