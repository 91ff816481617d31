#!/usr/bin/env python3
"""Run the repository benchmark on two checkouts in alternation and compare.

    python3 tools/bench_ab.py --parent ../parent --change . \\
        --workload periodic_hira,light_llc --seeds 1-5 --out ../ab

This is the recipe of bench/perf/README.md ("Comparing two commits") as
a script. --workload takes one BENCHMARK.json workload, a comma-separated
list of them, or all. For each seed and each listed workload it runs
`bench/perf/run.py --save` in both checkouts, one after the other, and
flips which side goes first on every seed, so that a drift in the
host's speed falls on both sides alike. The first seed runs with
--trace 1 and every later one with --trace 0. A traced run also saves
its untraced result, so every seed counts toward the verdicts, and the
traced results of the first seed give compare.py the exact per-layer
counts it checks for equality between the sides. Each run's output goes to
OUT/<side>_<workload>_s<seed>.log and its saved results to OUT/parent/
and OUT/change/. Then it runs the change's
bench/perf/compare.py on the two result directories and exits with its
status: 1 on a "worse" verdict or an identity difference, else 0.

Every run builds its side first, if needed (run.py does that), so the
first seed also compiles each checkout. compare.py needs at least five
seeds per side for a verdict. A failing run stops the script.
"""

import argparse
import json
import os
import subprocess
import sys


def parse_seeds(text):
    """'1-5' or '1,3,7-9' -> a list of ints, in the order given."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        try:
            first = int(lo)
            last = int(hi) if sep else first
        except ValueError:
            raise argparse.ArgumentTypeError("bad seed list: %r" % text)
        if last < first:
            raise argparse.ArgumentTypeError("empty seed range: %r" % part)
        seeds.extend(range(first, last + 1))
    return seeds


def checkout(path):
    run_py = os.path.join(path, "bench", "perf", "run.py")
    if not os.path.isfile(run_py):
        raise argparse.ArgumentTypeError("no bench/perf/run.py in %s" % path)
    return os.path.abspath(path)


def parse_workloads(text, root):
    """'periodic_hira,light_llc' -> a list of BENCHMARK.json workloads."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        known = [w["name"] for w in json.load(f)["workloads"]] + ["all"]
    names = text.split(",")
    for name in names:
        if name not in known:
            sys.exit("bench_ab: unknown workload %r; BENCHMARK.json has: %s"
                     % (name, ", ".join(known)))
    return names


def run_side(side, root, workload, seed, traced, out):
    save = os.path.join(out, side)
    log_path = os.path.join(out, "%s_%s_s%d.log" % (side, workload, seed))
    cmd = [sys.executable, os.path.join("bench", "perf", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--save", save]
    with open(log_path, "w") as log:
        rc = subprocess.run(cmd, cwd=root, stdout=log,
                            stderr=subprocess.STDOUT).returncode
    print("seed %d %-6s %s exit %d  (%s)"
          % (seed, side, workload, rc, log_path), flush=True)
    if rc != 0:
        sys.exit("bench_ab: %s run failed on seed %d; see %s"
                 % (side, seed, log_path))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=checkout, required=True,
                   help="checkout of the parent commit")
    p.add_argument("--change", type=checkout, required=True,
                   help="checkout of the change")
    p.add_argument("--workload", required=True,
                   help="a BENCHMARK.json workload, a comma-separated "
                        "list of them, or all")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"),
                   help="seed list such as 1-5 or 1,3,7-9 (default 1-5)")
    p.add_argument("--out", required=True,
                   help="directory for the logs and both sides' results")
    args = p.parse_args()

    workloads = parse_workloads(args.workload, args.change)
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    sides = [("parent", args.parent), ("change", args.change)]
    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            for side, root in (sides if i % 2 == 0 else sides[::-1]):
                run_side(side, root, workload, seed, i == 0, out)

    compare = os.path.join(args.change, "bench", "perf", "compare.py")
    return subprocess.run([sys.executable, compare,
                           os.path.join(out, "parent"),
                           os.path.join(out, "change")]).returncode


if __name__ == "__main__":
    sys.exit(main())
