#!/usr/bin/env python3
"""Compare two sets of hira_perf runs (a parent and a change).

    python3 bench/perf/run.py --workload light_llc --seed 1 --save before/
    ...                                     (>= 5 runs per workload per side)
    python3 bench/perf/compare.py before/ after/

Make the runs of the two sides in alternation, one seed at a time, and
switch which side goes first, so that a drift in the host's speed falls
on both sides alike (README.md, "Comparing two commits").

Each directory holds driver results saved by run.py --save. For every
(end-to-end metric, workload) it prints each side's median and quartiles
and a verdict against the metric's bound from BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound
  better      the change's median is better by more than the parent's
              own quartile spread, and the change wins at least 9 in 10
              of the pairs of runs made on the same seed (or, when the
              spread exceeds the bound, every run of the change beats
              every run of the parent)
  unchanged   neither, with both spreads within the bound
  unresolved  a spread exceeds the bound, so the data cannot tell

It also checks identity: model outputs, and the exact counts of traced
runs, must be equal across every run of the same workload and seed in
both directories. Exit status is 1 on any "worse" verdict or identity
difference, else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
MIN_RUNS = 5


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before, after, pairs, bound, higher_is_better):
    """pairs: (before, after) values of runs made on the same seed."""
    sign = 1.0 if higher_is_better else -1.0
    b1, bmed, b3 = quartiles(before)
    a1, amed, a3 = quartiles(after)
    spread = max((b3 - b1) / bmed, (a3 - a1) / amed)
    gain = sign * (amed - bmed) / bmed  # > 0: the change is better
    if spread > bound:
        beats = all(sign * a > sign * b for a in after for b in before)
        return ("better" if beats else "unresolved"), gain, spread
    if gain < -bound:
        return "worse", gain, spread
    wins = sum(1 for b, a in pairs if sign * a > sign * b)
    if gain > (b3 - b1) / bmed and pairs and wins >= 0.9 * len(pairs):
        return "better", gain, spread
    return "unchanged", gain, spread


def identity(runs_by_side):
    """(workload, seed) -> list of differences across all runs."""
    problems = []
    groups = {}
    for side, runs in runs_by_side.items():
        for r in runs:
            groups.setdefault((r["workload"], r["seed"]), []).append((side, r))
    for (workload, seed), members in sorted(groups.items()):
        ref_side, ref = members[0]
        counted = [(s, r) for s, r in members if r.get("traced")]
        for side, r in members[1:]:
            for name, v in ref["model"].items():
                if r["model"].get(name, {}).get("value") != v["value"]:
                    problems.append("%s seed %s: %s differs (%s vs %s)" % (
                        workload, seed, name, ref_side, side))
        if counted:
            cref_side, cref = counted[0]
            names = [n for n, v in cref["per_layer"].items() if v["unit"] == "count"]
            for side, r in counted[1:]:
                for n in names:
                    if r["per_layer"][n]["value"] != cref["per_layer"][n]["value"]:
                        problems.append("%s seed %s: count %s differs (%s vs %s)"
                                        % (workload, seed, n, cref_side, side))
    return problems


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sides = {"before": load(sys.argv[1]), "after": load(sys.argv[2])}
    failed = False
    print("%-22s %-22s %-33s %-33s %8s %7s  %s" % (
        "workload", "metric", "before q1/median/q3", "after q1/median/q3",
        "gain", "spread", "verdict"))
    for workload in [w["name"] for w in spec["workloads"]]:
        per_side = {s: [r for r in runs if r["workload"] == workload
                        and not r.get("traced")] for s, runs in sides.items()}
        if any(len(v) < MIN_RUNS for v in per_side.values()):
            print("%-22s needs >= %d untraced runs per side (have %d, %d)" % (
                workload, MIN_RUNS, len(per_side["before"]), len(per_side["after"])))
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            values = {s: [r["end_to_end"][name]["value"] for r in per_side[s]]
                      for s in sides}
            by_seed = {s: {r["seed"]: r["end_to_end"][name]["value"]
                           for r in per_side[s]} for s in sides}
            pairs = [(by_seed["before"][k], by_seed["after"][k])
                     for k in sorted(by_seed["before"]) if k in by_seed["after"]]
            v, gain, spread = verdict(values["before"], values["after"], pairs,
                                      m["bound"], m["better"] == "higher")
            failed = failed or v == "worse"
            print("%-22s %-22s %-33s %-33s %+7.1f%% %6.1f%%  %s (bound %.0f%%)" % (
                workload, name,
                "/".join("%.4g" % x for x in quartiles(values["before"])),
                "/".join("%.4g" % x for x in quartiles(values["after"])),
                100 * gain, 100 * spread, v, 100 * m["bound"]))
    problems = identity(sides)
    for p in problems:
        print("IDENTITY " + p)
    if not problems:
        print("identity: model outputs and exact counts equal for every "
              "shared (workload, seed)")
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
