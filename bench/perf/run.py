#!/usr/bin/env python3
"""Build hira_perf and run the repository benchmark.

    python3 bench/perf/run.py                       # all workloads, traced too
    python3 bench/perf/run.py --workload light_llc --seed 3 --trace 0
    python3 bench/perf/run.py --scale smoke         # all workloads, tiny, schema check

For each workload it runs the driver untraced (end-to-end metrics) and,
with --trace 1, a second time traced (per-layer metrics, plus
bench.trace_overhead_frac and a traced-vs-untraced model identity check).
Every run does the same fixed work, so --seconds does not change it.
It prints every metric by name with its unit and, as the last line of
stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
The metric names, units and workloads come from BENCHMARK.json at the
repository root. Everything it writes stays under <repo>/.bench_build/.
Exit status is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perf")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "run")
DRIVER = os.path.join(BUILD_DIR, "hira_perf")
# One invocation must finish within 180 s once the driver is built.
RUN_BUDGET_S = 170.0
OVERHEAD_METRIC = "bench.trace_overhead_frac"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configure (once) and build the driver; the build log goes to a file."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                rc = str(e)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    # A half-configured cache would be re-used next time.
                    os.remove(cache)
                fail("build failed (%s): %s" % (rc, " ".join(cmd)))


def run_driver(args, workload, traced, deadline):
    """Run one driver invocation; returns its result JSON."""
    workdir = os.path.join(WORK_ROOT, "%s-%d-%s" % (
        workload, os.getpid(), "traced" if traced else "untraced"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    cmd = [DRIVER, "--workload", workload, "--seed", str(args.seed),
           "--scale", args.scale,
           "--workdir", workdir, "--out", out]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if traced:
        cmd.append("--traced")
    rc, result = None, None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        sys.stdout.write(proc.stdout)
        rc = proc.returncode
        if rc in (0, 1) and os.path.exists(out):
            with open(out) as f:
                result = json.load(f)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        fail("driver exited with %s and no result: %s" % (rc, " ".join(cmd)))
    return result


def check_schema(result, spec, traced):
    """Every metric BENCHMARK.json names must be present and numeric."""
    for key in ("workload", "seed", "threads", "nproc", "git_rev", "config",
                "attempted", "failed", "end_to_end", "model", "per_layer"):
        if key not in result:
            fail("result lacks '%s'" % key)
    names = ([m["name"] for m in spec["end_to_end"]] if not traced else
             [m["name"] for m in spec["per_layer"] if m["name"] != OVERHEAD_METRIC])
    table = result["per_layer" if traced else "end_to_end"]
    for name in names:
        value = table.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            fail("result lacks metric '%s'" % name)
    if not result["model"]:
        fail("result has no model outputs")


def save(args, result, kind):
    if not args.save:
        return
    os.makedirs(args.save, exist_ok=True)
    n = 0
    while True:
        path = os.path.join(args.save, "%s_s%d_%s_%d.json" % (
            result["workload"], args.seed, kind, n))
        if not os.path.exists(path):
            break
        n += 1
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
        f.write("\n")


def run_workload(args, spec, workload, deadline):
    """Returns (attempted, failed, metrics) of one workload."""
    untraced = run_driver(args, workload, False, deadline)
    check_schema(untraced, spec, False)
    attempted, failed = untraced["attempted"], untraced["failed"]
    if not args.trace:
        save(args, untraced, "untraced")
        names = [m["name"] for m in spec["end_to_end"]]
        return attempted, failed, {n: untraced["end_to_end"][n] for n in names}

    traced = run_driver(args, workload, True, deadline)
    check_schema(traced, spec, True)
    attempted += traced["attempted"] + 1
    failed += traced["failed"]
    if traced["model"] != untraced["model"]:
        failed += 1
        print("FAILED model outputs differ between traced and untraced runs")
    overhead = (traced["end_to_end"]["sweep_wall_s"]["value"] /
                untraced["end_to_end"]["sweep_wall_s"]["value"] - 1.0)
    traced["per_layer"][OVERHEAD_METRIC] = {"value": overhead, "unit": "frac"}
    save(args, untraced, "untraced")
    save(args, traced, "traced")
    names = [m["name"] for m in spec["per_layer"]]
    return attempted, failed, {n: traced["per_layer"][n] for n in names}


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=workloads + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="accepted for the benchmark harness; a run measures "
                        "a fixed number of sweeps, about run_seconds long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1: also run traced for per-layer metrics "
                        "(default: 1 for --workload all, else 0)")
    p.add_argument("--threads", type=int, default=0,
                   help="simulation threads (default min(4, nproc))")
    p.add_argument("--scale", choices=("default", "smoke"), default="default")
    p.add_argument("--save", help="also write each driver result here")
    args = p.parse_args()
    if args.trace is None:
        args.trace = 1 if args.workload == "all" else 0

    build()
    start = time.monotonic()
    selected = workloads if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in selected:
        deadline = (time.monotonic() + RUN_BUDGET_S
                    if args.workload == "all" else start + RUN_BUDGET_S)
        a, f, m = run_workload(args, spec, workload, deadline)
        attempted += a
        failed += f
        print("== %s: %d of %d operations failed" % (workload, f, a))
        for name, v in m.items():
            print("   %-46s %16.6g %s" % (name, v["value"], v["unit"]))
        for name, v in m.items():
            key = name if len(selected) == 1 else workload + "." + name
            metrics[key] = {"value": v["value"], "unit": v["unit"]}
    if args.scale == "smoke":
        print("smoke: %d workloads, output schema ok, %.1f s"
              % (len(selected), time.monotonic() - start))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
