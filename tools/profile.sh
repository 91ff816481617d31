#!/bin/sh
# Profile one benchmark workload with gprof.
#
#   tools/profile.sh <workload> [seed]
#
# Configures bench/perf (hira_perf and hira_core) into its
# own build directory, .bench_build/profile, with -pg, runs
# `hira_perf --workload <workload> --seed <seed> --threads 1` there
# (gprof samples only the main thread) and prints gprof's flat profile.
# The seed defaults to 1. The full gprof report, call graph included,
# stays in .bench_build/profile/gprof.txt.
#
# -fno-partial-inlining, -fno-ipa-sra and -fno-ipa-cp-clone keep GCC
# from splitting functions into .part.N / .isra.N / .constprop.N clones:
# gprof credits a clone's samples to whichever symbol precedes it, so
# without them a hot function can show up under a neighbour's name.
# Nothing under bench/perf is edited and the benchmark's own build,
# .bench_build/perf, is left alone.

set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: tools/profile.sh <workload> [seed]" >&2
    exit 2
fi
workload=$1
seed=${2:-1}

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build/profile"
flags="-pg -fno-omit-frame-pointer -fno-partial-inlining -fno-ipa-sra -fno-ipa-cp-clone"
jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

mkdir -p "$build"
cmake -S "$root/bench/perf" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS=-pg \
    > "$build/configure.log"
cmake --build "$build" -j "$jobs" > "$build/build.log"

# gmon.out lands in the working directory. A failed check (exit 1)
# still leaves a profile; it is printed and the status passed on.
run="$build/run"
rm -rf "$run"
mkdir -p "$run"
status=0
(
    cd "$run"
    "$build/hira_perf" --workload "$workload" --seed "$seed" --threads 1 \
        --workdir "$run" --out "$run/result.json" > "$run/hira_perf.log"
) || status=$?
if [ ! -f "$run/gmon.out" ]; then
    echo "profile.sh: hira_perf exited with $status and no gmon.out;" \
        "see $run/hira_perf.log" >&2
    exit 1
fi
gprof -b "$build/hira_perf" "$run/gmon.out" > "$build/gprof.txt"
gprof -b -p "$build/hira_perf" "$run/gmon.out"
exit "$status"
