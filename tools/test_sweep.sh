#!/usr/bin/env bash
# Integration test for hira_sweep and its result-cache checkpoint.
#
#   test_sweep.sh <hira_sweep> <workdir> [quick|full]
#
# quick (the smoke tier): a cold full-plan run writes the reference;
# --slice 0/2 and --slice 1/2 then fill a fresh shared cache, and a warm
# full run must simulate nothing and print the reference results
# byte-for-byte.
# full (the integration tier): quick, plus kill -9 after the first point
# is committed, then a rerun that must serve exactly the committed
# points from the cache.
set -eu

SWEEP=$1
WORKDIR=$2
MODE=${3:-full}

mkdir -p "$WORKDIR"
cd "$WORKDIR"
rm -rf cold-cache shared-cache kill-cache plan.json plan2.json ./*.out \
    ./*.results

# Pin the simulation environment: it feeds the cache keys, so ambient
# knobs must not leak in.
export HIRA_THREADS=2
export HIRA_METRICS=
export HIRA_TRACE_EVENTS=
export HIRA_CORPUS=
export HIRA_CACHE_REV=
export HIRA_STANDARD=
export HIRA_JSON=

SPID=""
cleanup() {
    [ -z "$SPID" ] || kill -9 "$SPID" 2> /dev/null || true
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# Integer field of a one-key-per-line JSON reply.
field() {
    sed -n "s/.*\"$2\": \([0-9][0-9]*\).*/\1/p" "$1" | head -n 1
}

# The "results" array of a reply, from its opening line to the end.
results() {
    sed -n '/"results": \[/,$p' "$1"
}

points() {
    ls "$1"/*.point 2> /dev/null | wc -l
}

cat > plan.json << 'EOF'
{
  "mixes": [["mcf-like", "gcc-like"], ["libquantum-like", "h264-like"]],
  "warmup": 1000,
  "cycles": 8000,
  "points": [
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "baseline"}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "hira", "slack_n": 4}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "rfm"}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "prac"}}
  ]
}
EOF

# Cold full run: the reference.
HIRA_RESULT_CACHE="$PWD/cold-cache" "$SWEEP" --plan plan.json > cold.out
[ "$(field cold.out points_total)" -eq 4 ] || fail "cold: total != 4"
[ "$(field cold.out points_simulated)" -eq 4 ] || \
    fail "cold: expected 4 simulated points"
[ "$(points cold-cache)" -eq 4 ] || fail "cold: cache should hold 4 points"

# Two slices over a fresh shared cache: round-robin by index, 2 + 2.
export HIRA_RESULT_CACHE="$PWD/shared-cache"
"$SWEEP" --plan plan.json --slice 0/2 > slice0.out
"$SWEEP" --plan plan.json --slice 1/2 > slice1.out
[ "$(field slice0.out points_total)" -eq 2 ] || fail "slice 0/2: total != 2"
[ "$(field slice1.out points_total)" -eq 2 ] || fail "slice 1/2: total != 2"
[ "$(points shared-cache)" -eq 4 ] || \
    fail "slices committed $(points shared-cache) points, expected 4"

# Warm full run: pure cache service, identical results.
"$SWEEP" --plan plan.json > warm.out
[ "$(field warm.out points_cached)" -eq 4 ] || fail "warm: not all cached"
[ "$(field warm.out points_simulated)" -eq 0 ] || \
    fail "warm: re-simulated $(field warm.out points_simulated) points"
results cold.out > cold.results
results warm.out > warm.results
cmp -s cold.results warm.results || {
    diff cold.results warm.results >&2 || true
    fail "warm results differ from the cold reference"
}

if [ "$MODE" = "quick" ]; then
    echo "PASS (quick)"
    exit 0
fi

# Kill mid-plan, then resume. A longer 6-point plan against a fresh
# cache; once the first point commits, the process is killed -9. The
# rerun must serve every point committed before the kill from the
# cache and simulate only the rest.
cat > plan2.json << 'EOF'
{
  "mixes": [["mcf-like", "gcc-like"], ["libquantum-like", "h264-like"]],
  "warmup": 2000,
  "cycles": 60000,
  "points": [
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "baseline"}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "hira", "slack_n": 2}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "hira", "slack_n": 4}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "hira", "slack_n": 8}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "rfm"}},
    {"geom": {"capacity_gb": 8.0}, "scheme": {"name": "prac"}}
  ]
}
EOF
export HIRA_RESULT_CACHE="$PWD/kill-cache"
"$SWEEP" --plan plan2.json > killed.out 2> /dev/null &
SPID=$!
for _ in $(seq 1 600); do
    [ "$(points kill-cache)" -ge 1 ] && break
    sleep 0.1
done
[ "$(points kill-cache)" -ge 1 ] || fail "kill: no point ever committed"
kill -9 "$SPID" 2> /dev/null || true
wait "$SPID" 2> /dev/null && fail "kill: the run should have died"
SPID=""
PRE=$(points kill-cache)
[ "$PRE" -lt 6 ] || echo "note: all 6 points finished before the kill"

"$SWEEP" --plan plan2.json > resumed.out
[ "$(field resumed.out points_total)" -eq 6 ] || fail "resume: total != 6"
[ "$(field resumed.out points_cached)" -eq "$PRE" ] || \
    fail "resume served $(field resumed.out points_cached) cached, expected $PRE"
[ "$(field resumed.out points_simulated)" -eq $((6 - PRE)) ] || \
    fail "resume simulated $(field resumed.out points_simulated), expected $((6 - PRE))"
echo "PASS (full)"
