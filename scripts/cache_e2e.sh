#!/usr/bin/env bash
# End-to-end exercise of the content-addressed plan & result cache
# (docs/caching.md):
#
#   1. a cold solo `amp` run populates --cache-dir (plan + result entries);
#   2. a warm run answers from the result cache: amplitude byte-identical,
#      ltns_planner_invocations_total stays 0, the result disk tier
#      records a hit;
#   3. a warm run with --result-cache=0 forces the PLAN tier: the stored
#      plan is rebuilt (plan_disk hit), the contraction re-runs to the
#      same bytes, and the path optimizer is never invoked;
#   4. a DIFFERENT bitstring against the warmed store (result cache off)
#      is a plan_disk hit too — the plan key ignores bit values — and its
#      amplitude matches a cache-less solo run of that bitstring;
#   5. 2-process runs against the same store are byte-identical
#      too (executor and process count are absent from the keys by
#      design);
#   6. a `serve` daemon sharing the store answers a duplicate submission
#      from cache at submit time ("done (served from cache)") and serves
#      a solo-warmed fingerprint without executing anything — the store
#      is shared across transports.
#
# Usage: scripts/cache_e2e.sh [path-to-ltns_cli] [port]
set -euo pipefail

CLI=${1:-build/ltns_cli}
PORT=${2:-39423}
DIR=$(mktemp -d)
# `|| true`: a job that already exited but is still listed makes kill fail,
# and set -e would turn that cleanup race into a failed run.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

CACHE="$DIR/cache"
BITS=010101010
BITS2=101010101

# Pull one metric value out of an ltns.metrics.v1 snapshot (optionally a
# specific {tier=...} series); missing series read as 0.
metric() { # <file> <name> [tier]
  python3 - "$@" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
name, tier = sys.argv[2], (sys.argv[3] if len(sys.argv) > 3 else None)
v = sum(m["value"] for m in d["metrics"]
        if m["name"] == name and (tier is None or m.get("labels", {}).get("tier") == tier))
print(int(v))
EOF
}

echo "== cold solo run (populates the store) =="
"$CLI" gen 3 3 8 5 > "$DIR/c.qc"
"$CLI" --target=4 --cache-dir="$CACHE" --metrics-out="$DIR/cold.json" \
  amp "$DIR/c.qc" $BITS | grep '^amplitude' > "$DIR/cold.txt"
cat "$DIR/cold.txt"
test -n "$(ls "$CACHE/plan")" || { echo "no plan entry written"; exit 1; }
test -n "$(ls "$CACHE/result")" || { echo "no result entry written"; exit 1; }
[ "$(metric "$DIR/cold.json" ltns_planner_invocations_total)" -ge 1 ] \
  || { echo "cold run never invoked the planner?"; exit 1; }
echo "store populated: $(ls "$CACHE/plan" | wc -l) plan, $(ls "$CACHE/result" | wc -l) result entries"

echo "== warm run: result-cache hit, no planning, byte-identical =="
"$CLI" --target=4 --cache-dir="$CACHE" --metrics-out="$DIR/warm.json" \
  amp "$DIR/c.qc" $BITS | grep '^amplitude' | diff "$DIR/cold.txt" -
[ "$(metric "$DIR/warm.json" ltns_planner_invocations_total)" -eq 0 ] \
  || { echo "warm run invoked the planner"; exit 1; }
[ "$(metric "$DIR/warm.json" ltns_cache_hits_total result_disk)" -ge 1 ] \
  || { echo "warm run missed the result disk tier"; exit 1; }
echo "warm run OK: zero planner invocations, result_disk hit"

echo "== warm run, result cache disabled: PLAN tier must carry it =="
"$CLI" --target=4 --cache-dir="$CACHE" --result-cache=0 \
  --metrics-out="$DIR/plan.json" \
  amp "$DIR/c.qc" $BITS | grep '^amplitude' | diff "$DIR/cold.txt" -
[ "$(metric "$DIR/plan.json" ltns_planner_invocations_total)" -eq 0 ] \
  || { echo "plan-tier run invoked the planner"; exit 1; }
[ "$(metric "$DIR/plan.json" ltns_cache_hits_total plan_disk)" -ge 1 ] \
  || { echo "plan-tier run missed the plan disk tier"; exit 1; }
echo "plan-tier run OK: stored plan rebuilt, contraction re-ran to the same bytes"

echo "== other bitstring, result cache disabled: the circuit's plan still hits =="
# Solo baseline for the second bitstring, computed WITHOUT the cache dir.
"$CLI" --target=4 amp "$DIR/c.qc" $BITS2 | grep '^amplitude' > "$DIR/solo2.txt"
"$CLI" --target=4 --cache-dir="$CACHE" --result-cache=0 \
  --metrics-out="$DIR/other.json" \
  amp "$DIR/c.qc" $BITS2 | grep '^amplitude' | diff "$DIR/solo2.txt" -
[ "$(metric "$DIR/other.json" ltns_planner_invocations_total)" -eq 0 ] \
  || { echo "a new bitstring on a planned circuit invoked the planner"; exit 1; }
[ "$(metric "$DIR/other.json" ltns_cache_hits_total plan_disk)" -ge 1 ] \
  || { echo "a new bitstring missed the plan disk tier"; exit 1; }
echo "other-bitstring run OK: one plan per circuit shape, bytes match the solo run"

echo "== 2-process runs against the same store =="
"$CLI" --target=4 --cache-dir="$CACHE" --processes=2 \
  amp "$DIR/c.qc" $BITS | grep '^amplitude' | diff "$DIR/cold.txt" -
"$CLI" --target=4 --cache-dir="$CACHE" --processes=2 --result-cache=0 \
  amp "$DIR/c.qc" $BITS | grep '^amplitude' | diff "$DIR/cold.txt" -
echo "2-process OK: cached result AND cached-plan re-execution byte-identical"

echo "== serve: duplicate submit served from cache, store shared with solo =="
# $BITS2 has a plan in the store but no result (the run above had the
# result cache off), so the daemon's first submission genuinely executes.
"$CLI" serve $PORT --cache-dir="$CACHE" --state-dir="$DIR/state" \
  > "$DIR/server.log" 2>&1 &
SRV=$!
sleep 0.5
"$CLI" worker 127.0.0.1 $PORT > "$DIR/w0.log" 2>&1 &
sleep 0.3

"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS2 --target=4 > "$DIR/sub1.txt"
cat "$DIR/sub1.txt"
grep -q 'served from cache' "$DIR/sub1.txt" \
  && { echo "first submission must NOT be served from cache"; exit 1; }
"$CLI" result 127.0.0.1 $PORT 1 --wait > "$DIR/svc1.txt"
grep '^amplitude' "$DIR/svc1.txt" | diff "$DIR/solo2.txt" -

# Same spec again: short-circuited at submit time, no execution, same bytes.
"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS2 --target=4 > "$DIR/sub2.txt"
cat "$DIR/sub2.txt"
grep -q 'served from cache' "$DIR/sub2.txt" \
  || { echo "duplicate submission was not served from cache"; exit 1; }
"$CLI" result 127.0.0.1 $PORT 2 > "$DIR/svc2.txt"
grep '^amplitude' "$DIR/svc2.txt" | diff "$DIR/solo2.txt" -

# The fingerprint the SOLO runs warmed: served from cache on first sight —
# the store is shared across transports.
"$CLI" submit 127.0.0.1 $PORT "$DIR/c.qc" $BITS --target=4 > "$DIR/sub3.txt"
cat "$DIR/sub3.txt"
grep -q 'served from cache' "$DIR/sub3.txt" \
  || { echo "solo-warmed fingerprint was not served from cache"; exit 1; }
"$CLI" result 127.0.0.1 $PORT 3 > "$DIR/svc3.txt"
grep '^amplitude' "$DIR/svc3.txt" | diff "$DIR/cold.txt" -

"$CLI" status 127.0.0.1 $PORT > "$DIR/status.json"
python3 - "$DIR/status.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["served_from_cache_total"] == 2, d["served_from_cache_total"]
assert "cache" in d, "status JSON has no cache section"
jobs = {j["id"]: j for j in d["jobs"]}
assert all(jobs[i]["state"] == "done" for i in (1, 2, 3)), jobs
print("status OK: served_from_cache_total =", d["served_from_cache_total"])
EOF

"$CLI" shutdown 127.0.0.1 $PORT
wait $SRV
echo "cache e2e PASSED"
