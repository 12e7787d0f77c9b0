#!/usr/bin/env bash
# live_smoke.sh — end-to-end smoke test of the observability plane on a
# real three-node dhnode cluster: start the nodes with -admin and
# -replicas 3, drive traffic through dhctl (put/get/trace/top), scrape
# every admin endpoint (/metrics, /statusz, /healthz, /journalz,
# /doctorz, /debug/pprof), assert the scraped content is sane, check
# `dhctl doctor` passes every paper invariant on the healthy cluster,
# and check `dhctl journal` merges the same deterministic timeline from
# any bootstrap node. Then the crash phase: kill -9 one node and assert
# the survivors absorb its range, repair it from replicas, recover a
# healthy doctor verdict, and keep serving every key. Exits non-zero on
# the first failed assertion.
#
# Usage: scripts/live_smoke.sh   (from the repository root; needs ports
# 17101-17103 and 18101-18103 free on 127.0.0.1)
set -euo pipefail

SEED=424242
NODE1=127.0.0.1:17101
NODE2=127.0.0.1:17102
NODE3=127.0.0.1:17103
ADMIN1=127.0.0.1:18101
ADMIN2=127.0.0.1:18102
ADMIN3=127.0.0.1:18103

workdir=$(mktemp -d)
pids=()
cleanup() {
  # SIGTERM each node: the graceful-leave path (and its telemetry flush)
  # runs on every teardown, so a shutdown regression fails the smoke too.
  for pid in "${pids[@]}"; do
    kill -TERM "$pid" 2>/dev/null || true
  done
  for pid in "${pids[@]}"; do
    wait "$pid" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() { echo "live_smoke: FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$workdir/dhnode" ./cmd/dhnode
go build -o "$workdir/dhctl" ./cmd/dhctl

echo "== start 3-node cluster (replicas=3)"
"$workdir/dhnode" -listen $NODE1 -seed $SEED -admin $ADMIN1 -stabilize 500ms \
  -replicas 3 -rpc-timeout 1s \
  >"$workdir/node1.log" 2>&1 & pids+=($!)
sleep 1
"$workdir/dhnode" -listen $NODE2 -join $NODE1 -seed $SEED -admin $ADMIN2 -stabilize 500ms \
  -replicas 3 -rpc-timeout 1s \
  >"$workdir/node2.log" 2>&1 & pids+=($!)
sleep 1
"$workdir/dhnode" -listen $NODE3 -join $NODE1 -seed $SEED -admin $ADMIN3 -stabilize 500ms \
  -replicas 3 -rpc-timeout 1s \
  >"$workdir/node3.log" 2>&1 & pids+=($!)
# Let the ring close and the tables stabilize at least once.
sleep 2

for log in node1 node2 node3; do
  grep -q "admin plane at" "$workdir/$log.log" \
    || fail "$log did not announce its admin plane ($(cat "$workdir/$log.log"))"
done

echo "== traffic through dhctl"
for i in $(seq 1 20); do
  "$workdir/dhctl" -node $NODE1 -seed $SEED put "key-$i" "val-$i" >/dev/null \
    || fail "put key-$i"
done
for i in 1 7 20; do
  out=$("$workdir/dhctl" -node $NODE2 -seed $SEED get "key-$i")
  case "$out" in
    "val-$i"*) ;;
    *) fail "get key-$i returned: $out" ;;
  esac
done

echo "== dhctl trace prints an actual hop path"
trace=$("$workdir/dhctl" -node $NODE3 -seed $SEED trace key-7)
echo "$trace"
echo "$trace" | grep -q "owner 127.0.0.1:" || fail "trace reports no owner"
# The per-hop table: at least one row, the last one marked owner (or the
# single-row entry+owner), each row carrying a point and a latency.
echo "$trace" | grep -Eq "^[[:space:]]+[0-9]+[[:space:]]+(owner|entry\+owner)[[:space:]]" \
  || fail "trace prints no owner hop row"
echo "$trace" | grep -Eq "ring-ver=[0-9]+" || fail "trace rows carry no ring-ver"

echo "== dhctl top scrapes the whole ring"
top=$("$workdir/dhctl" -node $NODE1 top)
echo "$top"
[ "$(echo "$top" | grep -c "^127.0.0.1:171")" -eq 3 ] \
  || fail "top does not list all 3 nodes"
echo "$top" | grep -q "(no -admin)" && fail "top found a node without its admin address"
echo "$top" | grep -Eq "load: 3 scraped nodes" || fail "top scraped fewer than 3 nodes"

echo "== /healthz"
for a in $ADMIN1 $ADMIN2 $ADMIN3; do
  [ "$(curl -fsS "http://$a/healthz")" = "ok" ] || fail "$a/healthz not ok"
done

echo "== /metrics (Prometheus text)"
metrics=$(curl -fsS "http://$ADMIN1/metrics")
for fam in condisc_p2p_rpc_total condisc_p2p_lookup_hops condisc_p2p_owner_served_total; do
  echo "$metrics" | grep -q "^# TYPE $fam" || fail "/metrics missing family $fam"
done
echo "$metrics" | grep -Eq '^condisc_p2p_rpc_total\{op="put"\} [1-9]' \
  || fail "/metrics: put RPCs were not counted"
echo "$metrics" | grep -Eq '^condisc_p2p_lookup_hops_count [0-9]+' \
  || fail "/metrics: lookup hop histogram has no count"

echo "== /statusz (JSON)"
for a in $ADMIN1 $ADMIN2 $ADMIN3; do
  curl -fsS "http://$a/statusz" >"$workdir/status.json"
  python3 - "$workdir/status.json" <<'PY' || fail "$a/statusz failed validation"
import json, sys
doc = json.load(open(sys.argv[1]))
node, mets = doc["node"], doc["metrics"]
addr = node["addr"]
assert node["state"] == "serving", addr + ": state " + str(node["state"]) + ", want serving"
assert node["repair_queue"] == 0, addr + ": " + str(node["repair_queue"]) + " segments awaiting repair"
assert node["succ"]["Addr"] and node["pred"]["Addr"], addr + ": ring pointers missing"
assert mets["counters"].get('condisc_p2p_rpc_total{op="state"}', 0) > 0, \
    addr + ": no state RPCs counted (top scraped through this node)"
print("  " + addr + ": point=" + str(node["point"]) + " items=" + str(node["items"]) + " ok")
PY
done

echo "== /journalz (flight recorder)"
i=0
for a in $ADMIN1 $ADMIN2 $ADMIN3; do
  i=$((i+1))
  curl -fsS "http://$a/journalz" >"$workdir/journal$i.json"
  python3 - "$workdir/journal$i.json" <<'PY' || fail "$a/journalz failed validation"
import json, sys
doc = json.load(open(sys.argv[1]))
assert "node_id" in doc and "records" in doc, "journal stream shape"
kinds = {r["kind"] for r in doc["records"]}
assert kinds, "journal is empty after churn + traffic"
print("  node " + str(doc["node_id"]) + ": " + str(len(doc["records"]))
      + " records, kinds " + str(sorted(kinds)))
PY
done
# Across the cluster the recorders must have caught the full join handoff
# lifecycle (both joins were fenced, streamed, committed somewhere) and
# the end/succ flips on every node.
python3 - "$workdir"/journal{1,2,3}.json <<'PY' || fail "cluster journals miss the join handoff lifecycle"
import json, sys
kinds = set()
for path in sys.argv[1:]:
    kinds |= {r["kind"] for r in json.load(open(path))["records"]}
for want in ("hand_prepare", "hand_stream", "hand_commit", "end_succ_flip"):
    assert want in kinds, "missing " + want + " in " + str(sorted(kinds))
PY

echo "== /doctorz (live invariant verdicts)"
for a in $ADMIN1 $ADMIN2 $ADMIN3; do
  curl -fsS "http://$a/doctorz" >"$workdir/doctor.json"
  python3 - "$workdir/doctor.json" <<'PY' || fail "$a/doctorz failed validation"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["healthy"], "unhealthy: " + str([v for v in doc["verdicts"] if not v["ok"]])
names = {v["invariant"] for v in doc["verdicts"]}
assert {"degree", "hop_p99", "local_balance"} <= names, "verdicts missing: " + str(names)
print("  healthy, invariants: " + str(sorted(names)))
PY
done

echo "== dhctl doctor exits 0 on the healthy cluster"
doctor_out=$("$workdir/dhctl" -node $NODE1 doctor) || fail "dhctl doctor exited non-zero on a healthy cluster"
echo "$doctor_out"
echo "$doctor_out" | grep -q "verdict: healthy" || fail "dhctl doctor verdict not healthy"
[ "$(echo "$doctor_out" | grep -c "healthy$")" -ge 3 ] || fail "dhctl doctor did not report all 3 nodes healthy"

echo "== dhctl journal merges a deterministic cluster timeline"
"$workdir/dhctl" -node $NODE1 journal >"$workdir/timeline1.txt" || fail "dhctl journal (run 1)"
"$workdir/dhctl" -node $NODE2 journal >"$workdir/timeline2.txt" || fail "dhctl journal (run 2, different bootstrap)"
grep -Eq "records from 3 nodes" "$workdir/timeline1.txt" || fail "dhctl journal did not merge 3 streams"
grep -q "hand_commit" "$workdir/timeline1.txt" || fail "merged timeline misses handoff commits"
# Same cluster, different bootstrap node => identical merged timeline
# (ring-version total order with deterministic tie-breaks, no clocks).
diff "$workdir/timeline1.txt" "$workdir/timeline2.txt" >/dev/null \
  || fail "merged timeline differs across bootstrap nodes"

echo "== /debug/pprof"
curl -fsS "http://$ADMIN1/debug/pprof/cmdline" >/dev/null || fail "pprof cmdline"
curl -fsS "http://$ADMIN1/debug/pprof/goroutine?debug=1" | grep -q goroutine \
  || fail "pprof goroutine dump"

echo "== crash phase: kill -9 node2, survivors absorb + repair"
kill -KILL "${pids[1]}"
wait "${pids[1]}" 2>/dev/null || true
# The survivors' failure detectors must trip (3 consecutive missed
# probes at the 500ms stabilize cadence), absorb the corpse's range, and
# re-materialize it from replicas. Poll until `dhctl doctor` is healthy
# again AND every key is served — the dead node's keys included.
deadline=$((SECONDS + 60))
healed=0
while [ $SECONDS -lt $deadline ]; do
  if "$workdir/dhctl" -node $NODE1 doctor >"$workdir/doctor_crash.txt" 2>/dev/null; then
    all_keys_ok=1
    for i in $(seq 1 20); do
      out=$("$workdir/dhctl" -node $NODE1 -seed $SEED get "key-$i" 2>/dev/null) || { all_keys_ok=0; break; }
      case "$out" in
        "val-$i"*) ;;
        *) all_keys_ok=0; break ;;
      esac
    done
    if [ "$all_keys_ok" = 1 ]; then healed=1; break; fi
  fi
  sleep 1
done
[ "$healed" = 1 ] || fail "cluster did not heal within 60s of kill -9 ($(cat "$workdir/doctor_crash.txt" 2>/dev/null))"
grep -q "verdict: healthy" "$workdir/doctor_crash.txt" \
  || fail "post-crash doctor verdict not healthy"
echo "  all 20 keys served after losing node2 ungracefully"

# The crash must be visible in the observability plane: a crash_absorb
# journal record and a non-zero absorb counter on some survivor.
absorbs=0
for a in $ADMIN1 $ADMIN3; do
  n=$(curl -fsS "http://$a/metrics" | sed -n 's/^condisc_p2p_crash_absorbs_total \([0-9]*\)/\1/p')
  absorbs=$((absorbs + ${n:-0}))
done
[ "$absorbs" -ge 1 ] || fail "no survivor counted a crash absorb"
"$workdir/dhctl" -node $NODE1 journal >"$workdir/timeline_crash.txt" || fail "dhctl journal after crash"
grep -q "crash_absorb" "$workdir/timeline_crash.txt" \
  || fail "merged timeline misses the crash_absorb record"
echo "  crash_absorb journaled, $absorbs absorb(s) counted"

echo "== graceful shutdown flushes telemetry"
kill -TERM "${pids[2]}"
wait "${pids[2]}" 2>/dev/null || true
grep -q "final telemetry snapshot" "$workdir/node3.log" \
  || fail "node3 did not flush telemetry on SIGTERM ($(tail -5 "$workdir/node3.log"))"
pids=("${pids[0]}" "${pids[1]}")

echo "live_smoke: PASS"
