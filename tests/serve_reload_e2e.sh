#!/bin/sh
# End-to-end hot reload under load: export two bundle variants, start
# bf_serve with the staleness watcher armed, drive measured traffic with
# bf_loadgen while its churn thread hot-swaps the bundle on disk, then
# assert the supervision contract over the wire:
#   - zero dropped connections and zero non-shed errors under churn,
#   - promotions really happened (stats reply),
#   - the same bundle content predicts bit-identically across
#     generations,
#   - pin freezes a generation against the watcher and the reload verb,
#   - a corrupt swap rolls back: old generation keeps serving, the file
#     is quarantined, and the rollback is visible in the stats reply,
#   - SIGTERM still drains to exit 0.
# Run by ctest as
#   serve_reload_e2e.sh <bf_analyze> <bf_serve> <bf_loadgen>
set -eu

BF_ANALYZE=$1
BF_SERVE=$2
BF_LOADGEN=$3
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bf_reload_e2e.XXXXXX")
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "serve_reload_e2e: FAIL: $1" >&2
  [ -f "$WORK/serve.log" ] && cat "$WORK/serve.log" >&2
  exit 1
}

oneshot() {
  "$BF_LOADGEN" --socket "$SOCK" --oneshot "$1"
}

# Poll the stats reply until it matches a pattern (the watcher period is
# 50ms; give it ten seconds).
wait_stats() {
  tries=0
  until oneshot '{"cmd":"stats"}' | grep -q "$1"; do
    tries=$((tries + 1))
    [ "$tries" -gt 100 ] && fail "stats never matched $1: $(oneshot '{"cmd":"stats"}' || true)"
    sleep 0.1
  done
}

predicted_ms() {
  printf '%s' "$1" | sed 's/.*"predicted_ms":\([^,]*\),.*/\1/'
}

# --- export two genuinely different bundle generations ---
"$BF_ANALYZE" --workload reduce1 --runs 8 --trees 30 \
    --min 16384 --max 1048576 \
    --export-model "$WORK/gen_a.bfmodel" >/dev/null
"$BF_ANALYZE" --workload reduce1 --runs 10 --trees 30 \
    --min 16384 --max 1048576 \
    --export-model "$WORK/gen_b.bfmodel" >/dev/null
cmp -s "$WORK/gen_a.bfmodel" "$WORK/gen_b.bfmodel" \
    && fail "bundle variants are identical"
CK_A=$(tail -1 "$WORK/gen_a.bfmodel" | sed -n 's/^#checksum,fnv1a64,//p')
CK_B=$(tail -1 "$WORK/gen_b.bfmodel" | sed -n 's/^#checksum,fnv1a64,//p')
[ -n "$CK_A" ] && [ -n "$CK_B" ] || fail "cannot read bundle checksums"
cp "$WORK/gen_a.bfmodel" "$WORK/reduce1.bfmodel"

# --- start the server with the staleness watcher armed ---
SOCK="$WORK/bf.sock"
"$BF_SERVE" --model-dir "$WORK" --socket "$SOCK" --reload-watch-ms 50 \
    --max-queue 64 --timeout-ms 10000 --drain-ms 3000 \
    2>"$WORK/serve.log" &
SERVE_PID=$!
tries=0
while [ ! -S "$SOCK" ]; do
  tries=$((tries + 1))
  [ "$tries" -gt 100 ] && fail "server never bound $SOCK"
  kill -0 "$SERVE_PID" 2>/dev/null || fail "server died during startup"
  sleep 0.1
done

# --- baseline: generation 1 serves variant A ---
R0=$(oneshot '{"model":"reduce1","size":65536}') \
    || fail "baseline predict failed"
case "$R0" in
  *'"generation":1,'*) ;;
  *) fail "baseline is not generation 1: $R0" ;;
esac
P_A=$(predicted_ms "$R0")

# --- measured traffic while the churn thread hot-swaps the bundle ---
BENCH="$WORK/BENCH_serve.json"
"$BF_LOADGEN" --socket "$SOCK" --model reduce1 \
    --requests 300 --conns 4 --qps 400 --seed 7 \
    --reload-churn 100 --churn-file "$WORK/reduce1.bfmodel" \
    --churn-src "$WORK/gen_a.bfmodel,$WORK/gen_b.bfmodel" \
    --out "$BENCH" >/dev/null || fail "loadgen failed under churn"
[ -f "$BENCH" ] || fail "BENCH_serve.json was not written"

check() {
  grep -q "$1" "$BENCH" || fail "BENCH_serve.json lacks $1 ($(cat "$BENCH"))"
}
# The reload contract under load: every request answered, none dropped,
# none failed — a promotion must never surface as client-visible errors.
check '"ok":300'
check '"no_reply":0'
check '"error_fraction":0[,.}]'
check '"shed_fraction":0[,.}]'
check '"churn":{"period_ms":100'
grep -q '"churns":0' "$BENCH" && fail "churn thread never rewrote the bundle"

kill -0 "$SERVE_PID" 2>/dev/null || fail "server died under churn"
STATS=$(oneshot '{"cmd":"stats"}') || fail "stats failed after churn"
case "$STATS" in
  *'"promotions":0'*) fail "watcher promoted nothing under churn: $STATS" ;;
esac

# Replace the served bundle the way atomic_write_file and the loadgen
# churn thread do: copy to a temp name, then rename over the target, so
# the staleness watcher never reads a half-written bundle.
swap_bundle() {
  cp "$1" "$WORK/reduce1.bfmodel.tmp"
  mv "$WORK/reduce1.bfmodel.tmp" "$WORK/reduce1.bfmodel"
}

# --- per-generation bit identity: restoring variant A must reproduce
# the generation-1 prediction exactly, however many swaps later ---
swap_bundle "$WORK/gen_a.bfmodel"
wait_stats "\"checksum\":\"$CK_A\""
R1=$(oneshot '{"model":"reduce1","size":65536}') \
    || fail "predict after churn failed"
[ "$(predicted_ms "$R1")" = "$P_A" ] \
    || fail "variant A predicts differently across generations: $R1"

# --- pin freezes the generation against watcher and reload verb ---
RPIN=$(oneshot '{"cmd":"pin","model":"reduce1"}') || fail "pin verb failed"
case "$RPIN" in
  *'"resident":true'*) ;;
  *) fail "pin did not confirm residency: $RPIN" ;;
esac
swap_bundle "$WORK/gen_b.bfmodel"
RRELOAD=$(oneshot '{"cmd":"reload","model":"reduce1"}') \
    || fail "reload verb failed while pinned"
case "$RRELOAD" in
  *'"status":"pinned"'*) ;;
  *) fail "pinned model accepted a reload: $RRELOAD" ;;
esac
sleep 0.3  # several watcher periods: the pin must hold against polling
oneshot '{"cmd":"stats"}' | grep -q "\"checksum\":\"$CK_A\"" \
    || fail "watcher replaced a pinned model"
oneshot '{"cmd":"unpin","model":"reduce1"}' >/dev/null \
    || fail "unpin verb failed"
# Unpinned, the pending variant B promotes (watcher or explicit verb).
wait_stats "\"checksum\":\"$CK_B\""
R2=$(oneshot '{"model":"reduce1","size":65536}') || fail "predict B failed"
P_B=$(predicted_ms "$R2")

# --- corrupt swap: rollback, quarantine, old generation keeps serving ---
STATS=$(oneshot '{"cmd":"stats"}') || fail "stats failed before corruption"
GEN_BEFORE=$(printf '%s' "$STATS" \
    | sed -n 's/.*"models":\[{[^}]*"generation":\([0-9]*\).*/\1/p')
[ -n "$GEN_BEFORE" ] || fail "cannot read generation from stats: $STATS"
SIZE=$(wc -c < "$WORK/reduce1.bfmodel")
printf '\001' | dd of="$WORK/reduce1.bfmodel" bs=1 seek=$((SIZE - 20)) \
    conv=notrunc 2>/dev/null
wait_stats '"rollbacks":[1-9]'
[ -f "$WORK/reduce1.bfmodel.quarantined" ] \
    || fail "corrupt swap was not quarantined"
[ ! -f "$WORK/reduce1.bfmodel" ] || fail "corrupt bundle still in place"
STATS=$(oneshot '{"cmd":"stats"}') || fail "stats failed after rollback"
case "$STATS" in
  *"\"generation\":$GEN_BEFORE"*) ;;
  *) fail "rollback changed the serving generation: $STATS" ;;
esac
R3=$(oneshot '{"model":"reduce1","size":65536}') \
    || fail "predict after rollback failed"
[ "$(predicted_ms "$R3")" = "$P_B" ] \
    || fail "rollback changed the served prediction: $R3"

# --- graceful drain still works with the watcher thread running ---
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
[ "$rc" -eq 0 ] || fail "drain exited $rc, want 0"
SERVE_PID=""

echo "serve_reload_e2e: OK"
