#!/bin/sh
# End-to-end serving test: train + export a bundle with bf_analyze, then
# drive bf_serve over NDJSON covering a cache hit, a miss with LRU
# eviction, a corrupt bundle and an unknown model. Run by ctest as
#   serve_e2e.sh <bf_analyze> <bf_serve>
set -eu

BF_ANALYZE=$1
BF_SERVE=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bf_serve_e2e.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "serve_e2e: FAIL: $1" >&2
  exit 1
}

# --- train once, export three bundles (two good, one corrupted) ---
"$BF_ANALYZE" --workload reduce1 --runs 10 --trees 40 \
    --min 16384 --max 1048576 \
    --export-model "$WORK/reduce1.bfmodel" >/dev/null
cp "$WORK/reduce1.bfmodel" "$WORK/second.bfmodel"
cp "$WORK/reduce1.bfmodel" "$WORK/broken.bfmodel"
# Flip one payload byte near the end of the copy, before the 35-byte
# checksum footer.
SIZE=$(wc -c < "$WORK/broken.bfmodel")
printf 'X' | dd of="$WORK/broken.bfmodel" bs=1 seek=$((SIZE - 60)) \
    conv=notrunc 2>/dev/null

# --- drive the server: hit, miss/evict (cache=1), corrupt, unknown ---
cat > "$WORK/requests" <<'EOF'
{"model":"reduce1","size":65536,"id":1}
{"model":"reduce1","size":131072,"id":2}
{"model":"second","size":65536,"id":3}
{"model":"reduce1","size":65536,"id":4}
{"model":"broken","size":65536,"id":5}
{"model":"ghost","size":65536,"id":6}
{"cmd":"stats"}
EOF
"$BF_SERVE" --model-dir "$WORK" --cache 1 < "$WORK/requests" \
    > "$WORK/replies" || fail "bf_serve exited non-zero"

[ "$(wc -l < "$WORK/replies")" -eq 7 ] || fail "expected 7 reply lines"

line() { sed -n "${1}p" "$WORK/replies"; }

# Requests 1-4: good predictions. Request 2 is a cache hit; request 3
# (cache capacity 1) evicts reduce1; request 4 reloads it.
for n in 1 2 3 4; do
  case "$(line $n)" in
    *'"ok":true'*'"predicted_ms":'*'"grade":"'*) ;;
    *) fail "reply $n is not a good prediction: $(line $n)" ;;
  esac
done
# Identical queries before and after eviction must predict identically.
P1=$(line 1 | sed 's/.*"predicted_ms":\([^,]*\),.*/\1/')
P4=$(line 4 | sed 's/.*"predicted_ms":\([^,]*\),.*/\1/')
[ "$P1" = "$P4" ] || fail "prediction changed across eviction: $P1 vs $P4"

# Request 5: corrupt bundle -> checksum error reply + quarantine.
case "$(line 5)" in
  *'"ok":false'*checksum*) ;;
  *) fail "corrupt bundle was not rejected: $(line 5)" ;;
esac
[ -f "$WORK/broken.bfmodel.quarantined" ] || fail "no quarantine file"
[ ! -f "$WORK/broken.bfmodel" ] || fail "corrupt bundle still in place"

# Request 6: unknown model -> error reply, server keeps going.
case "$(line 6)" in
  *'"ok":false'*) ;;
  *) fail "unknown model did not error: $(line 6)" ;;
esac

# Stats: 5 loads (reduce1, second, reduce1 again after the eviction,
# broken, ghost), 1 hit (request 2), 2 eviction cycles with --cache 1,
# 2 failures, and the failed loads did not evict the good bundle.
case "$(line 7)" in
  *'"hits":1'*'"loads":5'*'"evictions":2'*'"failures":2'*'"resident":["reduce1"]'*) ;;
  *) fail "unexpected stats: $(line 7)" ;;
esac

# --- batch mode: same protocol, per-model grouping on the pool ---
printf '%s\n' \
  '{"model":"reduce1","size":65536,"id":"b1"}' \
  '{"model":"second","size":65536,"id":"b2"}' \
  '{"model":"reduce1","size":131072,"id":"b3"}' \
  | "$BF_SERVE" --model-dir "$WORK" --cache 4 --batch \
  > "$WORK/batch_replies" || fail "batch mode exited non-zero"
[ "$(wc -l < "$WORK/batch_replies")" -eq 3 ] || fail "batch reply count"
grep -c '"ok":true' "$WORK/batch_replies" | grep -qx 3 \
    || fail "batch replies not all ok"
B1=$(sed -n 1p "$WORK/batch_replies" | sed 's/.*"predicted_ms":\([^,]*\),.*/\1/')
[ "$B1" = "$P1" ] || fail "batch prediction differs from streamed: $B1 vs $P1"

# --- bit identity through the CLI: --from-model reprints the same
# numbers the exporting analysis would produce for the same queries ---
"$BF_SERVE" --version >/dev/null || fail "--version failed"
"$BF_ANALYZE" --from-model "$WORK/reduce1.bfmodel" --predict 65536 \
    > "$WORK/from_model" || fail "--from-model failed"
grep -q "trained by blackforest" "$WORK/from_model" \
    || fail "--from-model lost provenance"

echo "serve_e2e: PASS"
