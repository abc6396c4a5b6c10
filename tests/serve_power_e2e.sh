#!/bin/sh
# End-to-end power serving test: export one bundle with the optional
# power record (--power --export-model) and one without, then drive
# bf_serve and check that replies carry power_w/energy_j/power_grade
# exactly when the bundle does, and that stats advertises the record;
# finally answer from the powered bundle with --from-model --power-json
# and check the power report file. Run by ctest as
#   serve_power_e2e.sh <bf_analyze> <bf_serve>
set -eu

BF_ANALYZE=$1
BF_SERVE=$2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bf_power_e2e.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "serve_power_e2e: FAIL: $1" >&2
  exit 1
}

# --- export: one powered bundle, one time-only bundle ---
"$BF_ANALYZE" --workload reduce1 --runs 10 --trees 40 \
    --min 16384 --max 1048576 --power \
    --export-model "$WORK/powered.bfmodel" > "$WORK/analyze_out" \
    || fail "bf_analyze --power --export-model exited non-zero"
grep -q "energy bottlenecks" "$WORK/analyze_out" \
    || fail "--power did not print an energy bottleneck ranking"
"$BF_ANALYZE" --workload reduce1 --runs 10 --trees 40 \
    --min 16384 --max 1048576 --no-power \
    --export-model "$WORK/plain.bfmodel" >/dev/null \
    || fail "bf_analyze --no-power --export-model exited non-zero"

# --- drive the server over both bundles ---
cat > "$WORK/requests" <<'EOF'
{"model":"powered","size":65536,"id":1}
{"model":"plain","size":65536,"id":2}
{"cmd":"stats"}
EOF
"$BF_SERVE" --model-dir "$WORK" < "$WORK/requests" > "$WORK/replies" \
    || fail "bf_serve exited non-zero"
[ "$(wc -l < "$WORK/replies")" -eq 3 ] || fail "expected 3 reply lines"

line() { sed -n "${1}p" "$WORK/replies"; }

# Reply 1: a good prediction carrying the power fields.
case "$(line 1)" in
  *'"ok":true'*'"predicted_ms":'*'"power_w":'*'"energy_j":'*'"power_grade":"'*) ;;
  *) fail "powered reply lacks power fields: $(line 1)" ;;
esac

# Reply 2: still a good prediction, but with no power fields at all.
case "$(line 2)" in
  *'"power_w"'*) fail "powerless reply leaked power fields: $(line 2)" ;;
  *'"ok":true'*'"predicted_ms":'*) ;;
  *) fail "powerless reply is not a good prediction: $(line 2)" ;;
esac

# Stats: the registry advertises which bundle carries the power record.
case "$(line 3)" in
  *'"name":"powered"'*'"power":true'*) ;;
  *) fail "stats does not flag the powered bundle: $(line 3)" ;;
esac
case "$(line 3)" in
  *'"name":"plain"'*'"power":false'*) ;;
  *) fail "stats does not flag the plain bundle: $(line 3)" ;;
esac

# --- the trained-once path writes the same power report as training ---
"$BF_ANALYZE" --from-model "$WORK/powered.bfmodel" --predict 65536 \
    --predict 131072 --power-json "$WORK/power.json" > "$WORK/from_model" \
    || fail "--from-model --power-json exited non-zero"
[ -s "$WORK/power.json" ] || fail "--from-model ignored --power-json"
[ "$(grep -c '"power_w": ' "$WORK/power.json")" -eq 2 ] \
    || fail "power report lacks one row per size: $(cat "$WORK/power.json")"
grep -q '"energy_j": ' "$WORK/power.json" \
    || fail "power report lacks energy_j"
grep -q "power report written to" "$WORK/from_model" \
    || fail "--from-model did not announce the power report"

echo "serve_power_e2e: PASS"
