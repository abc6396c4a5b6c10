#!/bin/sh
# End-to-end contract for `bf_lint --json`: run the analyzer over the
# fixture corpus (one seeded violation per rule), and validate the JSON
# document it emits — structural fields, one entry per seeded rule, and
# (when python3 is available) a strict parse. The companion gtest
# (tests/sa_test.cpp, JsonRoundTrip) parses the same document with the
# project's own JSON reader.
#
# usage: sa_json_e2e.sh <bf_lint-binary> <corpus-dir>
set -e

BF_LINT="$1"
CORPUS="$2"
[ -x "$BF_LINT" ] || { echo "no bf_lint binary: $BF_LINT"; exit 2; }
[ -d "$CORPUS" ] || { echo "no corpus dir: $CORPUS"; exit 2; }

OUT_DIR="${TMPDIR:-/tmp}/bf_sa_e2e.$$"
mkdir -p "$OUT_DIR"
trap 'rm -rf "$OUT_DIR"' EXIT
JSON="$OUT_DIR/findings.json"

# The corpus is seeded with violations, so the exit code must be 1
# (findings) — not 0 (clean) and not 2 (usage/IO error).
rc=0
"$BF_LINT" --json "$JSON" "$CORPUS" > "$OUT_DIR/text.out" || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 on seeded corpus, got $rc"; exit 1; }
[ -s "$JSON" ] || { echo "JSON output file is empty"; exit 1; }

# Structural fields of the document.
for field in '"tool": "bf_lint"' '"schema_version": 2' '"files_scanned"' \
             '"suppressed"' '"baselined"' '"findings"'; do
  grep -q "$field" "$JSON" || { echo "missing field: $field"; exit 1; }
done

# One finding per seeded rule.
for rule in pragma-once raw-new raw-delete no-rand float-literal \
            unchecked-parse atomic-write include-cycle layer-dag \
            duplicate-include capture-escape mutable-global lock-order \
            unused-suppression; do
  grep -q "\"rule\": \"$rule\"" "$JSON" || {
    echo "seeded rule missing from JSON: $rule"; exit 1; }
done

# Every finding carries file/line/key/message.
findings=$(grep -c '"rule": ' "$JSON")
for field in '"file": ' '"line": ' '"key": ' '"message": '; do
  n=$(grep -c "$field" "$JSON")
  [ "$n" -eq "$findings" ] || {
    echo "field $field on $n of $findings findings"; exit 1; }
done

# The text rendering and the JSON must agree on the violation count.
text_count=$(sed -n 's/^bf_lint: \([0-9]*\) violation(s).*/\1/p' "$OUT_DIR/text.out")
[ "$findings" = "$text_count" ] || {
  echo "JSON has $findings findings, text reports $text_count"; exit 1; }

# Strict parse when an interpreter is around (CI always has one).
if command -v python3 > /dev/null 2>&1; then
  python3 - "$JSON" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["tool"] == "bf_lint" and doc["schema_version"] == 2
assert doc["files_scanned"] > 0 and len(doc["findings"]) > 0
for f in doc["findings"]:
    assert set(f) == {"file", "line", "rule", "key", "message"}
    assert f["key"].startswith(f["rule"] + "|" + f["file"] + "|")
EOF
fi

# stale-baseline / baseline-format: a baseline with one matching entry
# (justified), one stale entry and one entry missing its justification.
BASE="$OUT_DIR/baseline"
cat > "$BASE" <<'EOF'
raw-new|src/common/banned.cpp|  # seeded fixture violation, grandfathered for this test
no-rand|src/does/not/exist.cpp|  # stale: matches nothing
raw-delete|src/common/banned.cpp|
EOF
rc=0
"$BF_LINT" --baseline "$BASE" --json "$JSON" "$CORPUS" > "$OUT_DIR/text2.out" || rc=$?
[ "$rc" -eq 1 ] || { echo "expected exit 1 with baseline, got $rc"; exit 1; }
grep -q '"rule": "stale-baseline"' "$JSON" || {
  echo "stale baseline entry not reported"; exit 1; }
grep -q '"rule": "baseline-format"' "$JSON" || {
  echo "unjustified baseline entry not reported"; exit 1; }
grep -q '"baselined": 2' "$JSON" || {
  echo "expected 2 baselined findings"; exit 1; }
if grep -q '"rule": "raw-new"' "$JSON"; then
  echo "baselined raw-new finding still present"; exit 1
fi

echo "sa_json_e2e: ok"
