#!/bin/sh
# `bf_analyze --check --repo` over a repository with a corrupt entry:
# fill a reduce1 repository, flip one byte mid-file, then the check must
# report the entry as corrupt, quarantine it and exit 1 without claiming
# that every invariant holds. Run by ctest as
#   analyze_check_corrupt_e2e.sh <bf_analyze>
set -eu

BF_ANALYZE=$1
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bf_check_corrupt.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "analyze_check_corrupt_e2e: FAIL: $1" >&2
  exit 1
}

"$BF_ANALYZE" --workload reduce1 --runs 5 --trees 20 \
    --min 16384 --max 131072 --repo "$WORK" >/dev/null
ENTRY="$WORK/reduce1__gtx580.csv"
[ -f "$ENTRY" ] || fail "the analysis stored no reduce1 entry"
SIZE=$(wc -c < "$ENTRY")
printf '~' | dd of="$ENTRY" bs=1 seek=$((SIZE / 2)) conv=notrunc 2>/dev/null

RC=0
"$BF_ANALYZE" --check --repo "$WORK" > "$WORK/out" 2>&1 || RC=$?
cat "$WORK/out"
[ "$RC" -eq 1 ] || fail "--check exited $RC, want 1"
grep -q 'reduce1 on gtx580: corrupt, quarantined' "$WORK/out" \
    || fail "no corrupt-entry line"
! grep -q 'all counter invariants hold' "$WORK/out" \
    || fail "a corrupt repository passed the check"
[ -f "$ENTRY.quarantined" ] || fail "no quarantine file"
[ ! -f "$ENTRY" ] || fail "corrupt entry still in place"
echo "analyze_check_corrupt_e2e: ok"
