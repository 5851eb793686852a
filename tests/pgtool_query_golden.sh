#!/usr/bin/env bash
# `pgtool query` against the serve golden transcripts.
#
# Every query request of tests/data/serve_session.txt (over golden.pgs) and
# serve_multi_{tc,pair}.txt (over golden_v2.pgs) — the malformed and
# unroutable ones included — runs as one `pgtool query <fixture> <line>
# --threads 1` process. Its stdout must be byte-equal to the matching line
# of the .expected transcript (the reply `pgtool serve` sends), with exit 0
# for an ok reply and 1 for an err reply. Then: an in-memory graph answers
# like the snapshot `pgtool build` makes of it, request words that look
# like negative numbers reach the protocol parser, and usage errors exit 2
# with nothing on stdout.
#
# Usage: tests/pgtool_query_golden.sh PGTOOL DATA_DIR
set -u -f

pgtool=$1
data=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failures=0

fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# expect_reply WANT_STATUS WANT_STDOUT ARGS...: run pgtool ARGS, compare
# its exit status and its stdout bytes (WANT_STDOUT plus one newline, or
# nothing when WANT_STDOUT is empty).
expect_reply() {
  local want_status=$1 want=$2
  shift 2
  "$pgtool" "$@" > "$tmp/out" 2> "$tmp/err"
  local status=$?
  if [ -n "$want" ]; then
    printf '%s\n' "$want" > "$tmp/want"
  else
    : > "$tmp/want"
  fi
  if [ "$status" != "$want_status" ]; then
    fail "pgtool $* exited $status, want $want_status: $(head -c 300 "$tmp/err")"
  elif ! cmp -s "$tmp/want" "$tmp/out"; then
    fail "pgtool $* printed '$(cat "$tmp/out")', want '$want'"
  fi
}

# replay SCRIPT EXPECTED FIXTURE: one query process per request line.
replay() {
  local script=$1 expected=$2 fixture=$3
  local -a replies
  mapfile -t replies < "$expected"
  local i=0 line verb reply
  while IFS= read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    reply=${replies[$i]}
    i=$((i + 1))
    verb=${line%% *}
    case "$verb" in help | quit | exit) continue ;; esac  # session verbs
    case "$reply" in
      ok*) expect_reply 0 "$reply" query "$fixture" $line --threads 1 ;;
      *) expect_reply 1 "$reply" query "$fixture" $line --threads 1 ;;
    esac
  done < "$script"
  [ "$i" = "${#replies[@]}" ] || fail "$script has $i requests, $expected ${#replies[@]} replies"
}

replay "$data/serve_session.txt" "$data/serve_session.expected" "$data/golden.pgs"
replay "$data/serve_multi_tc.txt" "$data/serve_multi_tc.expected" "$data/golden_v2.pgs"
replay "$data/serve_multi_pair.txt" "$data/serve_multi_pair.expected" "$data/golden_v2.pgs"

# An in-memory graph sketches what the request reads; the reply equals the
# one served from the snapshot `pgtool build` makes of the same graph.
if "$pgtool" build "$data/golden.el" -o "$tmp/built.pgs" > /dev/null; then
  built=$("$pgtool" query "$tmp/built.pgs" pair jaccard 0 1 2> /dev/null)
  case "$built" in
    ok$'\t'pair$'\t'*) expect_reply 0 "$built" query "$data/golden.el" pair jaccard 0 1 ;;
    *) fail "query over the built snapshot answered '$built'" ;;
  esac
else
  fail "pgtool build $data/golden.el"
fi

# Request words that look like negative numbers belong to the request, not
# to the flag parser: the reply is serve's, ok or err.
for line in "cluster jaccard -0.5" "pair intersection -1 2"; do
  served=$(printf '%s\n' "$line" | "$pgtool" serve "$data/golden.pgs" --threads 1 2> /dev/null)
  case "$served" in
    ok*) expect_reply 0 "$served" query "$data/golden.pgs" $line --threads 1 ;;
    *) expect_reply 1 "$served" query "$data/golden.pgs" $line --threads 1 ;;
  esac
done

# Usage errors: exit 2, usage on stderr, nothing on stdout.
expect_reply 2 "" query "$data/golden.el" tc --threads 0
expect_reply 2 "" query "$data/golden.el" tc --threads -3
expect_reply 2 "" query "$data/golden.pgs" tc --budget 0.5
expect_reply 2 "" query "$data/golden.pgs" tc --seed 7
expect_reply 2 "" query "$data/golden.pgs" help
expect_reply 2 "" query "$data/golden.pgs" metrics
expect_reply 2 "" query "$data/golden.pgs"
expect_reply 2 "" query "$data/golden.pgs" tc --snapshot "$data/golden.pgs"

if [ "$failures" -ne 0 ]; then
  echo "$failures pgtool query check(s) failed" >&2
  exit 1
fi
echo "pgtool query: every reply matches the serve transcripts"
