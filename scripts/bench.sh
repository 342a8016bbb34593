#!/usr/bin/env bash
# bench.sh — the micro-benchmark gate. It runs the benchmarks whose
# question bench/ cannot answer and holds them to the one ledger,
# BENCH.json, by bench/'s rule: gate what repeats — allocation and
# decision and segment counts, and their equality along a sweep — and
# print timings.
#
#   scripts/bench.sh          # run, then gate against BENCH.json
#   scripts/bench.sh record   # run, pass the flat gate, rewrite BENCH.json
#
# The parameters are constants, written into every result, and
# `benchdiff compare` refuses a result recorded under others: -cpu pins
# GOMAXPROCS instead of inheriting the host's, and a fixed iteration
# count makes a per-event metric (one memo miss over N events) repeat to
# the digit. FLAT_MAX is derived, not chosen: ten sweeps at HEAD read a
# 1M-vs-10-preference ns/op ratio of 1.50 / 1.94 / 2.84 (min / median /
# max; CHANGES.md, PR 20), the next power of two is 4, and the naive
# engine's linear walk reads 33x from 10 to a mere 1000 users.
set -euo pipefail
cd "$(dirname "$0")/.."
CPU=2 BENCHTIME=100000x COUNT=5 FLAT_MAX=4
FRESH=bench-new.json # CI uploads it as an artifact
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
go build -o "$OUT/benchdiff" ./cmd/benchdiff

{
	echo "go_version: $(go env GOVERSION | cut -d. -f1,2)"
	echo "gomaxprocs: $CPU"
	echo "benchtime: $BENCHTIME"
	echo "count: $COUNT"
	echo "commit: $(git describe --always --dirty 2>/dev/null || echo unknown)"
	# One process per package, packages in turn; -timeout covers
	# registering a million preferences once.
	go test -run '^$' -bench 'BenchmarkCompiledDecide|BenchmarkObstoreIngestDurable|BenchmarkObstoreIngestConcurrent|BenchmarkStreamFanout|BenchmarkColdPointRead|BenchmarkColdHistoryRead|BenchmarkIngestBatchHTTP|BenchmarkRequestUserHTTP|BenchmarkSetPreferenceDurable|BenchmarkGroupedQuery|BenchmarkRetentionMinute' \
		-benchmem -cpu "$CPU" -benchtime "$BENCHTIME" -count "$COUNT" -timeout 30m . ./internal/core
} | tee "$OUT/raw.txt"
"$OUT/benchdiff" parse <"$OUT/raw.txt" >"$FRESH"

echo "== flat: a decision costs the same from 10 to 1,000,000 preferences (ns/op within ${FLAT_MAX}x, counts equal)"
"$OUT/benchdiff" flat -max "$FLAT_MAX" "$FRESH" BenchmarkCompiledDecide/prefs={10,10000,1000000}-"$CPU"

if [[ "${1:-}" == record ]]; then
	cp "$FRESH" BENCH.json
	echo "== BENCH.json recorded; commit it"
	exit 0
fi
echo "== compare: counts against BENCH.json (timings are printed, never judged)"
"$OUT/benchdiff" compare BENCH.json "$FRESH"
echo "== benchmark gate passed"
