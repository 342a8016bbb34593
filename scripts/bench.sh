#!/usr/bin/env bash
# bench.sh — run the gated benchmark set and compare it against the
# committed baselines (BENCH_pr4.json, the required gate set, plus
# BENCH_pr8.json — columnar-aggregate results — and BENCH_pr9.json,
# which refreshes medians and adds the compiled-engine scale sweep).
# The compiled sweep additionally passes a flatness gate: the
# 1M-preference median must stay within 2x of the 10-preference
# median, independent of any baseline.
#
# BENCH_pr9.json's two BenchmarkQueryEndToEnd entries are the
# exception to "recorded at the 1M default": they were re-recorded at
# CI's parameters after the streamed scan landed (PR 15), so the
# groupby gate compares a 200k-row run against a 200k-row baseline
# and can fail. To refresh them again, and only them:
#
#   BENCH_SHARDED_OBS=200000 go test -run '^$' -bench BenchmarkQueryEndToEnd -benchmem -count 5 . >raw.txt
#   go run ./cmd/benchdiff parse raw.txt   # then splice the two keys into BENCH_pr9.json
#
# Every other entry in that file is still PR 9's full-scale recording
# (ROADMAP item 1 tracks collapsing the three files into one).
#
#   scripts/bench.sh                   # run, then gate against baselines
#   BENCH_BASELINE=1 scripts/bench.sh  # run and (re)write BENCH_pr9.json instead
#
# Environment knobs:
#   BENCH_COUNT        -count for each benchmark (default 5; medians
#                      need several samples)
#   BENCH_SHARDED_OBS  dataset size for BenchmarkShardedQueryEnforce
#                      (default 1000000; CI shrinks it to keep runs fast)
#   BENCH_AGG_OBS      comma-separated dataset sizes for
#                      BenchmarkAggregateSegments (default
#                      1000000,10000000 — the baseline proves the
#                      rollup speedup at 10M; CI runs 1M only and the
#                      10M baseline entries are skipped as supplemental)
#   BENCH_TOLERANCE    allowed median regression percent (default 15)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_COUNT:-5}"
TOLERANCE="${BENCH_TOLERANCE:-15}"
AGG_OBS="${BENCH_AGG_OBS:-1000000,10000000}"
# BENCH_pr4.json is the required gate set; BENCH_pr8.json adds the
# aggregate-segments benchmarks and BENCH_pr9.json supersedes earlier
# medians and adds the compiled-decide sweep (see cmd/benchdiff's
# multi-baseline semantics).
BASELINE_REQUIRED="BENCH_pr4.json"
BASELINE_AGG="BENCH_pr8.json"
BASELINE="BENCH_pr9.json"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT
RAW="$OUT_DIR/bench.txt"

echo "== building benchdiff"
go build -o "$OUT_DIR/benchdiff" ./cmd/benchdiff

echo "== running gated benchmarks (count=$COUNT)"
: >"$RAW"
# Root package: durable ingest + the sharded query/enforce pair, the
# tracing-overhead pair (sampled must stay within tolerance of off),
# and the end-to-end SQL query path (point + group-by shapes).
go test -run '^$' -bench 'BenchmarkObstoreIngestDurable|BenchmarkShardedQueryEnforce|BenchmarkTraceOverhead|BenchmarkQueryEndToEnd' \
	-benchmem -count="$COUNT" -benchtime "${BENCH_TIME:-1s}" . | tee -a "$RAW"
# The compiled-engine scale sweep (10 / 10k / 1M preferences). Worlds
# are cached across -count repetitions, so the million-preference
# registration is paid once; -timeout covers the load phase.
go test -run '^$' -bench 'BenchmarkCompiledDecide' \
	-benchmem -count="$COUNT" -benchtime "${BENCH_TIME:-1s}" -timeout 30m . | tee -a "$RAW"
# The columnar-aggregate pair: row-scan vs rollup occupancy/GROUP BY
# with checksum-asserted result equivalence. Worlds are cached across
# -count repetitions, so the ingest cost is paid once per size.
BENCH_AGG_OBS="$AGG_OBS" go test -run '^$' -bench 'BenchmarkAggregateSegments' \
	-benchmem -count="$COUNT" -benchtime "${BENCH_TIME:-1s}" -timeout 60m . | tee -a "$RAW"
# Stream fanout lives with the core pipeline benchmarks.
go test -run '^$' -bench 'BenchmarkStreamFanout' \
	-benchmem -count="$COUNT" -benchtime "${BENCH_TIME:-1s}" ./internal/core | tee -a "$RAW"
# WAL append is the storage floor everything durable sits on.
go test -run '^$' -bench 'BenchmarkWALAppend' \
	-benchmem -count="$COUNT" -benchtime "${BENCH_TIME:-1s}" ./internal/wal | tee -a "$RAW"

echo "== parsing results"
# BENCH_OUT is the fresh-run JSON (CI uploads it as an artifact);
# BENCH_pr4.json and BENCH_pr8.json stay the committed baselines.
FRESH="${BENCH_OUT:-bench-new.json}"
"$OUT_DIR/benchdiff" parse "$RAW" >"$FRESH"

# The flatness gate runs even in baseline mode: a baseline that is not
# flat must never be committed.
echo "== flatness gate: compiled decide must stay within 2x from 10 to 1M preferences"
"$OUT_DIR/benchdiff" flat -max 2 "$FRESH" \
	'BenchmarkCompiledDecide/prefs=10' \
	'BenchmarkCompiledDecide/prefs=10000' \
	'BenchmarkCompiledDecide/prefs=1000000'

if [[ "${BENCH_BASELINE:-0}" == "1" || ! -f "$BASELINE" ]]; then
	cp "$FRESH" "$BASELINE"
	echo "== baseline written to $BASELINE (no comparison run)"
	exit 0
fi

echo "== comparing against $BASELINE_REQUIRED + $BASELINE_AGG + $BASELINE (tolerance ${TOLERANCE}%)"
"$OUT_DIR/benchdiff" compare -tolerance "$TOLERANCE" "$BASELINE_REQUIRED" "$BASELINE_AGG" "$BASELINE" "$FRESH"
echo "== benchmark gate passed"
