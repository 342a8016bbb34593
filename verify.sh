#!/bin/sh
# verify.sh — the repo's one-command health check: formatting, vet,
# build, the full test suite under the race detector (with the crash,
# equivalence, hot-log, scoped-memo, eviction-is-invisible, occupancy
# pair-pass and answer-cache, streaming-builder, pooled-decode, request-scanner
# and appended-response properties and the rule log's restart, crash,
# erasure and failure tests, the stage clock, the decision ring's
# erasure and the chunked memo, concurrent checkpoints, the
# 36-simulated-day soak and erasure at rest repeated), the micro-benchmark count gate
# (scripts/bench.sh: eleven benchmarks against the one ledger,
# BENCH.json, ≈ 6 min on 2 vCPUs; counts are gated and timings only
# printed, so it reads the same here as in CI) and the
# SLO smoke gate (a real tippersd under a short open-loop workload). The
# steps mirror the test + bench + slo-smoke jobs in .github/workflows/ci.yml
# so a green local run predicts a green CI run; change them together.
# Only CI's seven 30s fuzz smoke runs (SQL parser, segment codec, scope
# compiler, observation codec, request scanner, response appenders,
# resource-document parser) are left out; run one by hand with
#   go test -run '^$' -fuzz FuzzDecodeObservation -fuzztime 30s ./internal/obstore/
#   go test -run '^$' -fuzz FuzzDecodeMatchesEncodingJSON -fuzztime 30s ./internal/httpapi/
#   go test -run '^$' -fuzz FuzzParseResourceDocument -fuzztime 30s ./internal/policy/
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== wal recovery incl. crash injection (repeated, race) =="
go test -race -run 'TestWALRecovery|TestWALCrash' -count=2 ./internal/wal/...

echo "== stream + obstore hot log, an evicted log's lists sized from the log it replaced and no hot-log key left for an erased subject + telemetry tracing (repeated, race) =="
go test -race -count=2 ./internal/stream/... ./internal/obstore/... ./internal/telemetry/...

echo "== stream disconnect-then-resume + resume splice under concurrent ingest (200x, race) =="
go test -race -count=200 -run 'TestDisconnectPolicyThenResume$|TestResumeSpliceUnderConcurrentIngest$' ./internal/stream/

echo "== colstore compaction crash injection against the child's stream + streamed-scan equivalence + eviction-is-invisible property and cold erasure + hour-segment layout against a brute-force walk, shared payloads, the parent-written tier, the streaming builder against the parent's layout and sealed columns without slack + concurrent checkpoints keep every synced row once + retention rewrites each segment once, records no tombstone and never seals an expired row (repeated, race) =="
go test -race -count=2 -run 'TestCrashMidCompaction|TestScanMatchesQuery|TestEvictionIsInvisible|TestEvictionRacingReaders|TestCrashBetweenCommitAndEviction|TestDeleteBetweenCommitAndEviction|TestErasureLeavesDisk|TestAttachStoreRefusesMemoryTierOverDurableStore|TestSegmentLayoutMatchesBruteForce|TestSegmentSharesEqualPayloads|TestParentSegmentsReencodeByteForByte|TestOpenParentWrittenTier|TestStreamingBuilderMatchesParentLayout|TestSealedColumnsHaveNoSlack|TestConcurrentCheckpointsKeepEverySyncedRow|TestRetentionRewritesEachSegmentOnce|TestSweepRacingCompactionSealsNoExpiredRow' ./internal/colstore/...

echo "== pooled ingest decode leaks nothing across requests, scanner and encoding/json alike, and equal payloads in one body share one map + oversized bodies refused with 413 + the request scanner against encoding/json, its allocations, its intern table and its directory-owned subject strings + appended responses byte-equal to encoding/json and to the reference handlers, no partial body on error, non-finite numbers answer 500 (repeated, race) =="
go test -race -count=2 -run 'TestPooledDecodeLeaksNothing|TestOversizedBodyIs413|TestDecodeMatchesEncodingJSON|TestDecodeBatchAllocs|TestBodyPayloadsShareOneMap|TestDecoderTableHoldsNoSubjectIdentifier|TestDecodeResolvesSubjectsToDirectory|TestAppendersMatchEncodingJSON|TestResponsesMatchOracle|TestWriteResponseDropsStreamedRowsOnError|TestNonFiniteAggregateAnswers500|TestWriteJSONRefusesNonFinite' ./internal/httpapi/...

echo "== query leak + segment equivalence + one-executor + compact-memo reference and id-width properties + grouped and occupancy sinks against a map-of-maps reference + recycled statement tables fail closed across requesters and a plan decides afresh on every execution (repeated, race) =="
go test -race -count=2 -run 'TestQueryNeverLeaksDeniedRows|TestSegmentQueryMatchesRowScan|TestEnvScanAdapterEquivalent|TestGroupedScanAllocsFlat|TestCompactMemoMatchesReference|TestOverrideNotifiesOncePerKeyPerStatement|TestMemoIdsNeverAlias|TestGroupedSinksMatchReference|TestRecycledTablesFailClosed|TestExecuteTwiceDecidesAgain' ./internal/query/...

echo "== compiled-engine equivalence + scoped-memo reference equivalence, owner move and churn across minutes + window classes decide like the naive engine at capture instants, wide domains included, and the memo's one-minute lifetime + recompile-under-churn + incremental-conflict equivalence, conflicts and inboxes against decisions and same-ID rule writers + in-place erasure never streamed, erasure drops the inbox + every stored row streamed in seq order + occupancy pair-pass reference equivalence, flat allocations over the hot window and sealed segments and pooled-decision isolation + the occupancy answer cache against ingest, rule changes, retention rules and erasures and for unaligned windows + streamed user request + durable store with the default columnar directory + every read path against one reference, rows judged at their capture times across window edges and the clock moving past retention TTLs + a stream replay served from the memo + capture instants read as UTC in the hot log, sealed and after reopen + a noised row released with one value by every read path, concurrently and after reopen (repeated, race) =="
go test -race -count=2 -run 'TestCompiledMatchesNaive|TestScopedMemoMatchesReferences|TestMemoOwnerMove|TestMemoChurnAcrossMinutes|TestClassesDecideLikeNaive|TestClassOfWideDomain|TestWindowedPreference|TestMemoHoldsLiveMinuteOnly' ./internal/enforce/...
go test -race -count=2 -run 'TestEngineRecompileUnderChurn|TestStreamFanoutSharesEngineMemo|TestDerivedOccupancyStreamsWithStoreSeq|TestIncrementalDetectMatchesFull|TestConflictsMatchDecisions|TestConcurrentRuleMutationsConverge|TestSetPreferenceAllocsFlat|TestOccupancyStreamMatchesReference|TestOccupancyMissAllocsFlat|TestConcurrentOccupancyMissesKeepTheirDecisions|TestOccupancyCacheInvalidation|TestUnalignedOccupancyReadIsCached|TestRequestUserStreamMatchesQuery|TestDurableStoreWithoutColumnarDir|TestForgetUserRetainsOverrideCollections|TestForgetUserStreamsNoErasedRow|TestForgetUserDropsInbox|TestEveryStoredRowReachesLiveStreams|TestDeriveRacingIngestStreamsInSeqOrder|TestReadPathsMatchReference|TestOverrideReadsFoldIntoOneEntry|TestStreamReplayHitsMemo|TestCaptureInstantReadsAsUTC|TestNoisedReleaseIsKeyed' ./internal/core/...

echo "== durable node at rest — a 36-simulated-day soak whose sampled resources plateau and whose WAL holds at most one hour of appends after every commit + a forgotten subject's bytes gone from every file after the next commit (repeated, race) =="
go test -race -count=2 -run 'TestSoakResourcesPlateau|TestForgetUserLeavesNothingAtRest' ./internal/core/...

echo "== rule log — restart keeps preferences over HTTP and in process and across racing checkpoints, SIGKILL right after an acknowledged PUT, torn final frame dropped, damaged middle frame refused, erasure folds the log, a self-folding log stays bounded, a failed append changes nothing and answers 500, its allocations (repeated, race) =="
go test -race -count=2 -run 'TestRuleLogRestartKeepsPreferences|TestRuleLogConcurrentWritersAndCheckpoints|TestRuleLogTornFinalFrameDropped|TestRuleLogCorruptMiddleFrameRefusesOpen|TestForgetUserFoldsRuleLog|TestRuleLogStaysBounded|TestRuleLogWriteFailure|TestSetPreferenceDurableAllocs|TestPreferenceCodecRoundTrip' ./internal/core/...
go test -race -count=2 -run 'TestDeploymentDurableRestartKeepsPreferences|TestDeploymentPreferenceSurvivesSIGKILL' .
go test -race -count=2 -run 'TestRuleLogFailureIs500' ./internal/httpapi/...

echo "== stage clock, one observation per stage per path (ingest's decode, append and encode included) and the stage attributes on a sampled server span, the Server-Timing header's stages equal to the span's + ForgetUser drops the subject's decision traces and leaves the subject in no sampled span + chunked decision memo, its allocations and the memo-free engine under racing writes, minute advances and cap drops (repeated, race) =="
go test -race -count=2 -run 'TestStageClockObservesEachStageOnce' ./internal/core/...
go test -race -count=2 -run 'TestRequestStagesOverHTTP|TestServerTimingMatchesSpan|TestForgetUserDropsDecisionTraces|TestForgetUserLeavesNoSubjectInTraces' ./internal/httpapi/...
go test -race -count=2 -run 'TestMemoInsertAllocs|TestMemoMatchesMemoFreeUnderRace' ./internal/enforce/...

echo "== micro-benchmark count gate (eleven benchmarks against BENCH.json; a Go minor version other than the ledger's is refused) =="
./scripts/bench.sh

echo "== SLO smoke gate (open-loop tail latency against a live tippersd) =="
SLO_SMOKE_REPORT="${SLO_SMOKE_REPORT:-/tmp/slo-report.json}" ./scripts/slo_smoke.sh

echo "verify: OK"
