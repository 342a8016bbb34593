#!/bin/sh
# verify.sh — the repo's one-command health check: formatting, vet,
# build, the full test suite under the race detector (with the crash,
# equivalence, hot-log, scoped-memo, eviction-is-invisible, occupancy
# pair-pass and answer-cache, streaming-builder, pooled-decode, request-scanner,
# bound-query-plan and appended-response properties and the rule log's restart, crash,
# erasure and failure tests, the stage clock, the decision ring's
# erasure and the chunked memo, concurrent checkpoints, the
# 36-simulated-day soak and erasure at rest repeated), the micro-benchmark count gate
# (scripts/bench.sh: eleven benchmarks against the one ledger,
# BENCH.json, ≈ 6 min on 2 vCPUs; counts are gated and timings only
# printed, so it reads the same here as in CI) and the
# SLO smoke gate (a real tippersd under a short open-loop workload). The
# steps mirror the test + bench + slo-smoke jobs in .github/workflows/ci.yml
# so a green local run predicts a green CI run; change them together.
# Only CI's eight 30s fuzz smoke runs (SQL parser, segment codec, scope
# compiler, observation codec, request scanner, preference decoder,
# response appenders, resource-document parser) are left out; run one
# by hand with
#   go test -run '^$' -fuzz FuzzDecodeObservation -fuzztime 30s ./internal/obstore/
#   go test -run '^$' -fuzz FuzzDecodeMatchesEncodingJSON -fuzztime 30s ./internal/httpapi/
#   go test -run '^$' -fuzz FuzzDecodePreference -fuzztime 30s ./internal/httpapi/
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

echo "== colstore compaction crash injection against the child's stream + streamed-scan equivalence + eviction-is-invisible property and cold erasure + hour-segment and width-edge layouts against a brute-force walk, shared payloads, the parent-written tier, the streaming builder against the parent's layout and sealed columns without slack at their narrowest width + a segment whose rows lie more than 2⁶³ ns apart read from a time bound + heap per sealed row, compacted as reopened, and the resident-bytes self-report + two scans at once, each visiting only its own subject's rows through its own pooled rows + concurrent checkpoints keep every synced row once + retention rewrites each segment once, records no tombstone and never seals an expired row + a compaction pass allocates about what it seals, through one scratch for its dictionary tables and encode buffer, a subject across a gap held in one string, interleaved buckets sealed at their narrowest and the encode buffer sized exactly (repeated, race) =="
go test -race -count=2 -run 'TestCrashMidCompaction|TestScanMatchesQuery|TestEvictionIsInvisible|TestEvictionRacingReaders|TestCrashBetweenCommitAndEviction|TestDeleteBetweenCommitAndEviction|TestErasureLeavesDisk|TestAttachStoreRefusesMemoryTierOverDurableStore|TestSegmentLayoutMatchesBruteForce|TestSegmentSharesEqualPayloads|TestParentSegmentsReencodeByteForByte|TestOpenParentWrittenTier|TestStreamingBuilderMatchesParentLayout|TestSealedColumnsHaveNoSlack|TestSealedTierHeapPerRow|TestTimeRangeSpansTheWholeClock|TestPooledScanRowsStayWithTheirScan|TestConcurrentCheckpointsKeepEverySyncedRow|TestRetentionRewritesEachSegmentOnce|TestSweepRacingCompactionSealsNoExpiredRow|TestCompactAllocatesWhatItKeeps|TestSubjectAcrossAGapIsOneString|TestInterleavedBucketsSealAtTheirNarrowest|TestEncodedLen' ./internal/colstore/...

echo "== pooled ingest decode leaks nothing across requests, scanner and encoding/json alike, and equal payloads in one body share one map + oversized bodies refused with 413 on every route that reads one, a body of exactly the limit read and one whose read fails answered 400 + the request scanner against encoding/json, its allocations, its intern table and its directory-owned subject strings + appended responses byte-equal to encoding/json and to the reference handlers, no partial body on error, non-finite numbers answer 500 + the preference decoder against encoding/json, its allocations and the key it names, unenforceable writes refused with 400, 422 or 409, the 200's echo equal to the installed rule + the wire trace carries the node's scanned rows, k floor, spaces, table and plan-cache hit (repeated, race) =="
go test -race -count=2 -run 'TestPooledDecodeLeaksNothing|TestOversizedBodyIs413|TestDecodeMatchesEncodingJSON|TestDecodeBatchAllocs|TestBodyPayloadsShareOneMap|TestDecoderTableHoldsNoSubjectIdentifier|TestDecodeResolvesSubjectsToDirectory|TestAppendersMatchEncodingJSON|TestResponsesMatchOracle|TestWriteResponseDropsStreamedRowsOnError|TestNonFiniteAggregateAnswers500|TestWriteJSONRefusesNonFinite|TestPreferenceWritesRefusedAsWritten|TestPreferenceEchoIsInstalled|TestPreferenceRoundTrip|TestDecodePreferenceAllocs|TestDecodePreferenceMatchesEncodingJSON|TestDecodePreferenceNamesTheKey|TestWireTraceCarriesScanAndPlan' ./internal/httpapi/...

echo "== query leak + segment equivalence + one-executor + compact-memo reference and id-width properties + grouped and occupancy sinks against a map-of-maps reference + recycled statement tables fail closed across requesters and a plan decides afresh on every execution + segment dictionary codes mapped to statement ids, never used as them + a plan bound to its shape's cached template equal to a fresh compile, with every literal varied, and one shape sent at once by requesters that differ (repeated, race) =="
go test -race -count=2 -run 'TestQueryNeverLeaksDeniedRows|TestSegmentQueryMatchesRowScan|TestEnvScanAdapterEquivalent|TestGroupedScanAllocsFlat|TestCompactMemoMatchesReference|TestOverrideNotifiesOncePerKeyPerStatement|TestMemoIdsNeverAlias|TestGroupedSinksMatchReference|TestRecycledTablesFailClosed|TestExecuteTwiceDecidesAgain|TestSegmentIdsAreStatementIds|TestBoundPlanMatchesFreshCompile|TestPlanCacheIsolatesRequesters' ./internal/query/...

echo "== compiled-engine equivalence + scoped-memo reference equivalence, owner move and churn across minutes + window classes decide like the naive engine at capture instants, wide domains included, and the memo's one-minute lifetime + recompile-under-churn + incremental-conflict equivalence, conflicts and inboxes against decisions and same-ID rule writers + in-place erasure never streamed, erasure drops the inbox + every stored row streamed in seq order + occupancy miss reference equivalence through the executor's scan, flat allocations over the hot window and sealed segments and concurrent misses that keep their decisions + the occupancy answer cache against ingest, rule changes, retention rules and erasures and for unaligned windows + streamed user request + durable store with the default columnar directory + every read path against one reference, rows judged at their capture times across window edges and the clock moving past retention TTLs + a stream replay served from the memo + capture instants read as UTC in the hot log, sealed and after reopen + a noised row released with one value by every read path, concurrently and after reopen + a durable node's own key file keeps pseudonyms and noise across restarts, and a damaged one refuses the open + the plan cache holds no literal of a forgotten subject + a user read and an occupancy miss decide once per window class, at the request's kind and space (repeated, race) =="
go test -race -count=2 -run 'TestCompiledMatchesNaive|TestScopedMemoMatchesReferences|TestMemoOwnerMove|TestMemoChurnAcrossMinutes|TestClassesDecideLikeNaive|TestClassOfWideDomain|TestWindowedPreference|TestMemoHoldsLiveMinuteOnly' ./internal/enforce/...
go test -race -count=2 -run 'TestEngineRecompileUnderChurn|TestStreamFanoutSharesEngineMemo|TestDerivedOccupancyStreamsWithStoreSeq|TestIncrementalDetectMatchesFull|TestConflictsMatchDecisions|TestConcurrentRuleMutationsConverge|TestSetPreferenceAllocsFlat|TestOccupancyStreamMatchesReference|TestOccupancyMissAllocsFlat|TestConcurrentOccupancyMissesKeepTheirDecisions|TestOccupancyCacheInvalidation|TestUnalignedOccupancyReadIsCached|TestRequestUserStreamMatchesQuery|TestDurableStoreWithoutColumnarDir|TestForgetUserRetainsOverrideCollections|TestForgetUserStreamsNoErasedRow|TestForgetUserDropsInbox|TestEveryStoredRowReachesLiveStreams|TestDeriveRacingIngestStreamsInSeqOrder|TestReadPathsMatchReference|TestOverrideReadsFoldIntoOneEntry|TestStreamReplayHitsMemo|TestCaptureInstantReadsAsUTC|TestNoisedReleaseIsKeyed|TestDurableNodeKeepsItsKey|TestPlanCachePinsNoLiteral|TestReadsDecideOncePerWindowClass' ./internal/core/...

echo "== durable node at rest — a 36-simulated-day soak whose sampled resources plateau and whose WAL holds at most one hour of appends after every commit + a forgotten subject's bytes gone from every file after the next commit (repeated, race) =="
go test -race -count=2 -run 'TestSoakResourcesPlateau|TestForgetUserLeavesNothingAtRest' ./internal/core/...

echo "== rule log — restart keeps preferences over HTTP and in process and across racing checkpoints, SIGKILL right after an acknowledged PUT, torn final frame dropped, damaged middle frame refused, erasure folds the log, a self-folding log stays bounded, a failed append changes nothing and answers 500, its allocations + replay installs rules as logged while new writes that do not resolve or name another user's ID are refused (repeated, race) =="
go test -race -count=2 -run 'TestRuleLogRestartKeepsPreferences|TestRuleLogConcurrentWritersAndCheckpoints|TestRuleLogTornFinalFrameDropped|TestRuleLogCorruptMiddleFrameRefusesOpen|TestForgetUserFoldsRuleLog|TestRuleLogStaysBounded|TestRuleLogWriteFailure|TestSetPreferenceDurableAllocs|TestPreferenceCodecRoundTrip|TestRuleLogReplayInstallsAsLogged|TestWritesResolveNames|TestPreferenceIDStaysWithItsOwner' ./internal/core/...
go test -race -count=2 -run 'TestDeploymentDurableRestartKeepsPreferences|TestDeploymentPreferenceSurvivesSIGKILL' .
go test -race -count=2 -run 'TestRuleLogFailureIs500' ./internal/httpapi/...

echo "== stage clock, one observation per stage per path (ingest's decode, append and encode included) and the stage attributes on a sampled server span, the Server-Timing header's stages equal to the span's + ForgetUser drops the subject's decision traces and leaves the subject in no sampled span + decision memo of handles into distinct decisions: its allocations, its heap per entry, de-duplication that keeps every field, and the memo-free engine under racing writes, minute advances and cap drops (repeated, race) =="
go test -race -count=2 -run 'TestStageClockObservesEachStageOnce' ./internal/core/...
go test -race -count=2 -run 'TestRequestStagesOverHTTP|TestServerTimingMatchesSpan|TestForgetUserDropsDecisionTraces|TestForgetUserLeavesNoSubjectInTraces' ./internal/httpapi/...
go test -race -count=2 -run 'TestMemoInsertAllocs|TestMemoMatchesMemoFreeUnderRace|TestMemoHeapPerEntry|TestMemoDedupKeepsEveryField' ./internal/enforce/...

echo "== service reads through the whole API handler under their allocation ceilings, and a SQL statement lexed, looked up and bound to its shape's template (no race detector, under which sync.Pool drops a quarter of what it is handed) =="
go test -count=1 -run 'TestServiceReadAllocs' .
go test -count=1 -run 'TestQueryShapeBindAllocs' ./internal/query/

echo "== micro-benchmark count gate (eleven benchmarks against BENCH.json; a Go minor version other than the ledger's is refused) =="
./scripts/bench.sh

echo "== SLO smoke gate (open-loop tail latency against a live tippersd) =="
SLO_SMOKE_REPORT="${SLO_SMOKE_REPORT:-/tmp/slo-report.json}" ./scripts/slo_smoke.sh

echo "verify: OK"
