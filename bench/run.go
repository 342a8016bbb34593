package main

// One benchmark run: setup -> measured phase -> quiesce -> restart
// phase, with tracing off (the end-to-end metrics); or, traced, an
// untraced and a traced pass over the same op list (the per-layer
// metrics and the tracing overhead between them).

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/tippers/tippers/internal/telemetry"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	dataDir  string // parent of the run's data directory
	outDir   string // where a traced run writes its spans
}

// result is one run: its parameters, what the seed made of them, and
// the metrics.
type result struct {
	Params params `json:"params"`
	run1
	Failure string `json:"first_failure,omitempty"`
	// Notes are per-metric remarks for the human report (which
	// percentile a tail is, sample counts).
	Notes map[string]string `json:"notes,omitempty"`
}

// run1 is the per-run part of a result: several of them share one
// params in a result file.
type run1 struct {
	Seed   int64  `json:"seed"`
	OpList string `json:"op_list_sha256"`
	// OpCounts are the measured ops by kind. They follow from the
	// params alone except on ingest-durable, where a simulated day's
	// length varies a little with the seed.
	OpCounts  map[string]int   `json:"op_counts"`
	ClientOps int              `json:"client_ops"`
	WarmupOps int              `json:"warmup_ops"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

const (
	probeRequests = 500
	setupRepeats  = 3
)

func run(cfg runConfig) (*result, error) {
	seconds := cfg.seconds
	if cfg.trace {
		// Two passes share the run's time budget.
		seconds = max(seconds/2, 1)
	}
	sz := sizeFor(cfg.workload, seconds, cfg.quick)
	w, err := newWorld(cfg.seed, sz.Population)
	if err != nil {
		return nil, err
	}
	ops, warm, err := generate(w, cfg.workload, sz)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dataDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	res := &result{
		run1: run1{
			Seed: cfg.seed, OpList: opListHash(ops), WarmupOps: warm,
			OpCounts: make(map[string]int), Metrics: make(map[string]value),
		},
		Notes: make(map[string]string),
		Params: params{
			Workload: cfg.workload, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
			sizing: sz, DatasetSeed: datasetSeed,
			BatchSize: batchSize, ZipfS: zipfS, VerifyEvery: verifyEvery,
			ProbeRequests: probeRequests, SetupRepeats: setupRepeats,
			Engine: engineFlavor, WALSync: walSync.String(), TraceSampleOne: telemetry.DefaultSampleOneIn,
			GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: cpuModel(),
			DataDirFS: fsType(dir), Commit: commit(),
		},
	}
	if cfg.quick || cfg.trace {
		res.Params.SetupRepeats = 1
	}
	for i := range ops[warm:] {
		k := ops[warm+i].kind
		res.OpCounts[k.String()]++
		if !k.maintenance() {
			res.ClientOps++
		}
	}
	installs := w.installs(sz.PrefsPerUser)
	if cfg.trace {
		err = runTraced(cfg, res, w, sz, installs, ops, warm, dir)
	} else {
		_, err = endToEnd(res, w, sz, installs, ops, warm, dir)
	}
	for name, v := range res.Metrics {
		v.Unit = unitOf[name]
		res.Metrics[name] = v
	}
	return res, err
}

// usage is the process's CPU time and peak resident set.
func usage() (cpu time.Duration, peakRSS float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports kB
}

// pass is one measured pass with the process-level deltas around it.
type pass struct {
	st          *passStats
	cpu         time.Duration
	mem0, mem1  runtime.MemStats
	diskBytes   int64
	liveObs     int
	counters    map[string]float64 // registry deltas over the measured phase
	segments    int
	segBytes    int64
	pruneShare  float64
	detectCalls float64
}

var deltaCounters = []struct {
	name   string
	labels telemetry.Labels
}{
	{"tippers_wal_fsyncs_total", nil},
	{"tippers_wal_appended_bytes_total", nil},
	{"tippers_core_requests_decided_total", nil},
	{"tippers_enforce_cache_hits_total", nil},
	{"tippers_enforce_cache_misses_total", nil},
	{"tippers_reasoner_conflicts_total", telemetry.Labels{"kind": "policy-vs-preference"}},
	{"tippers_reasoner_conflicts_total", telemetry.Labels{"kind": "preference-vs-preference"}},
	{"tippers_colstore_segments_pruned_total", nil},
	{"tippers_colstore_segments_read_total", nil},
}

func (n *node) snapshot() (map[string]float64, float64) {
	out := make(map[string]float64, len(deltaCounters))
	for _, c := range deltaCounters {
		out[c.name] += n.counter(c.name, c.labels)
	}
	var detects float64
	if h, ok := n.dep.BMS.Metrics().LookupHistogram("tippers_reasoner_detect_seconds", nil); ok {
		detects = float64(h.Snapshot().Count)
	}
	return out, detects
}

// measure runs the measured ops on a set-up node, verifies them, and
// quiesces the node: final compaction and checkpoint with every bucket
// closed. The CPU and allocation deltas bracket the ops alone; the
// driver does nothing inside them but serve (see drive.go), and
// verification runs once they are read.
func measure(n *node, d *driver, measured []op, base int) (*pass, error) {
	p := &pass{}
	runtime.GC()
	before, detects0 := n.snapshot()
	runtime.ReadMemStats(&p.mem0)
	cpu0, _ := usage()
	st, err := d.run(measured, base)
	cpu1, _ := usage()
	runtime.ReadMemStats(&p.mem1)
	if err != nil {
		return nil, err
	}
	p.st, p.cpu = st, cpu1-cpu0
	after, detects1 := n.snapshot()
	p.counters = make(map[string]float64, len(after))
	for k, v := range after {
		p.counters[k] = v - before[k]
	}
	p.detectCalls = detects1 - detects0
	if err := d.verifyPass(measured, st); err != nil {
		return nil, err
	}

	last := measured[len(measured)-1].at
	n.clock.Set(last.Truncate(24*time.Hour).AddDate(0, 0, 1))
	if _, err := n.dep.BMS.Columnar().CompactOnce(); err != nil {
		return nil, fmt.Errorf("final compaction: %w", err)
	}
	if err := n.dep.BMS.Store().Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	stats := n.dep.BMS.Columnar().Stats()
	p.segments, p.segBytes = stats.Segments, stats.Bytes
	p.pruneShare = ratio(p.counters["tippers_colstore_segments_pruned_total"],
		p.counters["tippers_colstore_segments_pruned_total"]+p.counters["tippers_colstore_segments_read_total"])
	p.liveObs = n.dep.BMS.Store().Len()
	if p.diskBytes, err = dirBytes(n.dir); err != nil {
		return nil, err
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd is the part every run makes, traced or not: setup, the
// measured pass with tracing off, quiesce, and the restart phase. It
// sets the gated end-to-end metrics and the whole-node timings, and
// returns the pass for the per-layer counts.
func endToEnd(res *result, w *world, sz sizing, installs, ops []op, warm int, dir string) (*pass, error) {
	set := func(name string, v float64) { res.Metrics[name] = value{Value: v} }

	warmup, measured := ops[:warm:warm], ops[warm:]
	t0 := time.Now()
	n, d, err := setup(filepath.Join(dir, "node"), w, sz, installs, warmup, false)
	if err != nil {
		return nil, err
	}
	setups := []float64{time.Since(t0).Seconds()}
	if err := d.buildOracle(installs, warmup); err != nil {
		n.close()
		return nil, err
	}
	p, err := measure(n, d, measured, warm)
	if err != nil {
		n.close()
		return nil, err
	}
	st := p.st
	// heap_live_mb is the node's, not the op list's: keep only the
	// warm-up ops, which the repeated setups below run again. (A traced
	// run still holds the list for its second pass; it does not report
	// the metric.)
	warmup = append([]op(nil), warmup...)
	ops, measured = nil, nil
	runtime.GC()
	var quiet runtime.MemStats
	runtime.ReadMemStats(&quiet)
	_, rss := usage()

	probes := genProbes(w)
	n, matched, recovery, err := restart(n, d, w, sz, probes, st)
	if err != nil {
		return nil, err
	}
	n.close()

	for i := 1; i < res.Params.SetupRepeats; i++ {
		runtime.GC()
		again := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		n, _, err := setup(again, w, sz, installs, warmup, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		n.close()
		if err := os.RemoveAll(again); err != nil {
			return nil, err
		}
	}

	opsN := float64(st.clientOps)
	set("setup_s", median(setups))
	set("allocs_per_op", float64(p.mem1.Mallocs-p.mem0.Mallocs)/opsN)
	set("alloc_kb_per_op", float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/1000/opsN)
	set("heap_live_mb", float64(quiet.HeapAlloc)/1e6)
	set("disk_bytes_per_obs", float64(p.diskBytes)/float64(p.liveObs))
	set("restart_match_share", float64(matched)/float64(len(probes)))
	set("ok_share", float64(st.attempted-st.failed)/float64(st.attempted))
	set("node.ops_per_s", opsN/st.busy.Seconds())
	set("node.read_p50_ms", median(st.read))
	set("node.write_p50_ms", median(st.write))
	set("node.cpu_ms_per_op", ms(p.cpu)/opsN)
	set("node.rss_peak_mb", rss)
	set("node.recovery_s", recovery.Seconds())
	res.Attempted, res.Failed, res.Failure = st.attempted, st.failed, st.failure
	res.Notes["setup_s"] = fmt.Sprintf("median of %d setups", len(setups))
	res.Notes["node.read_p50_ms"] = fmt.Sprintf("n=%d", len(st.read))
	res.Notes["node.write_p50_ms"] = fmt.Sprintf("n=%d", len(st.write))
	res.Notes["node.ops_per_s"] = fmt.Sprintf("%d ops, busy %.2f s", st.clientOps, st.busy.Seconds())
	res.Notes["restart_match_share"] = "below 1 while preferences are not durable: a restarted node has forgotten every opt-out"
	return p, nil
}

// probe is one request of the restart probe set.
type probe struct {
	op   op
	hash [sha256.Size]byte
}

// genProbes builds the probe set replayed before and after the
// restart: subject reads, floor occupancy and SQL over the preloaded
// days, which both sides of the restart hold. It is part of the fixed
// dataset, not of the seeded request stream.
func genProbes(w *world) []probe {
	g := newGen(w, datasetSeed)
	at := w.today.Add(15 * time.Hour)
	out := make([]probe, 0, probeRequests)
	for i := 0; i < probeRequests; i++ {
		var o op
		switch {
		case i%10 == 8:
			o = g.occupancy(at, at.Add(-time.Duration(i%5)*time.Hour), g.randomFloor())
		case i%10 == 9:
			hour := w.today.Add(time.Duration(9+i%8) * time.Hour)
			o = g.sql(at, fmt.Sprintf(
				"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE kind = 'bluetooth_beacon' AND time >= '%s' AND time < '%s' GROUP BY space_id ORDER BY space_id",
				rfc(hour), rfc(hour.Add(time.Hour))), 2)
		default:
			o = g.serviceRead(at, g.subject())
			o.req.From = at.Add(-6 * time.Hour)
			o.body = mustJSON(o.req)
		}
		out = append(out, probe{op: o})
	}
	return out
}

// restart answers the probe set, closes the node, reopens it on the
// same directories and answers the set again. recovery runs from Close
// to the first probe answered by a ready node.
func restart(n *node, d *driver, w *world, sz sizing, probes []probe, st *passStats) (*node, int, time.Duration, error) {
	ask := func(d *driver, p *probe) error {
		d.n.clock.Set(p.op.at)
		d.serve(&p.op, p.op.body)
		if d.rw.status != 200 {
			return fmt.Errorf("probe %s: status %d", p.op.url, d.rw.status)
		}
		return nil
	}
	var err error
	for i := range probes {
		if err = ask(d, &probes[i]); err == nil {
			probes[i].hash, err = releasedHash(probes[i].op.kind, d.rw.body.Bytes())
		}
		if err != nil {
			n.close()
			return nil, 0, 0, err
		}
	}
	liveBefore := n.dep.BMS.Store().Len()

	t0 := time.Now()
	n.close()
	n, err = openNode(n.dir, n.clock, sz.Population)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("reopening the node: %w", err)
	}
	if err := n.dep.BMS.Ready(); err != nil {
		n.close()
		return nil, 0, 0, fmt.Errorf("restarted node not ready: %w", err)
	}
	d = newDriver(n, w)
	matched := 0
	var recovery time.Duration
	for i := range probes {
		err := ask(d, &probes[i])
		if i == 0 {
			recovery = time.Since(t0)
		}
		var h [sha256.Size]byte
		if err == nil {
			h, err = releasedHash(probes[i].op.kind, d.rw.body.Bytes())
		}
		if err != nil {
			n.close()
			return nil, 0, 0, err
		}
		if h == probes[i].hash {
			matched++
		}
	}
	st.attempted++
	if got := n.dep.BMS.Store().Len(); got != liveBefore {
		st.fail(fmt.Errorf("restart: store holds %d observations, held %d before", got, liveBefore))
	}
	return n, matched, recovery, nil
}

// runTraced makes the end-to-end part, then runs the op list again on
// a fresh node with driver spans on, and derives the per-layer metrics:
// counts, tails and whole-node timings from the untraced pass, busy
// times from the spans, and the tracing overhead from the two passes'
// busy times.
func runTraced(cfg runConfig, res *result, w *world, sz sizing, installs, ops []op, warm int, dir string) error {
	a, err := endToEnd(res, w, sz, installs, ops, warm, dir)
	if err != nil {
		return err
	}
	n, d, err := setup(filepath.Join(dir, "traced"), w, sz, installs, ops[:warm], true)
	if err != nil {
		return err
	}
	defer n.close()
	if err := d.buildOracle(installs, ops[:warm]); err != nil {
		return err
	}
	runtime.GC()
	b, err := d.run(ops[warm:], warm)
	if err != nil {
		return err
	}
	tr := d.tr
	tr.finish()
	if err := d.verifyPass(ops[warm:], b); err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"), tr.rec.spans); err != nil {
		return err
	}

	set := func(name string, v float64) { res.Metrics[name] = value{Value: v} }
	busy := layerBusy(tr.rec.spans)
	var spanned time.Duration
	for _, m := range perLayerMetrics {
		if layer, ok := strings.CutSuffix(m.Name, ".busy_ms"); ok {
			set(m.Name, ms(busy[layer]))
			spanned += busy[layer]
		}
	}
	st := a.st
	opsN := float64(st.clientOps)
	readTail, readQ := tail(st.read)
	writeTail, writeQ := tail(st.write)
	set("httpapi.resp_bytes_per_op", float64(st.respBytes)/opsN)
	set("httpapi.read.tail_ms", readTail)
	set("httpapi.write.tail_ms", writeTail)
	set("core.occ_cache.hit_share", ratio(float64(st.occHits), float64(st.occReads)))
	set("query.rows_scanned_per_row_out", ratio(float64(st.rowsScanned), float64(st.rowsOut)))
	set("query.rollup_served_share", ratio(float64(tr.rollupServed), float64(tr.queries)))
	set("obstore.query.rows_per_call", ratio(float64(tr.storeRows), float64(tr.storeQueries)))
	set("wal.fsyncs_per_kobs", ratio(a.counters["tippers_wal_fsyncs_total"], float64(st.ingested)/1000))
	set("wal.bytes_per_obs", ratio(a.counters["tippers_wal_appended_bytes_total"], float64(st.ingested)))
	set("colstore.compact.max_ms", maxOf(st.maint[opCompact]))
	set("colstore.segments", float64(a.segments))
	set("colstore.bytes_per_obs", ratio(float64(a.segBytes), float64(a.liveObs)))
	set("colstore.prune_share", a.pruneShare)
	set("enforce.decide.calls_per_op", a.counters["tippers_core_requests_decided_total"]/opsN)
	set("enforce.memo.hit_share", ratio(a.counters["tippers_enforce_cache_hits_total"],
		a.counters["tippers_enforce_cache_hits_total"]+a.counters["tippers_enforce_cache_misses_total"]))
	set("enforce.share_of_read", ratio(float64(tr.readEnforce), float64(tr.readBusy)))
	set("privacy.suppressed_groups", float64(st.suppressedGroups))
	set("reasoner.detect.calls", a.detectCalls)
	set("reasoner.conflicts", a.counters["tippers_reasoner_conflicts_total"])
	set("runtime.gc_cycles", float64(a.mem1.NumGC-a.mem0.NumGC))
	set("runtime.gc_pause_ms", float64(a.mem1.PauseTotalNs-a.mem0.PauseTotalNs)/1e6)
	set("trace.overhead_share", b.busy.Seconds()/st.busy.Seconds()-1)

	res.Attempted += b.attempted
	res.Failed += b.failed
	if res.Failure == "" {
		res.Failure = b.failure
	}
	res.Notes["httpapi.read.tail_ms"] = fmt.Sprintf("p%g of n=%d", readQ*100, len(st.read))
	res.Notes["httpapi.write.tail_ms"] = fmt.Sprintf("p%g of n=%d", writeQ*100, len(st.write))
	res.Notes["trace.overhead_share"] = fmt.Sprintf("busy %.3f s untraced, %.3f s traced; span self times sum to %.3f s",
		st.busy.Seconds(), b.busy.Seconds(), spanned.Seconds())
	return nil
}
