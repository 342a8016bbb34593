package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	series := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		return xs
	}
	for _, tc := range []struct {
		n int
		q float64
	}{
		{30, 0.5}, // no candidate leaves ten samples beyond it
		{40, 0.75},
		{100, 0.90},
		{200, 0.95},
		{999, 0.95},
		{1000, 0.99},
		{10000, 0.999},
	} {
		v, q := tail(series(tc.n))
		if q != tc.q {
			t.Errorf("n=%d: tail percentile %g, want %g", tc.n, q, tc.q)
		}
		if beyond := float64(tc.n) - v; tc.q > 0.5 && beyond < 10 {
			t.Errorf("n=%d: only %.1f samples beyond p%g", tc.n, beyond, q*100)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN, not a number that looks measured")
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); -repeat must agree with it.
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g %g %g, want 1.5 3 4.5", q1, q2, q3)
	}
}

func quickOps(t *testing.T, workload string, seed int64) []op {
	t.Helper()
	sz := sizeFor(workload, 10, true)
	w, err := newWorld(seed, sz.Population)
	if err != nil {
		t.Fatal(err)
	}
	ops, warm, err := generate(w, workload, sz)
	if err != nil {
		t.Fatal(err)
	}
	if warm <= 0 || warm >= len(ops) {
		t.Fatalf("%s: %d warm-up ops of %d", workload, warm, len(ops))
	}
	return ops
}

func TestOpListIsAFunctionOfTheSeed(t *testing.T) {
	for _, workload := range workloadNames {
		a, b, c := quickOps(t, workload, 7), quickOps(t, workload, 7), quickOps(t, workload, 8)
		if opListHash(a) != opListHash(b) {
			t.Errorf("%s: the same seed gave two different op lists", workload)
		}
		if opListHash(a) == opListHash(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", workload)
		}
		// The op mix is fixed; only order and arguments follow the seed.
		count := func(ops []op) (n [numOpKinds]int) {
			for _, o := range ops {
				n[o.kind]++
			}
			return n
		}
		if workload != "ingest-durable" && count(a) != count(c) {
			t.Errorf("%s: op counts differ between seeds: %v vs %v", workload, count(a), count(c))
		}
	}
}

// The hash covers everything the node is given and nothing else, so a
// matching hash means the node saw the same inputs.
func TestOpListHashCoversWhatTheNodeReceives(t *testing.T) {
	ops := quickOps(t, "preference-churn", 1)
	base := opListHash(ops)
	i := 0
	for ops[i].body == nil {
		i++
	}
	mutations := map[string]func(o *op){
		"body":   func(o *op) { o.body = append(bytes.Clone(o.body), ' ') },
		"clock":  func(o *op) { o.at = o.at.Add(time.Nanosecond) },
		"method": func(o *op) { o.method = "PATCH" },
		"url":    func(o *op) { o.url = mustURL(o.url.String() + "?x=1") },
	}
	for name, mutate := range mutations {
		saved := ops[i]
		mutate(&ops[i])
		if opListHash(ops) == base {
			t.Errorf("changing an op's %s left the op-list hash unchanged", name)
		}
		ops[i] = saved
	}
	// Driver-side notes are not inputs.
	ops[i].expect++
	if opListHash(ops) != base {
		t.Error("a verification note changed the op-list hash")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	var r recorder
	t0 := time.Now()
	root := r.add(rootSpan, 1, 0, t0, 100*time.Microsecond, 1)
	r.add("httpapi.decode", 1, root, t0, 10*time.Microsecond, 1)
	exec := r.add("query.execute", 1, root, t0, 60*time.Microsecond, 1)
	r.add("obstore.query", 1, exec, t0, 25*time.Microsecond, 1)
	r.add("enforce.decide", 1, exec, t0, 15*time.Microsecond, 300) // coalesced per-row calls
	r.add("colstore.compact", 2, 0, t0, 40*time.Microsecond, 1)    // maintenance: its own root

	want := []time.Duration{30, 10, 20, 25, 15, 40}
	for i, got := range selfTimes(r.spans) {
		if got != want[i]*time.Microsecond {
			t.Errorf("self time of %s = %v, want %v", r.spans[i].Name, got, want[i]*time.Microsecond)
		}
	}
	busy := layerBusy(r.spans)
	if busy["core.glue"] != 30*time.Microsecond {
		t.Errorf("core.glue = %v, want the root's self time 30µs", busy["core.glue"])
	}
	var total time.Duration
	for _, d := range busy {
		total += d
	}
	if total != 140*time.Microsecond {
		t.Errorf("self times sum to %v, want the roots' 140µs", total)
	}
}

func TestZipfSamplerIsSkewed(t *testing.T) {
	const n, draws = 1000, 200000
	z := newZipf(rand.New(rand.NewSource(3)), n)
	hits := make([]int, n)
	for i := 0; i < draws; i++ {
		hits[z.Uint64()]++
	}
	var top10, reached int
	for rank, h := range hits {
		if rank < 10 {
			top10 += h
		}
		if h > 0 {
			reached++
		}
	}
	// Zipf(1.1) over 1000 ranks gives its ten most popular subjects
	// about half of all draws; uniform sampling would give them 1 %.
	if share := float64(top10) / draws; share < 0.40 || share > 0.65 {
		t.Errorf("ten hottest subjects drew %.1f%% of requests, want 40-65%%", share*100)
	}
	if hits[0] <= hits[9] || hits[9] <= hits[99] {
		t.Errorf("popularity does not fall with rank: %d, %d, %d draws at ranks 1, 10, 100", hits[0], hits[9], hits[99])
	}
	if reached < n/2 {
		t.Errorf("only %d of %d subjects were ever drawn: the tail is missing", reached, n)
	}
}

func TestCompareRefusesDifferentParams(t *testing.T) {
	a := params{Workload: "service-reads", Seconds: 10, sizing: sizing{Population: 1000}, Commit: "aaa"}
	b := a
	b.Commit = "bbb"
	if ok, why := comparable(a, b); !ok {
		t.Errorf("results of two commits must be comparable, refused: %s", why)
	}
	b.Population = 200
	if ok, _ := comparable(a, b); ok {
		t.Error("results at different dataset sizes compared")
	}
	b = a
	b.DataDirFS = "ext"
	if ok, why := comparable(a, b); ok || !strings.Contains(why, "data_dir_fs") {
		t.Errorf("results on different filesystems compared (%q)", why)
	}

	dir := t.TempDir()
	write := func(name string, p params, allocs float64) string {
		path := filepath.Join(dir, name)
		r := &result{Params: p, run1: run1{Metrics: map[string]value{}}}
		for _, m := range append(endToEndMetrics, nodeTimings...) {
			r.Metrics[m.Name] = value{Value: 1, Unit: m.Unit}
		}
		r.Metrics["allocs_per_op"] = value{Value: allocs, Unit: "count"}
		if err := writeResults(path, []*result{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	var out, errOut bytes.Buffer
	base := write("a.json", a, 1000)
	if code := compareFiles(spec, base, write("same.json", a, 1005), &out, &errOut); code != 0 {
		t.Errorf("0.5%% more allocations is inside the bound, exit %d: %s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(spec, base, write("more.json", a, 1400), &out, &errOut); code != 1 {
		t.Errorf("40%% more allocations must be a regression, exit %d", code)
	}
	b = a
	b.Quick = true
	if code := compareFiles(spec, base, write("quick.json", b, 1000), &out, &errOut); code != 2 {
		t.Errorf("a quick-mode result must be refused, exit %d", code)
	}
}

// BENCHMARK.json is the contract the driver reads; the tables in
// metrics.go are what the program prints. They must not drift apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) || len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(spec.EndToEnd), len(endToEndMetrics), len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range endToEndMetrics {
		got := spec.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != better(m.Higher) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, got.Bound)
		}
	}
	for i, m := range perLayerMetrics {
		got := spec.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != better(m.Higher) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
}

// dataDir is a scratch directory on tmpfs when there is one, as in a
// real run: the columnar tier fsyncs a file per minute of data.
func dataDir(t *testing.T) string {
	if shm := defaultDataDir(); filepath.IsAbs(shm) {
		dir, err := os.MkdirTemp(shm, "bench-test-")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.RemoveAll(dir) })
		return dir
	}
	return t.TempDir()
}

func smoke(t *testing.T, trace bool, defs []metricDef) {
	data, out := dataDir(t), t.TempDir()
	start := time.Now()
	for _, workload := range workloadNames {
		res, err := run(runConfig{workload: workload, seed: 1, seconds: 10, trace: trace, quick: true, dataDir: data, outDir: out})
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", workload, res.Failed, res.Attempted, res.Failure)
		}
		if !res.Params.Quick {
			t.Errorf("%s: a quick run must say so in its params", workload)
		}
		for _, m := range defs {
			v, ok := res.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", workload, m.Name, v, ok, m.Unit)
			}
		}
		if !trace {
			if v := res.Metrics["ok_share"].Value; v != 1 {
				t.Errorf("%s: ok_share = %g, want 1", workload, v)
			}
			for _, name := range []string{"node.ops_per_s", "node.read_p50_ms", "node.write_p50_ms", "node.recovery_s", "setup_s"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", workload, name, res.Metrics[name].Value)
				}
			}
			continue
		}
		spans, err := os.ReadFile(filepath.Join(out, "trace-"+workload+".jsonl"))
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: traced run wrote no spans: %v", workload, err)
		}
	}
	// On a disk the columnar tier's per-minute fsyncs dominate; the
	// limit is for tmpfs, where the real runs are made.
	if elapsed := time.Since(start); elapsed > 10*time.Second && !raceEnabled && fsType(data) == "tmpfs" {
		t.Errorf("four quick workloads took %v, want < 10s", elapsed)
	}
	if left, _ := os.ReadDir(data); len(left) != 0 {
		t.Errorf("the runs left %d entries in the data directory", len(left))
	}
}

func TestSmoke(t *testing.T) { smoke(t, false, append(endToEndMetrics, nodeTimings...)) }

func TestSmokeTraced(t *testing.T) { smoke(t, true, perLayerMetrics) }

// The generator names services without a node to ask; the names must
// be the ones a deployment registers.
func TestServiceIDsMatchDeployment(t *testing.T) {
	n, err := openNode(filepath.Join(dataDir(t), "node"), &fakeClock{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	var got []string
	for _, s := range n.dep.Services.All() {
		got = append(got, s.ID)
	}
	if strings.Join(got, " ") != strings.Join(serviceIDs, " ") {
		t.Errorf("deployment registers %v, the generator assumes %v", got, serviceIDs)
	}
}

// Every rollup-eligible query must carry its row-scan twin, or the
// verification pass has nothing to compare the cubes' answer with.
func TestRollupQueriesCarryTwins(t *testing.T) {
	shapes := map[string]int{"SELECT space_id, count FROM occupancy": 0, "SELECT sensor_id, COUNT(*)": 0}
	for _, o := range quickOps(t, "analytics-scan", 1) {
		for prefix := range shapes {
			if strings.HasPrefix(o.query.SQL, prefix) {
				shapes[prefix]++
				if o.twin == nil {
					t.Errorf("rollup-eligible query without a twin: %s", o.query.SQL)
				}
			}
		}
	}
	for prefix, n := range shapes {
		if n == 0 {
			t.Errorf("quick analytics-scan never asks %q...: that shape's twin goes unchecked", prefix)
		}
	}
}
