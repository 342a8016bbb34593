package main

import (
	"strings"
	"testing"
)

// The StreamFanout and WALAppend lines are verbatim `go test` output:
// a custom metric or MB/s sits between ns/op and the -benchmem columns.
const sampleBench = `
go_version: go1.24
gomaxprocs: 2
benchtime: 20000x
count: 5
commit: ac4fadb
goos: linux
goarch: amd64
pkg: github.com/tippers/tippers
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkObstoreIngestDurable-8      100   2329090 ns/op   636272 B/op   2233 allocs/op
BenchmarkObstoreIngestDurable-8      100   2400000 ns/op   636000 B/op   2233 allocs/op
BenchmarkPlain-8                                     5000     21000 ns/op
BenchmarkStreamFanout/subs=1-2             	   58591	      2928 ns/op	         0.005 decides/event	    341529 deliveries/s	    1007 B/op	       4 allocs/op
BenchmarkWALAppend/sync=interval-2         	  160290	      7441 ns/op	  19.35 MB/s	     346 B/op	       1 allocs/op
BenchmarkLogged some b.Logf text, not a result line
PASS
ok    github.com/tippers/tippers  12.3s
`

func TestParseKeepsSuffixAndCollectsSamples(t *testing.T) {
	f, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	ingest, ok := f.Benchmarks["BenchmarkObstoreIngestDurable-8"]
	if !ok {
		t.Fatalf("full suffixed name must be the key: have %v", sortedKeys(f.Benchmarks))
	}
	if got := ingest["ns/op"]; len(got) != 2 || got[0] != 2329090 {
		t.Fatalf("samples = %v", got)
	}
	if got := ingest["allocs/op"]; len(got) != 2 || got[0] != 2233 {
		t.Fatalf("allocs = %v", got)
	}
	if plain := f.Benchmarks["BenchmarkPlain-8"]; len(plain["ns/op"]) != 1 || len(plain["allocs/op"]) != 0 {
		t.Fatalf("entry without -benchmem = %+v", plain)
	}
	fan := f.Benchmarks["BenchmarkStreamFanout/subs=1-2"]
	for unit, want := range map[string]float64{"ns/op": 2928, "decides/event": 0.005, "deliveries/s": 341529, "B/op": 1007, "allocs/op": 4} {
		if got := fan[unit]; len(got) != 1 || got[0] != want {
			t.Errorf("StreamFanout %s = %v, want [%v]", unit, got, want)
		}
	}
	wal := f.Benchmarks["BenchmarkWALAppend/sync=interval-2"]
	for unit, want := range map[string]float64{"ns/op": 7441, "MB/s": 19.35, "B/op": 346, "allocs/op": 1} {
		if got := wal[unit]; len(got) != 1 || got[0] != want {
			t.Errorf("WALAppend %s = %v, want [%v]", unit, got, want)
		}
	}
	if len(f.Benchmarks) != 4 {
		t.Errorf("benchmarks = %v, want 4 (the log line is not a result)", sortedKeys(f.Benchmarks))
	}
	want := map[string]string{"go_version": "go1.24", "goos": "linux", "goarch": "amd64", "gomaxprocs": "2",
		"benchtime": "20000x", "count": "5", "cpu": "Intel(R) Xeon(R) Processor @ 2.10GHz", "commit": "ac4fadb"}
	for name, v := range want {
		if f.Params[name] != v {
			t.Errorf("params[%s] = %q, want %q", name, f.Params[name], v)
		}
	}
	if len(f.Params) != len(want) {
		t.Errorf("params = %v: pkg and the like are not run parameters", f.Params)
	}
}

func TestParseKeepsCPUVariantsDistinct(t *testing.T) {
	f, err := parse(strings.NewReader(`
BenchmarkDecide/prefs=10-1        	 1000000	      1000 ns/op
BenchmarkDecide/prefs=10-8        	 1000000	      1100 ns/op
BenchmarkDecide/prefs=10-8        	 1000000	      1200 ns/op
`))
	if err != nil {
		t.Fatal(err)
	}
	// A -cpu=1,8 run produces two variants; pooling them under one
	// stripped key would mix medians across GOMAXPROCS settings.
	if len(f.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %v, want 2 distinct -cpu variants", sortedKeys(f.Benchmarks))
	}
	if got := f.Benchmarks["BenchmarkDecide/prefs=10-8"]; len(got["ns/op"]) != 2 {
		t.Errorf("suffixed variant = %+v, want 2 samples", got)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Fatal("want error on benchmark-free input")
	}
}

func testParams() map[string]string {
	return map[string]string{"go_version": "go1.24", "goos": "linux", "goarch": "amd64", "gomaxprocs": "2",
		"benchtime": "20000x", "count": "5", "cpu": "some cpu", "commit": "abc"}
}

func TestCompareGates(t *testing.T) {
	base := &File{Params: testParams(), Benchmarks: map[string]Result{
		"BenchmarkA-2": {"ns/op": {100, 110, 105}, "allocs/op": {10, 10, 10}, "B/op": {64, 64, 64}},
		"BenchmarkB-2": {"ns/op": {1000}, "allocs/op": {3}, "decides/event": {0.0001}, "consulted/op": {2}, "segs/op": {1}},
	}}
	freshB := Result{"ns/op": {1000}, "allocs/op": {3}, "decides/event": {0.0001}, "consulted/op": {2}, "segs/op": {1}}
	with := func(name, value string) map[string]string {
		p := testParams()
		p[name] = value
		return p
	}
	cases := []struct {
		name    string
		cur     *File
		refused string // substring of the refusal; "" means compared
		fail    bool
		prints  string
	}{
		{name: "identical", cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {105}, "allocs/op": {10}, "B/op": {64}}, "BenchmarkB-2": freshB,
		}}},
		{name: "ns/op +300% and B/op doubled with equal counts", prints: "+300.0%", cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {420}, "allocs/op": {10}, "B/op": {128}}, "BenchmarkB-2": freshB,
		}}},
		{name: "fewer allocations", prints: "-50.0%", cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {105}, "allocs/op": {5}, "B/op": {64}}, "BenchmarkB-2": freshB,
		}}},
		{name: "allocs/op above the ledger despite a faster time", fail: true, prints: "COUNT GREW", cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {50}, "allocs/op": {11}, "B/op": {64}}, "BenchmarkB-2": freshB,
		}}},
		{name: "custom count above the ledger", fail: true, cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {105}, "allocs/op": {10}, "B/op": {64}},
			"BenchmarkB-2": {"ns/op": {1000}, "allocs/op": {3}, "decides/event": {0.0001}, "consulted/op": {3}, "segs/op": {1}},
		}}},
		{name: "more segments read than the ledger", fail: true, cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {105}, "allocs/op": {10}, "B/op": {64}},
			"BenchmarkB-2": {"ns/op": {1000}, "allocs/op": {3}, "decides/event": {0.0001}, "consulted/op": {2}, "segs/op": {1.5}},
		}}},
		{name: "gated count no longer reported", fail: true, cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {105}, "allocs/op": {10}, "B/op": {64}},
			"BenchmarkB-2": {"ns/op": {1000}, "allocs/op": {3}, "consulted/op": {2}, "segs/op": {1}},
		}}},
		{name: "ledger entry absent from the fresh run", fail: true, prints: "MISSING", cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkB-2": freshB,
		}}},
		{name: "entry only in the fresh run", prints: "new (not in the ledger)", cur: &File{Params: testParams(), Benchmarks: map[string]Result{
			"BenchmarkA-2": {"ns/op": {105}, "allocs/op": {10}, "B/op": {64}}, "BenchmarkB-2": freshB,
			"BenchmarkC-2": {"ns/op": {1}, "allocs/op": {99}},
		}}},
		{name: "another cpu model and commit", cur: &File{Params: with("cpu", "another cpu"), Benchmarks: base.Benchmarks}},
		{name: "gomaxprocs differs", refused: "gomaxprocs", cur: &File{Params: with("gomaxprocs", "4"), Benchmarks: base.Benchmarks}},
		{name: "Go minor version differs", refused: "go_version", cur: &File{Params: with("go_version", "go1.25"), Benchmarks: base.Benchmarks}},
		{name: "benchtime differs", refused: "benchtime", cur: &File{Params: with("benchtime", "200ms"), Benchmarks: base.Benchmarks}},
		{name: "parameter not recorded", refused: "goarch", cur: &File{Params: with("goarch", ""), Benchmarks: base.Benchmarks}},
		{name: "retired format: no params block", refused: "no params block", cur: &File{Benchmarks: base.Benchmarks}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			why := refusal(base, tc.cur)
			if tc.refused != "" {
				if !strings.Contains(why, tc.refused) {
					t.Fatalf("refusal = %q, want it to name %q", why, tc.refused)
				}
				if flipped := refusal(tc.cur, base); !strings.Contains(flipped, tc.refused) {
					t.Fatalf("refusal with the files swapped = %q, want it to name %q", flipped, tc.refused)
				}
				return
			}
			if why != "" {
				t.Fatalf("refused a comparable pair: %s", why)
			}
			var sb strings.Builder
			if got := compare(base, tc.cur, &sb); got != tc.fail {
				t.Fatalf("failed = %v, want %v\n%s", got, tc.fail, sb.String())
			}
			if !strings.Contains(sb.String(), tc.prints) {
				t.Fatalf("output lacks %q:\n%s", tc.prints, sb.String())
			}
		})
	}
}

func TestFlat(t *testing.T) {
	sweep := []string{"BenchmarkCompiledDecide/prefs=10-2", "BenchmarkCompiledDecide/prefs=10000-2", "BenchmarkCompiledDecide/prefs=1000000-2"}
	mk := func(ns1M, consulted1M float64) *File {
		return &File{Benchmarks: map[string]Result{
			sweep[0]: {"ns/op": {1000}, "allocs/op": {0}, "consulted/op": {2}},
			sweep[1]: {"ns/op": {1500}, "allocs/op": {0}, "consulted/op": {2}},
			sweep[2]: {"ns/op": {ns1M}, "allocs/op": {0}, "consulted/op": {consulted1M}},
		}}
	}
	var sb strings.Builder
	if flat(mk(3900, 2), sweep, 4, &sb) {
		t.Errorf("3.9x sweep failed a 4x gate:\n%s", sb.String())
	}
	sb.Reset()
	if !flat(mk(4100, 2), sweep, 4, &sb) || !strings.Contains(sb.String(), "NOT FLAT") {
		t.Errorf("4.1x sweep passed a 4x gate:\n%s", sb.String())
	}
	sb.Reset()
	if !flat(mk(1000, 3), sweep, 4, &sb) || !strings.Contains(sb.String(), "consulted/op 2 -> 3") {
		t.Errorf("a count that grew along the sweep passed:\n%s", sb.String())
	}
	sb.Reset()
	if !flat(mk(1000, 2), []string{sweep[0], "BenchmarkGhost"}, 4, &sb) {
		t.Error("missing scaled benchmark passed the flat gate")
	}
	sb.Reset()
	if !flat(mk(1000, 2), []string{"BenchmarkGhost", sweep[1]}, 4, &sb) {
		t.Error("missing base benchmark passed the flat gate")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}
