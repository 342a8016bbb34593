// Command bench is the repository's end-to-end and per-layer
// benchmark: an in-process durable TIPPERS node driven by fixed,
// seed-generated op lists, with no timers and no wall clock on the
// node's side. See README.md in this directory.
//
//	go run ./bench -workload W [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	go run ./bench -repeat N [-workload W] [-out FILE]
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
)

// specFile holds each gated metric's bound; -compare and -repeat read
// it, so they run from the repository root.
const specFile = "BENCHMARK.json"

func main() { os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr)) }

func mainExit(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Int("seconds", 10, "sizes the fixed op list: about this long a measured phase on the calibration host")
		trace    = fs.Int("trace", 0, "1: run untraced and traced, report per-layer metrics, write bench/out/trace-<workload>.jsonl")
		quick    = fs.Bool("quick", false, "smoke sizes (1/50 of the ops, small dataset); results are marked non-comparable")
		out      = fs.String("out", "", "also write the result file (params + runs) here")
		dataDir  = fs.String("data-dir", "", "parent directory for the node's data (default: /dev/shm if writable, else bench/out); its filesystem type is a recorded parameter")
		repeat   = fs.Int("repeat", 0, "noise self-check: run this many times per workload, each in a fresh process, and compare the halves")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The node logs checkpoints and slow requests; the benchmark's
	// output is its own.
	slog.SetDefault(quietLogger)
	if *dataDir == "" {
		*dataDir = defaultDataDir()
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return compareFiles(specFile, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *repeat > 0:
		names := workloadNames
		if *workload != "" {
			names = []string{*workload}
		}
		return repeatRuns(specFile, names, *repeat, *seed, *seconds, *quick, *dataDir, *out, stdout, stderr)
	}
	if *workload == "" {
		fmt.Fprintf(stderr, "bench: -workload is required (one of %v)\n", workloadNames)
		return 2
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, err := run(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick,
		dataDir: *dataDir, outDir: filepath.Join("bench", "out"),
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	report(stdout, res)
	if *out != "" {
		if err := writeResults(*out, []*result{res}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// defaultDataDir prefers tmpfs: on a shared disk the fsyncs of one
// identical compaction took between 1.5 and 3.0 s, on tmpfs 0.27 to
// 0.37 s, and every timing that includes one inherits that spread.
func defaultDataDir() string {
	const shm = "/dev/shm"
	if dir, err := os.MkdirTemp(shm, "bench-probe-"); err == nil {
		os.Remove(dir)
		return shm
	}
	return filepath.Join("bench", "out")
}

// report prints every metric by name with its unit, then the one-line
// JSON summary the benchmark contract asks for as the last line.
func report(w io.Writer, res *result) {
	p := res.Params
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v  quick %v\n", p.Workload, res.Seed, p.Seconds, p.Trace, p.Quick)
	fmt.Fprintf(w, "dataset  population %d  preloaded days %d  preferences/user %d  ops %v\n", p.Population, p.PreloadDays, p.PrefsPerUser, res.OpCounts)
	fmt.Fprintf(w, "host     %s  GOMAXPROCS %d  %s  data dir on %s  commit %s\n", p.CPU, p.GOMAXPROCS, p.GoVersion, p.DataDirFS, p.Commit)
	fmt.Fprintf(w, "op list  sha256 %s\n\n", res.OpList)
	// The last line carries the gated metrics (the per-layer ones on a
	// traced run); an untraced run also prints the whole-node timings.
	defs, more := endToEndMetrics, nodeTimings
	if p.Trace {
		defs, more = perLayerMetrics, nil
	}
	summary := make(map[string]value, len(defs))
	line := func(m metricDef) value {
		v := res.Metrics[m.Name]
		note := ""
		if n := res.Notes[m.Name]; n != "" {
			note = "  # " + n
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s%s\n", m.Name, v.Value, v.Unit, note)
		return v
	}
	for _, m := range defs {
		v := line(m)
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0 // JSON has no NaN; a metric that could not be computed reads 0
		}
		summary[m.Name] = v
	}
	if more != nil {
		fmt.Fprintln(w, "\nnot gated (the host's speed wanders more than any useful bound):")
		for _, m := range more {
			line(m)
		}
	}
	if res.Failure != "" {
		fmt.Fprintf(w, "\nfirst failure: %s\n", res.Failure)
	}
	last, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, summary})
	fmt.Fprintf(w, "\n%s\n", last)
}
