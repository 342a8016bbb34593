// Command benchdiff keeps the micro-benchmark ledger, BENCH.json, and
// gates a fresh run against it by one rule: gate what repeats — counts
// — and print what does not — timings.
//
// parse keeps, per benchmark (keyed by its full name, -N suffix and
// all), every `value unit` pair of every sample, and the run parameters
// from the `key: value` lines the testing package and scripts/bench.sh print.
//
// compare refuses (exit 3) when either file has no parameters or one
// that a count depends on differs. Otherwise it fails (exit 1) only
// when the median of a gated count exceeds the ledger's or is missing
// from the fresh run. Every other unit, ns/op included, is printed with
// its delta and never judged: one host's timing says nothing of another's.
//
// flat is the one timing verdict, a ratio inside one run, not against a
// committed number: each scaled benchmark's median ns/op must stay
// within -max times the base's, and no gated count may exceed the base's.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/tippers/tippers/internal/loadgen"
)

// Result holds one benchmark's samples across -count repetitions, by unit.
type Result map[string][]float64

// File is the layout of BENCH.json and of a fresh run.
type File struct {
	Params     map[string]string `json:"params"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// paramNames are the header keys parse keeps. Two runs are comparable
// only when the first five agree: each changes an allocation count or
// the iterations a per-event metric is averaged over.
var paramNames = []string{"go_version", "goos", "goarch", "gomaxprocs", "benchtime", "count", "cpu", "commit"}

// gatedUnits are the counts that repeat from run to run and host to host.
var gatedUnits = []string{"allocs/op", "consulted/op", "decides/event", "segs/op"}

func parse(r io.Reader) (*File, error) {
	out := &File{Params: map[string]string{}, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ": "); ok && slices.Contains(paramNames, key) {
			out.Params[key] = strings.TrimSpace(val)
			continue
		}
		// BenchmarkX/sub-8   120   9876 ns/op   0.5 decides/event   12 B/op   1 allocs/op
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		res := out.Benchmarks[f[0]]
		if res == nil {
			res = Result{}
			out.Benchmarks[f[0]] = res
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad %s value in %q: %v", f[i+1], line, err)
			}
			res[f[i+1]] = append(res[f[i+1]], v)
		}
	}
	if err := sc.Err(); err != nil || len(out.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark lines read (%v)", err)
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func load(path string) *File {
	var f File
	if err := json.Unmarshal(must(os.ReadFile(path)), &f); err != nil || len(f.Benchmarks) == 0 {
		fatal(fmt.Errorf("benchdiff: %s holds no benchmarks (%v)", path, err))
	}
	return &f
}

// refusal says why base and cur may not be compared, or "" when they may.
func refusal(base, cur *File) string {
	if len(base.Params) == 0 || len(cur.Params) == 0 {
		return "a file has no params block (the retired ledger format); record one with `scripts/bench.sh record`"
	}
	for _, name := range paramNames[:5] {
		b, c := base.Params[name], cur.Params[name]
		if b == "" || b != c {
			return fmt.Sprintf("run parameters differ (%s: %q vs %q)", name, b, c)
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// compare prints one row per ledger benchmark and unit, and reports
// whether a gated count grew or went missing.
func compare(base, cur *File, w io.Writer) (failed bool) {
	const row = "%-52s %-14s %14v %14v %9s  %s\n"
	fmt.Fprintf(w, row, "benchmark", "unit", "ledger", "fresh", "delta", "verdict")
	for _, name := range sortedKeys(base.Benchmarks) {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		if c == nil {
			fmt.Fprintf(w, row, name, "", "", "", "", "MISSING from the fresh run")
			failed = true
			continue
		}
		for _, unit := range sortedKeys(b) {
			bm, cm := median(b[unit]), median(c[unit])
			delta, verdict := "=", ""
			if cm != bm && bm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-bm)/bm)
			} else if cm != bm {
				delta = fmt.Sprintf("%+g", cm)
			}
			if slices.Contains(gatedUnits, unit) {
				verdict = "ok"
				if len(c[unit]) == 0 || cm > bm {
					verdict, failed = "COUNT GREW OR MISSING", true
				}
			}
			fmt.Fprintf(w, row, name, unit, bm, cm, delta, verdict)
		}
	}
	for _, name := range sortedKeys(cur.Benchmarks) {
		if base.Benchmarks[name] == nil {
			fmt.Fprintf(w, row, name, "", "", "", "", "new (not in the ledger)")
		}
	}
	return failed
}

// flat checks a scale sweep inside one run; names[0] is the base.
func flat(f *File, names []string, maxRatio float64, w io.Writer) (failed bool) {
	base := f.Benchmarks[names[0]]
	for _, name := range names {
		res := f.Benchmarks[name]
		ratio := median(res["ns/op"]) / median(base["ns/op"])
		verdict := "ok"
		if !(ratio > 0 && ratio <= maxRatio) { // NaN or 0: no samples
			verdict = fmt.Sprintf("NOT FLAT (missing, or > %gx base)", maxRatio)
		}
		for _, unit := range gatedUnits {
			if b, c := median(base[unit]), median(res[unit]); c > b {
				verdict = fmt.Sprintf("NOT FLAT (%s %v -> %v)", unit, b, c)
			}
		}
		failed = failed || verdict != "ok"
		fmt.Fprintf(w, "%-52s %12v ns/op %7.2fx  %s\n", name, median(res["ns/op"]), ratio, verdict)
	}
	return failed
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "parse":
		out := must(json.MarshalIndent(must(parse(os.Stdin)), "", " "))
		must(os.Stdout.Write(append(out, '\n')))
	case "compare":
		if len(args) != 2 {
			usage()
		}
		base, cur := load(args[0]), load(args[1])
		if why := refusal(base, cur); why != "" {
			fmt.Fprintf(os.Stderr, "benchdiff: refusing to compare %s with %s: %s\n", args[0], args[1], why)
			os.Exit(3)
		}
		if compare(base, cur, os.Stdout) {
			fatal(fmt.Errorf("benchdiff: a gated count grew or is missing"))
		}
	case "flat":
		fs := flag.NewFlagSet("flat", flag.ExitOnError)
		maxRatio := fs.Float64("max", 4, "max allowed median ns/op ratio of scaled vs base benchmark")
		fs.Parse(args)
		if fs.NArg() < 3 {
			usage()
		}
		if flat(load(fs.Arg(0)), fs.Args()[1:], *maxRatio, os.Stdout) {
			fatal(fmt.Errorf("benchdiff: scale sweep is not flat"))
		}
	case "slo":
		fs := flag.NewFlagSet("slo", flag.ExitOnError)
		tolerance := fs.Float64("tolerance", 25, "max allowed tail-latency regression, percent")
		floor := fs.Duration("floor", 2*time.Millisecond, "ignore regressions smaller than this absolute delta")
		fs.Parse(args)
		if fs.NArg() != 2 {
			usage()
		}
		base, cur := must(loadgen.ReadReport(fs.Arg(0))), must(loadgen.ReadReport(fs.Arg(1)))
		if sloCompare(base, cur, *tolerance, floor.Seconds(), os.Stdout) {
			fatal(fmt.Errorf("benchdiff: tail-latency regression over tolerance"))
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchdiff parse <bench.txt >fresh.json           # go test -bench output → JSON
  benchdiff compare BENCH.json fresh.json          # exit 1: a count grew; exit 3: not comparable
  benchdiff flat [-max 4] fresh.json baseBench scaledBench [more ...]
  benchdiff slo [-tolerance 25] [-floor 2ms] base-report.json new-report.json`)
	os.Exit(2)
}

func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
