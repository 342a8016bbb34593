package main

// Result files, the noise self-check (-repeat) and the comparison
// (-compare). Both judge medians against the bounds in BENCHMARK.json
// and refuse results whose run parameters differ.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultFile is what -out writes: runs that share one set of params.
type resultFile struct {
	Params params `json:"params"`
	Runs   []run1 `json:"runs"`
}

func writeResults(path string, results []*result) error {
	var files []resultFile
	for _, r := range results {
		i := 0
		for ; i < len(files); i++ {
			if ok, _ := comparable(files[i].Params, r.Params); ok {
				break
			}
		}
		if i == len(files) {
			files = append(files, resultFile{Params: r.Params})
		}
		files[i].Runs = append(files[i].Runs, r.run1)
	}
	data, err := json.MarshalIndent(files, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var files []resultFile
	if err := json.Unmarshal(data, &files); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return files, nil
}

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the bounds: %w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) does
// (the exclusive method), the rule the benchmark's acceptance check
// uses for the spread of a metric.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worsening is how much worse b is than a as a share of a: positive
// when b moved against the metric's direction.
func worsening(a, b float64, higherIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherIsBetter {
		return (a - b) / a
	}
	return (b - a) / a
}

func column(runs []run1, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// compareFiles prints, per workload and end-to-end metric, both files'
// medians and whether b is within the metric's bound of a. It returns 1
// on a regression and 2 when the files cannot be compared.
func compareFiles(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if len(a) != len(b) {
		fmt.Fprintf(stderr, "bench: refusing to compare: %s holds %d parameter sets, %s holds %d\n", pathA, len(a), pathB, len(b))
		return 2
	}
	code := 0
	for i := range a {
		if ok, why := comparable(a[i].Params, b[i].Params); !ok {
			fmt.Fprintf(stderr, "bench: refusing to compare %s: run parameters differ (%s)\n", a[i].Params.Workload, why)
			return 2
		}
		if a[i].Params.Quick {
			fmt.Fprintf(stderr, "bench: refusing to compare %s: quick-mode results are not comparable\n", a[i].Params.Workload)
			return 2
		}
		fmt.Fprintf(stdout, "%s  (%d vs %d runs; %s -> %s)\n", a[i].Params.Workload, len(a[i].Runs), len(b[i].Runs), a[i].Params.Commit, b[i].Params.Commit)
		for _, m := range spec.EndToEnd {
			ma, mb := median(column(a[i].Runs, m.Name)), median(column(b[i].Runs, m.Name))
			w := worsening(ma, mb, m.Better == "higher")
			verdict := "ok"
			if w > m.Bound {
				verdict = "REGRESSION"
				code = 1
			}
			fmt.Fprintf(stdout, "  %-22s %14.6g -> %14.6g  %+7.2f%% (bound %g%%)  %s\n", m.Name, ma, mb, -w*100, m.Bound*100, verdict)
		}
		for _, m := range nodeTimings {
			ma, mb := median(column(a[i].Runs, m.Name)), median(column(b[i].Runs, m.Name))
			fmt.Fprintf(stdout, "  %-22s %14.6g -> %14.6g  %+7.2f%% (not gated)\n", m.Name, ma, mb, -worsening(ma, mb, m.Higher)*100)
		}
	}
	return code
}

// repeatRuns is the noise self-check: n runs per workload, each in a
// fresh process with its own seed, then for every end-to-end metric
// the median, quartiles and range next to the bound, and a comparison
// of the first half of the runs with the second. It returns 1 when a
// spread exceeds its bound or the halves disagree beyond it — the
// condition under which the benchmark could not gate on that metric.
func repeatRuns(specPath string, workloads []string, n int, seed int64, seconds int, quick bool, dataDir, out string, stdout, stderr io.Writer) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(dataDir, "repeat-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	code := 0
	var all []resultFile
	for _, w := range workloads {
		var runs resultFile
		for i := 0; i < n; i++ {
			file := filepath.Join(tmp, "run.json")
			args := []string{"-workload", w, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-data-dir", dataDir, "-out", file}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			var errBuf bytes.Buffer
			cmd.Stderr = &errBuf
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: run %d of %s: %v\n%s", i+1, w, err, errBuf.Bytes())
				return 2
			}
			got, err := readResults(file)
			if err != nil || len(got) != 1 {
				fmt.Fprintf(stderr, "bench: run %d of %s left no result: %v\n", i+1, w, err)
				return 2
			}
			if i > 0 {
				if ok, why := comparable(runs.Params, got[0].Params); !ok {
					fmt.Fprintf(stderr, "bench: run %d of %s ran with other parameters (%s)\n", i+1, w, why)
					return 2
				}
			}
			runs.Params = got[0].Params
			runs.Runs = append(runs.Runs, got[0].Runs...)
			fmt.Fprintf(stderr, "%s run %d/%d (seed %d) done\n", w, i+1, n, seed+int64(i))
		}
		all = append(all, runs)

		fmt.Fprintf(stdout, "%s  %d runs, seeds %d..%d\n", w, n, seed, seed+int64(n)-1)
		fmt.Fprintf(stdout, "  %-22s %12s %12s %12s %9s %9s %9s %9s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound", "halves")
		row := func(name string, higher bool, bound float64) {
			xs := column(runs.Runs, name)
			q1, med, q3 := quartiles(xs)
			s := sortedCopy(xs)
			spread, rng := ratio(q3-q1, med), ratio(s[len(s)-1]-s[0], med)
			halves := worsening(median(xs[:len(xs)/2]), median(xs[len(xs)/2:]), higher)
			limit, verdict := "not gated", ""
			if bound >= 0 {
				limit = fmt.Sprintf("%.1f%%", bound*100)
				if spread > bound {
					verdict, code = "  SPREAD EXCEEDS BOUND", 1
				}
				if len(xs) >= 2 && (halves > bound || -halves > bound) {
					verdict, code = verdict+"  HALVES DISAGREE", 1
				}
			}
			fmt.Fprintf(stdout, "  %-22s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %9s %+8.2f%%%s\n",
				name, med, q1, q3, spread*100, rng*100, limit, halves*100, verdict)
		}
		for _, m := range spec.EndToEnd {
			row(m.Name, m.Better == "higher", m.Bound)
		}
		for _, m := range nodeTimings {
			row(m.Name, m.Higher, -1)
		}
		for _, r := range runs.Runs {
			if r.Failed > 0 {
				fmt.Fprintf(stdout, "  seed %d: %d of %d ops failed verification\n", r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return code
}
