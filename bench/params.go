package main

// Run parameters. Every result carries them, and two results are only
// comparable when they are equal: a number measured at another dataset
// size, on another host or filesystem, or in quick mode says nothing
// about this one.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type params struct {
	Workload string `json:"workload"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	// Quick marks a smoke-sized run; it is never comparable with a
	// full-sized one (the sizes below differ too).
	Quick bool `json:"quick"`
	sizing
	DatasetSeed    int64   `json:"dataset_seed"`
	BatchSize      int     `json:"batch_size"`
	ZipfS          float64 `json:"zipf_s"`
	VerifyEvery    int     `json:"verify_every"`
	ProbeRequests  int     `json:"probe_requests"`
	SetupRepeats   int     `json:"setup_repeats"`
	Engine         string  `json:"engine"`
	WALSync        string  `json:"wal_sync"`
	TraceSampleOne int     `json:"trace_sample_one_in"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	CPU            string  `json:"cpu"`
	DataDirFS      string  `json:"data_dir_fs"`
	// Commit identifies the code measured. It is the one field two
	// comparable results are expected to differ in.
	Commit string `json:"commit"`
}

// comparable reports whether a and b may be compared, and if not, the
// first parameter (by name) they differ in.
func comparable(a, b params) (bool, string) {
	a.Commit, b.Commit = "", ""
	var fa, fb map[string]json.RawMessage
	if json.Unmarshal(mustJSON(a), &fa) != nil || json.Unmarshal(mustJSON(b), &fb) != nil {
		return false, "unreadable params"
	}
	names := make([]string, 0, len(fa))
	for name := range fa {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !bytes.Equal(fa[name], fb[name]) {
			return false, fmt.Sprintf("%s: %s vs %s", name, fa[name], fb[name])
		}
	}
	return true, ""
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the toolchain stamped into the binary;
// a checkout that is not a repository has none.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
