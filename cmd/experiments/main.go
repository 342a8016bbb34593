// Command experiments regenerates every figure in the paper and runs
// the scaling/ablation experiments its §V.C motivates. Each
// experiment has an ID (see DESIGN.md's experiment index); -run picks
// one or "all".
//
// Usage:
//
//	experiments [-run all|fig1|fig2|fig3|fig4|policies|preferences|e4|e5|e6|strategies|audit|e8|e11]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

type experiment struct {
	id   string
	desc string
	run  func()
}

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "experiment to run (or 'all')")
	flag.Parse()

	experiments := []experiment{
		{"fig1", "Figure 1 — the ten-step interaction", runFig1},
		{"fig2", "Figure 2 — building policy JSON", runFig2},
		{"fig3", "Figure 3 — service policy JSON", runFig3},
		{"fig4", "Figure 4 — privacy settings JSON", runFig4},
		{"policies", "Policies 1-4 as enforceable rules", runPolicies},
		{"preferences", "Preferences 1-4 enforcement outcomes", runPreferences},
		{"e4", "E4 — IoTA notification & learning", runE4},
		{"e5", "E5 — inference attacks vs enforcement", runE5},
		{"e6", "E6 — storage growth under retention", runE6},
		{"strategies", "A1 — conflict-resolution strategy ablation", runStrategies},
		{"audit", "A2 — per-user privacy audit", runAudit},
		{"e8", "E8 — longitudinal notification burden", runE8},
		{"e11", "E11 — enforced SQL queries shrink on mid-session opt-out", runE11},
	}

	matched := false
	for _, e := range experiments {
		if *run != "all" && *run != e.id {
			continue
		}
		matched = true
		fmt.Printf("\n================================================================\n")
		fmt.Printf("%s: %s\n", strings.ToUpper(e.id), e.desc)
		fmt.Printf("================================================================\n")
		e.run()
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
}
