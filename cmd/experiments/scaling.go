package main

import (
	"fmt"
	"log"
	"time"

	"github.com/tippers/tippers/internal/iota"
	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/policy"
)

// runE4: notification fatigue control and the preference model's
// learning curve.
func runE4() {
	// Part 1: notifications surfaced under different daily budgets for
	// the same 40-resource building walk.
	fmt.Println("part 1 — fatigue control: notices surfaced from 40 fresh resources")
	fmt.Printf("%12s %12s %12s\n", "budget/day", "notified", "suppressed")
	for _, budget := range []int{1, 3, 10, 40} {
		a, err := iota.New(iota.Config{
			UserID: "mary", DailyBudget: budget,
			Clock: func() time.Time { return simDay },
		})
		if err != nil {
			log.Fatal(err)
		}
		doc := syntheticResourceDoc(40)
		notices := a.ProcessDocument(doc)
		fmt.Printf("%12d %12d %12d\n", budget, len(notices), a.Suppressed())
	}

	// Part 2: learning curve — prediction accuracy of the preference
	// model against a ground-truth persona as feedback accumulates.
	fmt.Println("\npart 2 — preference model learning curve (persona: objects to")
	fmt.Println("marketing/analytics and long retention, accepts operations)")
	fmt.Printf("%10s %12s\n", "examples", "accuracy")
	persona := func(f iota.Features) bool {
		for _, p := range f.Purposes {
			if p == policy.PurposeMarketing || p == policy.PurposeAnalytics {
				return true
			}
		}
		return f.Retention >= iota.RetentionForever
	}
	// Train and test share the feature space (10 purposes × 4
	// retention buckets); the curve measures feature-level
	// generalization, not memorization of specific resources.
	train := syntheticResourceDoc(200).Resources
	test := syntheticResourceDoc(100).Resources
	model := iota.NewPrefModel()
	evaluate := func() float64 {
		correct := 0
		for _, res := range test {
			f := iota.FeaturesOf(res)
			if (model.ObjectionProbability(f) > 0.5) == persona(f) {
				correct++
			}
		}
		return float64(correct) / float64(len(test))
	}
	fmt.Printf("%10d %11.0f%%\n", 0, evaluate()*100)
	for i, res := range train {
		f := iota.FeaturesOf(res)
		model.Learn(f, persona(f))
		if n := i + 1; n == 5 || n == 10 || n == 25 || n == 50 || n == 100 || n == 200 {
			fmt.Printf("%10d %11.0f%%\n", n, evaluate()*100)
		}
	}
	fmt.Println("\nshape: accuracy climbs from the 50% uncertainty floor toward the")
	fmt.Println("persona within tens of labeled examples (Liu et al.'s regime).")
}

// syntheticResourceDoc builds n distinct advertisements cycling over
// purposes and retention periods.
func syntheticResourceDoc(n int) policy.ResourceDocument {
	purposes := policy.AllPurposes()
	retentions := []string{"P1D", "P1M", "P6M", "P5Y"}
	var doc policy.ResourceDocument
	for i := 0; i < n; i++ {
		p := purposes[i%len(purposes)]
		ret := isodur.MustParse(retentions[i%len(retentions)])
		doc.Resources = append(doc.Resources, policy.Resource{
			Info: policy.Info{Name: fmt.Sprintf("resource-%03d", i)},
			Purpose: policy.PurposeBlock{Entries: map[policy.Purpose]policy.PurposeDetail{
				p: {Description: string(p)},
			}},
			Observations: []policy.ObservationDesc{{Name: "wifi_access_point"}},
			Retention:    &policy.RetentionBlock{Duration: ret},
		})
	}
	return doc
}
