package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// Verdicts of compare, per end-to-end metric × workload.
const (
	verdictWithin     = "within-bound"
	verdictOutside    = "OUTSIDE"
	verdictUnresolved = "UNRESOLVED"
)

// setupFloorS is setup_s's absolute allowance: a set-up of a few
// milliseconds may move by this much before its relative bound applies.
// BENCHMARK.json can only carry the relative bound, so the floor lives
// here, in the verdict this package computes.
const setupFloorS = 0.050

// verdict applies the no-regression rule: B's median may be worse than
// A's by at most bound (a share of A's median) or by floor (in the
// metric's unit), whichever is more.  Where either side's run-to-run
// spread is wider than that allowance the comparison cannot resolve a
// move of that size and is reported as unresolved, not as unchanged —
// unless every run of B reads better than every run of A.
func verdict(a, b []float64, higherBetter bool, bound, floor float64) (string, float64) {
	medA, medB := median(a), median(b)
	worse := 0.0
	if medA != 0 {
		worse = (medB - medA) / medA
		if higherBetter {
			worse = -worse
		}
		bound = max(bound, floor/medA)
	}
	if max(spreadShare(a), spreadShare(b)) > bound {
		allBetter := slices.Min(b) > slices.Max(a)
		if !higherBetter {
			allBetter = slices.Max(b) < slices.Min(a)
		}
		if !allBetter {
			return verdictUnresolved, worse
		}
	}
	if worse > bound {
		return verdictOutside, worse
	}
	return verdictWithin, worse
}

func loadReport(path string) (*reportFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r reportFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain prints, for every end-to-end metric × workload, each
// side's median and quartiles and the verdict against the bound that
// BENCHMARK.json fixes.  It exits 0 only when everything is within
// bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "../BENCHMARK.json", "the BENCHMARK.json that fixes the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := readBenchmarkSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	a, err := loadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	b, err := loadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	fmt.Printf("A: %s (W=%d)   B: %s (W=%d)\n", fs.Arg(0), a.Host.Workers, fs.Arg(1), b.Host.Workers)
	fmt.Printf("%-17s %-18s %5s %12s %12s %12s | %12s %12s %12s | %8s %6s  %s\n",
		"workload", "metric", "n", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "B worse", "bound", "verdict")
	bad := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.series(w.Name, m.Name), b.series(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-17s %-18s missing from one side\n", w.Name, m.Name)
				bad++
				continue
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			v, worse := verdict(va, vb, m.Better == "higher", m.Bound, floor)
			if v != verdictWithin {
				bad++
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Printf("%-17s %-18s %2d/%-2d %12.6g %12.6g %12.6g | %12.6g %12.6g %12.6g | %+7.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(va), len(vb), median(va), qa1, qa3, median(vb), qb1, qb3,
				100*worse, 100*m.Bound, v)
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric x workload pairs not within bound\n", bad)
		return 1
	}
	fmt.Println("every end-to-end metric x workload is within bound, none unresolved")
	return 0
}
