// Command wfrc-torture runs the chaos scenario suite — fault injection,
// schedule perturbation, thread stalls and simulated crashes — against
// the wait-free scheme and the baselines, enforcing the paper's
// wait-freedom step budgets (Lemmas 2 and 9) on the wait-free scheme and
// auditing the arena for leaks after every scenario.  It exits non-zero
// on any budget violation, leak, or scenario assertion failure; every
// failure report carries the seed needed to replay it:
//
//	wfrc-torture                                  # full suite, all schemes
//	wfrc-torture -scenario stall-all-but-one -scheme waitfree -seed 77
//	wfrc-torture -ops 200 -threads 4              # CI smoke
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"wfrc/internal/chaos"
	"wfrc/internal/obs"
	"wfrc/internal/schemes"
)

func main() {
	var (
		scenarioFlag = flag.String("scenario", "all", "scenario name(s), comma-separated, or 'all'")
		schemeFlag   = flag.String("scheme", "all", "scheme name(s), comma-separated, or 'all'")
		threads      = flag.Int("threads", 8, "worker goroutines per scenario")
		ops          = flag.Int("ops", 2000, "operations per worker")
		nodes        = flag.Int("nodes", 0, "arena size in nodes (0 = scenario default)")
		seed         = flag.Int64("seed", 1, "fault-injection seed (reports carry it for replay)")
		list         = flag.Bool("list", false, "list scenarios and schemes, then exit")
		obsAddr      = flag.String("obs-addr", "", "serve /metrics and /debug/pprof on this address during the run")
	)
	flag.Parse()

	var collector *obs.Collector
	if *obsAddr != "" {
		collector = obs.NewCollector()
		srv, err := obs.Serve(*obsAddr, collector, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics (also /debug/vars, /debug/pprof)\n", srv.Addr())
	}

	if *list {
		fmt.Println("scenarios:", strings.Join(chaos.ScenarioNames(), " "))
		fmt.Println("schemes:  ", strings.Join(schemes.Names(), " "))
		return
	}
	scenarios := chaos.ScenarioNames()
	if *scenarioFlag != "all" {
		scenarios = strings.Split(*scenarioFlag, ",")
	}
	schemeNames := schemes.Names()
	if *schemeFlag != "all" {
		schemeNames = strings.Split(*schemeFlag, ",")
	}
	sc := chaos.SuiteConfig{Threads: *threads, Ops: *ops, Nodes: *nodes, Seed: *seed}

	// The rows stay buffered until Flush (column widths need them all),
	// so FAIL lines on stderr never interleave with the table.
	tbl := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tbl, "scenario\tscheme\tresult\tops\tooms\tstalls\tviolations\telapsed")
	failed := false
	for _, scen := range scenarios {
		for _, scheme := range schemeNames {
			scSc := sc
			if collector != nil {
				label := scheme // capture per scheme for the live /metrics label
				scSc.OnRegister = func(t *chaos.Thread) func() {
					return collector.Attach(label, t.ID(), t.Stats())
				}
			}
			rep, err := chaos.RunScenario(scen, scheme, scSc)
			if err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %s/%s: %v\n", scen, scheme, err)
				failed = true
				continue
			}
			result := "ok"
			if rep.Failed() {
				result = "FAIL"
				failed = true
				for _, v := range rep.Violations {
					fmt.Fprintf(os.Stderr, "FAIL %s/%s: %v\n", scen, scheme, v)
				}
				for _, e := range rep.AuditErrs {
					fmt.Fprintf(os.Stderr, "FAIL %s/%s: audit: %v (replay with -seed %d)\n",
						scen, scheme, e, rep.Seed)
				}
				for _, e := range rep.Errs {
					fmt.Fprintf(os.Stderr, "FAIL %s/%s: %s (replay with -seed %d)\n",
						scen, scheme, e, rep.Seed)
				}
			}
			fmt.Fprintf(tbl, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%v\n", scen, scheme, result,
				rep.Ops, rep.OOMs, rep.Stalls, len(rep.Violations), rep.Elapsed.Round(1e6))
		}
	}
	fmt.Printf("== torture suite: %d threads x %d ops, seed %d ==\n", *threads, *ops, *seed)
	fmt.Println("budgets enforced on the wait-free scheme only; OOMs under stalls are informational")
	tbl.Flush()
	if failed {
		os.Exit(1)
	}
}
