// Command benchmark is the repository's measuring stick: four
// closed-loop workloads, from the paper's priority queue to the
// pipelined KV server, five end-to-end metrics, and a per-layer ladder.
// See README.md beside this file.
//
//	go run -C benchmark . --workload pq-churn --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . -runs 5            # every workload, fresh process each, plus traced runs
//	go run -C benchmark . compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs them all, one fresh process each")
		seed     = fs.Uint64("seed", 1, "workload seed: the same seed gives the same op stream")
		seconds  = fs.Float64("seconds", 20, "measuring time per run, in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced variant: spans, counters and the layer ladder")
		outDir   = fs.String("out", "out", "directory for the wfrc-kv build and the trace files")
		runs     = fs.Int("runs", 5, "all-workloads mode: untraced runs per workload, on seeds seed..seed+runs-1")
		report   = fs.String("report", "", "all-workloads mode: report file (default <out>/report.json)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" {
		if *report == "" {
			*report = filepath.Join(*outDir, "report.json")
		}
		return runAll(*seed, *seconds, *runs, *outDir, *report)
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	cfg := runConfig{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		warmup:    warmupTime,
		trace:     *trace != 0,
		setups:    setupRepeats,
		ladderOps: ladderReplay,
		outDir:    *outDir,
		workers:   workerCount(),
		log:       os.Stdout,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// reportRun is one run of the all-workloads report.
type reportRun struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// reportFile is what the all-workloads mode writes and compare reads.
type reportFile struct {
	Host    hostInfo    `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []reportRun `json:"runs"`
}

// runAll runs every workload: runs untraced runs each plus one traced
// run, every one in a fresh process (this binary re-executed), so RSS
// and GC state never leak from one workload into the next.
func runAll(seed uint64, seconds float64, runs int, outDir, reportPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep := reportFile{Host: readHost(), Seconds: seconds}
	failed := false
	child := func(workload string, s uint64, trace bool) {
		t := "0"
		if trace {
			t = "1"
		}
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t, "--out", outDir)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		out := strings.TrimRight(stdout.String(), "\n")
		last := out[strings.LastIndexByte(out, '\n')+1:]
		run := reportRun{Workload: workload, Seed: s, Trace: trace}
		if err := json.Unmarshal([]byte(last), &run.result); err != nil || runErr != nil || !run.Correct {
			failed = true
			fmt.Printf("%s\nFAILED: %s seed %d trace %v: %v\n", out, workload, s, trace, runErr)
			return
		}
		rep.Runs = append(rep.Runs, run)
		if trace {
			fmt.Println(out) // the ladder and the per-layer table
			return
		}
		fmt.Printf("%-17s seed %-4d", workload, s)
		for _, d := range endToEnd {
			fmt.Printf("  %s=%.5g", d.name, run.Metrics[d.name].Value)
		}
		fmt.Printf("  attempted=%d failed=%d\n", run.Attempted, run.Failed)
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloadNames {
			child(w, seed+uint64(r), false)
		}
	}
	for _, w := range workloadNames {
		child(w, seed, true)
	}
	printSummary(rep)
	b, err := json.MarshalIndent(rep, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(reportPath), 0o755); err == nil {
			err = os.WriteFile(reportPath, append(b, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("report written to", reportPath)
	if failed {
		return 1
	}
	return 0
}

// series collects one end-to-end metric's values over a workload's
// untraced runs.
func (r *reportFile) series(workload, metric string) []float64 {
	var v []float64
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Trace {
			if m, ok := run.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// spreadShare is the interquartile distance as a share of the median,
// the same spread the driver gates on.
func spreadShare(v []float64) float64 {
	med := median(v)
	if med == 0 || len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / med
}

func printSummary(rep reportFile) {
	fmt.Printf("\nsummary over untraced runs (host nproc=%d GOMAXPROCS=%d %s kernel %s, W=%d, %gs windows)\n",
		rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel, rep.Host.Workers, rep.Seconds)
	fmt.Printf("%-17s %-18s %5s %14s %14s %14s %8s\n", "workload", "metric", "runs", "median", "q1", "q3", "iqr/med")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			v := rep.series(w, d.name)
			if len(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			fmt.Printf("%-17s %-18s %5d %14.6g %14.6g %14.6g %8.4f  %s\n",
				w, d.name, len(v), median(v), q1, q3, spreadShare(v), d.unit)
		}
	}
}
