package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   time.Duration // measuring time (the contract's --seconds)
	warmup    time.Duration // discarded closed-loop time before any window
	trace     bool
	setups    int       // set-ups per run; setup_s is their median
	ladderOps int       // ops replayed per ladder rung
	outDir    string    // build outputs and trace files
	workers   int       // W
	log       io.Writer // the human-readable report
}

func isKV(workload string) bool { return workload == wlKVGetRTT || workload == wlKVResp }

// What a run is made of besides its measured window.  The package test
// shortens all three through runConfig.
const (
	warmupTime   = 3 * time.Second // closed-loop time discarded before the window
	ladderReplay = 200000          // ops of the stream replayed against each ladder rung
	setupRepeats = 9               // complete set-ups per run; setup_s is their median
)

// Validity gates: a run beyond these is not a measurement.
const (
	maxFailedShare = 0.01
	minHitShare    = 0.99
)

// runWorkload sets the system up (several times, for a steady setup_s),
// warms it, measures, verifies, and returns the result line.  The error
// return is for runs that could not complete; a run that completed but
// failed verification returns Correct == false.
func runWorkload(cfg runConfig) (result, error) {
	host := readHost()
	logf := func(format string, args ...any) { fmt.Fprintf(cfg.log, format, args...) }
	logf("workload %s  seed %d  trace %v  W=%d\n", cfg.workload, cfg.seed, cfg.trace, cfg.workers)
	logf("host: nproc=%d GOMAXPROCS=%d %s kernel %s\n", host.NProc, host.GOMAXPROCS, host.GoVersion, host.Kernel)
	logf("op-stream hash (first 4096 ops/worker): %016x\n", streamHash(cfg.workload, cfg.seed, cfg.workers, 4096))

	var problems []string
	kvBin := ""
	if isKV(cfg.workload) {
		var err error
		if kvBin, err = buildKV(cfg.outDir); err != nil {
			return result{}, err
		}
	}
	setup := func() (system, error) {
		if isKV(cfg.workload) {
			return setupKV(cfg.workload, kvBin, cfg.outDir, cfg.seed, cfg.workers)
		}
		return setupInproc(cfg.workload, cfg.seed, cfg.workers)
	}

	// Set up cfg.setups times and keep the last, so setup_s is a median
	// and not one cold reading.  Every discarded set-up still goes through
	// finish, so its audit (or drain exit code) counts towards
	// verification.
	var sys system
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			if err := sys.finish(); err != nil {
				problems = append(problems, fmt.Sprintf("set-up %d teardown: %v", i, err))
			}
			sys = nil
			runtime.GC() // so peak RSS is not a sum of discarded arenas
		}
		t0 := time.Now()
		var err error
		if sys, err = setup(); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	logf("setup_s: median of %d set-ups %v\n", len(setups), setups)
	done := false
	defer func() {
		if !done {
			sys.finish() // error path: release the server process
		}
	}()

	warm, err := sys.run(cfg.warmup, nil, nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}
	// The warm-up's rate sizes the latency sampler: room for one slice
	// at twice that rate, allocated and touched before any window.
	perWorker := float64(warm.attempted) / warm.elapsed.Seconds() / float64(cfg.workers)
	samplerFor := func(slice time.Duration) *sampler {
		return newSampler(cfg.workers, int(perWorker*slice.Seconds()*sys.samplesPerOp()*2)+4096)
	}

	res := result{}
	vals := map[string]float64{}
	var windows []window
	if !cfg.trace {
		slice := cfg.seconds / windowSlices
		wins, err := measure(sys, slice, windowSlices, samplerFor(slice), nil)
		if err != nil {
			return result{}, fmt.Errorf("window: %w", err)
		}
		windows = wins
		sum := summarize(wins)
		logWindows(cfg.log, "measured", wins)
		vals["throughput_ops_s"] = sum.throughput
		vals["latency_p50_us"] = sum.p50 / 1e3
		vals["cpu_us_per_op"] = sum.sutCPUPerOp * 1e6
		vals["peak_rss_mb"] = sum.peakRSS
		vals["setup_s"] = median(setups)
		res.Metrics = fill(endToEnd, vals)
	} else {
		// The traced run measures a reference window first, so the cost
		// of tracing is a difference taken inside one process on one
		// warmed system, then the traced window, then the ladder.
		slice := cfg.seconds / 4 / tracedSlices
		refWins, err := measure(sys, slice, tracedSlices, samplerFor(slice), nil)
		if err != nil {
			return result{}, fmt.Errorf("reference window: %w", err)
		}
		logWindows(cfg.log, "reference (untraced)", refWins)
		sys.beginTrace()
		c0, err := sys.counters()
		if err != nil {
			return result{}, err
		}
		tr := newTracer(cfg.workers)
		tracedWins, err := measure(sys, slice, tracedSlices, nil, tr)
		if err != nil {
			return result{}, fmt.Errorf("traced window: %w", err)
		}
		logWindows(cfg.log, "traced", tracedWins)
		c1, err := sys.counters()
		if err != nil {
			return result{}, err
		}
		windows = append(refWins, tracedWins...)
		ref, traced := summarize(refWins), summarize(tracedWins)

		lad := newLadder(cfg.workload, cfg.seed, cfg.workers, cfg.ladderOps, cfg.seconds/8)
		if err := lad.run(); err != nil {
			problems = append(problems, fmt.Sprintf("ladder: %v", err))
		}
		for k, v := range lad.m {
			vals[k] = v
		}
		windowMetrics(vals, cfg.workload, ref, traced, c0, c1)
		path, err := tr.write(cfg.outDir, cfg.workload, host, cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		logSpans(cfg.log, tr, path)
		logLadder(cfg.log, cfg.workload, vals, ref)
		if vals["core.ann_scan_violations"] != 0 {
			problems = append(problems, "core.ann_scan_violations is not 0")
		}
		if vals["slotpool.audit_violations"] != 0 {
			problems = append(problems, "slotpool.audit_violations is not 0")
		}
		res.Metrics = fill(perLayer, vals)
	}

	done = true
	if err := sys.finish(); err != nil {
		problems = append(problems, fmt.Sprintf("end-of-run verification: %v", err))
	}
	total := summarize(windows)
	res.Attempted, res.Failed = total.attempted, total.failed
	if total.dropped > 0 {
		problems = append(problems, fmt.Sprintf("%d latency samples overflowed the recorder", total.dropped))
	}
	if res.Attempted == 0 {
		problems = append(problems, "no operation was attempted")
	} else if share := float64(res.Failed) / float64(res.Attempted); share > maxFailedShare {
		problems = append(problems, fmt.Sprintf("failed share %.4f exceeds %.2f", share, maxFailedShare))
	}
	if isKV(cfg.workload) && total.reads > 0 {
		if share := float64(total.hits) / float64(total.reads); share < minHitShare {
			problems = append(problems, fmt.Sprintf("GET hit share %.4f below %.2f: the prefill did not hold", share, minHitShare))
		}
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		logf("INVALID: %s\n", p)
	}
	logf("attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	logMetrics(cfg.log, res.Metrics, windows[0].samples)
	return res, nil
}

// A window is cut into equal slices, run back to back on the same warmed
// system, and every windowed metric is the median over the slices: a
// neighbour's burst or one GC cycle lands in a slice or two and the
// median ignores it, where a mean over the whole window would not.
const (
	windowSlices = 10 // the untraced window
	tracedSlices = 5  // the traced run's reference and traced windows, each
)

func measure(sys system, slice time.Duration, n int, smp *sampler, tr *tracer) ([]window, error) {
	wins := make([]window, 0, n)
	for i := 0; i < n; i++ {
		w, err := sys.run(slice, smp, tr)
		if err != nil {
			return nil, err
		}
		wins = append(wins, w)
	}
	return wins, nil
}

// summary folds a window's slices: medians for rates and latencies,
// sums for counts, the maximum for the maximum, the last reading for the
// high-water mark.
type summary struct {
	throughput, p50, p99, p999, maxNS float64
	sutCPUPerOp, clientCPUPerOp       float64 // seconds
	attempted, failed, reads, hits    uint64
	ok                                uint64
	dropped                           int
	peakRSS                           float64
}

func summarize(wins []window) summary {
	var s summary
	col := func(f func(w window) float64) float64 {
		v := make([]float64, len(wins))
		for i, w := range wins {
			v[i] = f(w)
		}
		return median(v)
	}
	perOp := func(cpu float64, w window) float64 { return cpu / float64(max(w.ok(), 1)) }
	s.throughput = col(window.throughput)
	s.p50 = col(func(w window) float64 { return w.p50 })
	s.p99 = col(func(w window) float64 { return w.p99 })
	s.p999 = col(func(w window) float64 { return w.p999 })
	s.sutCPUPerOp = col(func(w window) float64 { return perOp(w.sutCPU, w) })
	s.clientCPUPerOp = col(func(w window) float64 { return perOp(w.clientCPU, w) })
	for _, w := range wins {
		s.attempted += w.attempted
		s.failed += w.failed
		s.reads += w.reads
		s.hits += w.hits
		s.ok += w.ok()
		s.dropped += w.dropped
		s.maxNS = max(s.maxNS, w.maxNS)
		s.peakRSS = w.peakRSS
	}
	return s
}

// windowMetrics derives the per-layer metrics that come from the traced
// window itself: counter deltas over the ops it completed, the
// lifecycle guard, and the generator's own figures.
func windowMetrics(vals map[string]float64, workload string, ref, traced summary, c0, c1 layerCounters) {
	ops := float64(max(traced.ok, 1))
	s0, s1 := &c0.stats, &c1.stats
	per := func(a, b uint64, scale float64) float64 { return float64(b-a) / ops * scale }
	vals["core.derefs_per_op"] = per(s0.DeRefs, s1.DeRefs, 1)
	vals["core.allocs_per_op"] = per(s0.Allocs, s1.Allocs, 1)
	vals["core.frees_per_op"] = per(s0.Frees, s1.Frees, 1)
	vals["core.help_scans_per_op"] = per(s0.HelpScans, s1.HelpScans, 1)
	vals["core.helps_per_mop"] = per(s0.HelpsGiven, s1.HelpsGiven, 1e6)
	vals["core.cas_failures_per_kop"] = per(s0.CASFailures, s1.CASFailures, 1e3)
	vals["core.deferred_flushes_per_kop"] = per(s0.DeferredFlushes, s1.DeferredFlushes, 1e3)
	vals["core.deferred_decs_per_op"] = per(s0.DeferredDecs, s1.DeferredDecs, 1)
	if d := s1.DeRefs - s0.DeRefs; d > 0 {
		vals["core.pin_fastpath_share"] = float64(s1.PinFastPaths-s0.PinFastPaths) / float64(d)
	}
	// Maxima and violation counts are since set-up, not window deltas:
	// a bound broken during prefill is still a broken bound.
	vals["core.deref_max_steps"] = float64(s1.DeRefMaxSteps)
	vals["core.alloc_max_steps"] = float64(s1.AllocMaxSteps)
	vals["core.free_max_steps"] = float64(s1.FreeMaxSteps)
	vals["core.ann_scan_violations"] = float64(s1.AnnScanViolations)

	vals["mm.floating_hwm_nodes"] = float64(c1.life.FloatingHWM)
	vals["mm.unreclaimed_end_nodes"] = float64(c1.life.Floating)
	vals["mm.reclaim_lag_p99_us"] = float64(c1.life.Lag.P99NS) / 1e3

	if isKV(workload) {
		// Server-side counters of the real binary, over the wire, replace
		// the ladder's stand-ins (its loopback server, its generator rung).
		p0, p1 := c0.pool, c1.pool
		p1.LeasesBatched -= p0.LeasesBatched
		p1.BatchedOps -= p0.BatchedOps
		vals["slotpool.batch_factor"] = batchFactor(p1)
		vals["slotpool.lease_wait_p99_us"] = c1.pool.WaitP99Ns / 1e3
		vals["slotpool.busy_rejects"] = float64(c1.busy)
		vals["slotpool.audit_violations"] = float64(c1.pool.Violations)
		vals["client.cpu_us_per_op"] = ref.clientCPUPerOp * 1e6
	}
	vals["client.latency_p99_us"] = ref.p99 / 1e3
	vals["client.latency_p999_us"] = ref.p999 / 1e3
	vals["client.latency_max_us"] = ref.maxNS / 1e3
	if ref.throughput > 0 {
		vals["trace.overhead_share"] = (ref.throughput - traced.throughput) / ref.throughput
	}
}

// logWindows prints each slice of a window: what was run, and how
// steady it was, before any median is taken.
func logWindows(w io.Writer, label string, wins []window) {
	for i, win := range wins {
		fmt.Fprintf(w, "%s slice %d/%d: %.3fs  attempted %d  failed %d  %.1f ops/s  sut cpu %.3fs  client cpu %.3fs",
			label, i+1, len(wins), win.elapsed.Seconds(), win.attempted, win.failed, win.throughput(), win.sutCPU, win.clientCPU)
		if win.reads > 0 {
			fmt.Fprintf(w, "  read hit share %.4f", float64(win.hits)/float64(win.reads))
		}
		if win.samples > 0 {
			fmt.Fprintf(w, "  p50 %.0f ns  p99 %.0f ns  (n=%d)", win.p50, win.p99, win.samples)
		}
		fmt.Fprintln(w)
	}
}

// logMetrics prints every metric by name with its unit; samples is the
// latency sample count reported beside the percentiles.
func logMetrics(w io.Writer, metrics map[string]metricValue, samples int) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %s", name, m.Value, m.Unit)
		switch name {
		case "latency_p50_us", "client.latency_p99_us", "client.latency_p999_us", "client.latency_max_us":
			fmt.Fprintf(w, "  (n=%d)", samples)
		}
		fmt.Fprintln(w)
	}
}

func logSpans(w io.Writer, tr *tracer, path string) {
	fmt.Fprintf(w, "spans written to %s; mean duration over the traced window:\n", path)
	for name := 0; name < spCount; name++ {
		if mean, n := tr.meanNS(name); n > 0 {
			fmt.Fprintf(w, "  %-22s %12.1f ns  (n=%d)\n", spanNames[name], mean, n)
		}
	}
}

// logLadder prints the rungs top-down with their self times: where one
// operation's nanoseconds go.
func logLadder(w io.Writer, workload string, m map[string]float64, ref summary) {
	r := ladderRungs(workload, m)
	fmt.Fprintf(w, "layer ladder (%s; ns per op, self = rung minus the rung beneath):\n", r.shape)
	row := func(rung, name string, total, self float64) {
		fmt.Fprintf(w, "  %-2s %-34s %12.1f  self %12.1f\n", rung, name, total, self)
	}
	row("1", fmt.Sprintf("core %.1f x DeRef+Release", m["ds.list.nodes_per_lookup"]), r.core, r.core)
	row("2", "ds.hashmap Get (ds.list walk)", m["ds.hashmap.get_ns"], m["ds.hashmap.get_ns"]-r.core)
	row("3", r.storeName, r.store, r.store-m["ds.hashmap.get_ns"])
	row("4", r.leaseName, r.lease, r.lease)
	row("5", "value Alloc+Free (64 B)", m["value.alloc_free_ns"], m["value.alloc_free_ns"])
	row("6", r.codecName, r.codec, r.codec)
	row("7", "loopback server, telemetry off", m["server.rtt_inproc_ns"], m["server.net_self_ns"])
	row("8", "loopback server, telemetry on", m["rtt_telemetry_ns"], m["rtt_telemetry_ns"]-m["server.rtt_inproc_ns"])
	if isKV(workload) {
		real := ref.p50
		if workload == wlKVResp {
			real /= respDepth
		}
		row("9", "wfrc-kv binary (client p50)", real, real-m["rtt_telemetry_ns"])
	}
	fmt.Fprintf(w, "  rung 1-7 self times (clamped at 0) sum to %.3f of the loopback round trip\n", m["server.ladder_closure_share"])
}
