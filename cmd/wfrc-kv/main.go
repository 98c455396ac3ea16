// Command wfrc-kv serves the wait-free KV store over TCP: one arena,
// one wait-free scheme instance and one hashmap, whose fixed thread
// slots an unbounded population of client connections shares through
// the internal/slotpool lease layer.
//
//	wfrc-kv -addr :7700 -slots 8
//	wfrc-kv -addr :7700 -obs-addr :7701       # plus /metrics, /trace, /spans
//
// Tracing is always on: every request gets a span in a wait-free flight
// recorder (-spans bounds the window), every help event lands in a ring
// (-trace) stamped with the helper's and helpee's active span IDs, and
// per-op latency histograms are exported on /metrics.  SIGQUIT
// dumps the flight recorder (spans joined with help events) to
// -flight-dump without stopping the server; a failed shutdown audit
// dumps it too, so the evidence survives the crash.
//
// On SIGTERM or SIGINT the server drains gracefully — in-flight
// requests finish, leases are released, the scheme is audited —
// and the process exits 0 only if the audits found zero leaks and zero
// announcement-row violations.  CI's smoke job relies on that exit
// code.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wfrc/internal/chaos"
	"wfrc/internal/core"
	"wfrc/internal/obs"
	"wfrc/internal/server"
	"wfrc/internal/slotpool"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr       = flag.String("addr", ":7700", "listen address for the KV protocol (native and RESP auto-detected per connection)")
		respAddr   = flag.String("resp-addr", "", "optional second listener, conventionally :6379 for stock Redis tools; both listeners speak both protocols")
		maxValue   = flag.Int("max-value", 16384, "largest RESP value payload in bytes (variable-size value layer); 0 disables it, native-only")
		obsAddr    = flag.String("obs-addr", "", "serve /metrics and /debug/pprof on this address")
		slots      = flag.Int("slots", 8, "thread slots of the scheme (NR_THREADS) = leasable connection slots")
		nodes      = flag.Int("nodes", 1<<18, "arena size in nodes, fixed for the server's life: the store's whole capacity, live keys plus per-slot slack (README \"Capacity model\")")
		buckets    = flag.Int("buckets", 0, "hashmap buckets (power of two); 0 derives them from -nodes, one bucket per 4 nodes")
		leaseWait  = flag.Duration("lease-max-wait", 2*time.Second, "how long a request waits for a slot before Busy")
		drainWait  = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
		chaosSeed  = flag.Int64("chaos-seed", 0, "seed for lease-lifecycle chaos injection")
		chaosDelay = flag.Float64("chaos-delay-prob", 0, "probability of an injected spin delay at each lease hook point")
		chaosYield = flag.Float64("chaos-gosched-prob", 0, "probability of an injected preemption storm at each lease hook point")
		traceN     = flag.Int("trace", 4096, "help-event ring capacity (0 disables help tracing)")
		helpStir   = flag.Int("help-stir", 0, "testing aid: stall every Nth announcement window (core line D4) for a few µs so the helping path actually fires under load; 0 disables")
		spansN     = flag.Int("spans", 8192, "flight-recorder capacity in completed request spans (0 disables span tracing)")
		memSample  = flag.Duration("mem-sample", time.Second, "memory-lifecycle sampling interval for the published snapshot (0 disables the periodic sampler; INFO and STATS still sample on demand)")
		flightPath = flag.String("flight-dump", "wfrc-kv-flight.json", "flight-recorder dump destination for SIGQUIT/audit-failure (\"-\" = stderr)")
		profLabels = flag.Bool("pprof-labels", true, "attach a pprof label (op) to request handling")
	)
	flag.Parse()

	cfg := server.Config{
		Store: server.StoreConfig{
			Slots:    *slots,
			Nodes:    *nodes,
			Buckets:  *buckets,
			MaxValue: *maxValue,
		},
		LeaseMaxWait: *leaseWait,
	}
	var inj *chaos.Injector
	if *chaosDelay > 0 || *chaosYield > 0 {
		inj = chaos.NewInjector(*chaosSeed, chaos.Faults{
			DelayProb:   *chaosDelay,
			GoschedProb: *chaosYield,
		})
		cfg.Hook = func(slotpool.Point) { inj.Perturb() }
	}

	var ring *obs.TraceRing
	if *traceN > 0 {
		ring = obs.NewTraceRing(*traceN)
	}
	var spans *obs.SpanTracer
	if *spansN > 0 {
		spans = obs.NewSpanTracer(*slots, *spansN, server.OpNames, server.StatusNames)
		cfg.Spans = spans
	}
	cfg.ProfLabels = *profLabels

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	scheme := srv.Store().CoreSchemes()[0] // the store's one scheme
	if ring != nil {
		// Help events land in the ring; the span IDs carried as thread
		// tags make them joinable against /spans.
		scheme.SetHelpTracer(ring.CoreTracer())
	}
	if *helpStir > 0 {
		// The natural D3..D6 announcement window is a few nanoseconds, so
		// helping is vanishingly rare in a smoke run.  Stirring parks the
		// announcer briefly inside the window on every Nth dereference,
		// giving a contending CASLink time to find and answer the
		// announcement (H1..H6) — CI's trace job uses it to prove the
		// span↔help join end to end.  Hooks must be installed before any
		// connection runs on the threads.
		for _, th := range srv.Pool().SlotThreads() {
			n := 0
			th.(*core.Thread).SetHook(func(p core.Point) {
				if p == core.PD4 {
					if n++; n%*helpStir == 0 {
						time.Sleep(20 * time.Microsecond)
					}
				}
			})
		}
	}

	// dumpFlight writes the flight recorder (recent spans joined with
	// recent help events) to -flight-dump.
	dumpFlight := func(reason string) {
		if spans == nil {
			return
		}
		if *flightPath == "-" {
			fmt.Fprintf(os.Stderr, "wfrc-kv: flight dump (%s):\n", reason)
			if err := obs.WriteFlightDump(os.Stderr, spans, ring); err != nil {
				fmt.Fprintf(os.Stderr, "wfrc-kv: flight dump: %v\n", err)
			}
			return
		}
		f, err := os.Create(*flightPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfrc-kv: flight dump: %v\n", err)
			return
		}
		werr := obs.WriteFlightDump(f, spans, ring)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "wfrc-kv: flight dump: %v\n", werr)
			return
		}
		fmt.Printf("wfrc-kv: flight recorder dumped to %s (%s)\n", *flightPath, reason)
	}

	if *obsAddr != "" {
		// The server's own collector backs both /metrics and the RESP INFO
		// command, so the two render the same snapshot.
		osrv, err := obs.Serve(*obsAddr, srv.Collector(), ring)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obs: %v\n", err)
			return 1
		}
		defer osrv.Close()
		osrv.SetSpans(spans)
		osrv.AddProm(srv.Pool().WriteProm)
		osrv.AddProm(srv.Store().WriteProm)
		osrv.AddProm(srv.Hists().WriteProm)
		osrv.AddProm(srv.WriteProm)
		osrv.AddProm(srv.MemCollector().WriteProm)
		fmt.Printf("observability: http://%s/metrics\n", osrv.Addr())
	}
	if *memSample > 0 {
		// Keep the published memory snapshot fresh so wfrc-top, INFO and
		// STATS read a recent sample without forcing one per probe.
		stopSampler := srv.MemCollector().Start(*memSample)
		defer stopSampler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("wfrc-kv: %d slots, %d nodes, %d buckets, listening on %s\n",
		*slots, *nodes, srv.Store().Buckets(), ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			dumpFlight("SIGQUIT")
		}
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if *respAddr != "" {
		rln, err := net.Listen("tcp", *respAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wfrc-kv: RESP listener on %s (redis-benchmark/redis-cli compatible)\n", rln.Addr())
		go func() { serveErr <- srv.Serve(rln) }()
	}

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case sig := <-sigs:
		fmt.Printf("wfrc-kv: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "wfrc-kv: shutdown audit FAILED: %v\n", err)
		// Keep the evidence: the flight recorder's recent spans and help
		// events are the post-mortem for whatever leaked.
		dumpFlight("audit failure")
		return 1
	}
	st := srv.Stats()
	fmt.Printf("wfrc-kv: drained clean — %d conns served, %d busy rejects, 0 leaks, 0 hygiene violations\n",
		st.ConnsTotal, st.Busy)
	if inj != nil {
		log := inj.Log()
		fmt.Printf("wfrc-kv: chaos injected %d delays, %d preemption storms\n", log.Delays, log.Goscheds)
	}
	return 0
}
