// Command wfrc-load is a load generator for wfrc-kv.  It opens more
// concurrent connections than the server has thread slots (that is the
// point: the slotpool must multiplex them), churns connections so slot
// leases cycle through many lessees, applies a configurable key skew,
// and reports client-side latency plus the server-side lease and shard
// counters it reads back through the STATS protocol op.
//
//	wfrc-load -addr 127.0.0.1:7700 -conns 32 -duration 10s
//	wfrc-load -addr 127.0.0.1:7700 -out BENCH_kv.json          # schema-v5 report
//	wfrc-load -proto resp -value-size 512                      # drive the RESP front-end
//	wfrc-load -rate 20000 -slo 2ms                             # open loop, CO-free
//
// Closed loop (default): each connection issues its next request as
// soon as the previous response lands, so offered load adapts to server
// speed and stalls hide in a thinner arrival stream.  Open loop
// (-rate): requests are due on a fixed schedule and every latency is
// measured from its *scheduled* instant — the coordinated-omission
// correction — so a server stall shows up as tail latency on every
// request queued behind it.  The report's open_loop section carries the
// fraction of requests that met -slo.
//
// The exit code is nonzero if the server reported any slot-reuse audit
// violations, or if the -out report fails its own schema check (which,
// for an open-loop run, requires the open_loop section), so CI can gate
// on it directly.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"wfrc/internal/obs"
	"wfrc/internal/resp"
	"wfrc/internal/server"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr      = flag.String("addr", "127.0.0.1:7700", "wfrc-kv address")
		proto     = flag.String("proto", "native", "wire protocol: native or resp")
		conns     = flag.Int("conns", 16, "concurrent connections (set this above the server's -slots)")
		duration  = flag.Duration("duration", 10*time.Second, "run length")
		keys      = flag.Uint64("keys", 4096, "key space size")
		skew      = flag.Float64("skew", 1.2, "zipf skew exponent (>1; <=1 selects uniform keys)")
		reads     = flag.Float64("reads", 0.6, "fraction of GET requests; the rest split SET/DEL/CAS (native) or SET/DEL (resp)")
		valueSize = flag.Int("value-size", 64, "SET payload bytes in -proto resp mode")
		perConn   = flag.Int("reqs-per-conn", 200, "requests before a connection is churned (lease handed back)")
		rate      = flag.Float64("rate", 0, "open-loop offered load in req/s across all connections (0 = closed loop)")
		slo       = flag.Duration("slo", time.Millisecond, "open-loop latency SLO for the under-SLO fraction")
		seed      = flag.Int64("seed", 1, "workload seed")
		out       = flag.String("out", "", "write the schema-v5 server report (JSON) here")
		maxHWM    = flag.Int64("max-floating-hwm", 0,
			"fail (exit 1) if the server's floating-garbage high-water mark, summed over shards, exceeds this node count (0 = no gate); CI derives the bound from the paper's Lemma 3")
	)
	flag.Parse()
	if *proto != "native" && *proto != "resp" {
		fmt.Fprintf(os.Stderr, "wfrc-load: -proto must be native or resp, got %q\n", *proto)
		return 1
	}
	openLoop := *rate > 0
	var interval time.Duration
	if openLoop {
		// Each worker owns a 1/conns slice of the arrival schedule.
		interval = time.Duration(float64(time.Second) * float64(*conns) / *rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
	}

	// One histogram column per connection, so every column has a single
	// writer; the rows are the four ops plus their union.  Quantiles are
	// bucket bounds, the maxima exact.
	opNames := []string{"get", "set", "del", "cas", "all"}
	const opAll = 4
	hists := obs.NewOpShardHist(opNames, *conns)
	type workerResult struct {
		underSLO  uint64
		lateSends uint64
		maxLag    time.Duration
		busy      uint64
		errs      uint64
		lastErr   error
	}
	results := make([]workerResult, *conns)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	for wkr := 0; wkr < *conns; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			res := &results[wkr]
			rng := rand.New(rand.NewSource(*seed + int64(wkr)*0x9E3779B9))
			var zipf *rand.Zipf
			if *skew > 1 {
				zipf = rand.NewZipf(rng, *skew, 1, *keys-1)
			}
			pick := func() uint64 {
				if zipf != nil {
					return zipf.Uint64()
				}
				return rng.Uint64() % *keys
			}
			payload := make([]byte, *valueSize)
			rng.Read(payload)

			var nc *server.Client
			var rc *resp.Client
			closeConn := func() {
				if nc != nil {
					nc.Close()
					nc = nil
				}
				if rc != nil {
					rc.Close()
					rc = nil
				}
			}
			defer closeConn()

			// doOp issues one request on the live connection, returning the
			// op index, whether the server pushed back Busy, and any error.
			doOp := func() (opIdx int, busy bool, err error) {
				k := pick()
				p := rng.Float64()
				if rc != nil {
					key := strconv.FormatUint(k, 10)
					var r resp.Reply
					switch {
					case p < *reads:
						opIdx = 0
						r, err = rc.Do("GET", key)
					case p < *reads+(1-*reads)*0.75:
						opIdx = 1
						r, err = rc.DoBytes([]byte("SET"), []byte(key), payload)
					default:
						opIdx = 2
						r, err = rc.Do("DEL", key)
					}
					if err == nil && r.IsError() {
						if strings.HasPrefix(string(r.Str), "BUSY") {
							return opIdx, true, nil
						}
						return opIdx, false, r.Err()
					}
					return opIdx, false, err
				}
				switch {
				case p < *reads:
					opIdx = 0
					_, _, err = nc.Get(k)
				case p < *reads+(1-*reads)*0.6:
					opIdx = 1
					_, err = nc.Set(k, k^0xdead)
				case p < *reads+(1-*reads)*0.85:
					opIdx = 2
					_, err = nc.Delete(k)
				default:
					opIdx = 3
					_, _, err = nc.CompareAndSet(k, k^0xdead, k^0xbeef)
				}
				if errors.Is(err, server.ErrBusy) {
					return opIdx, true, nil
				}
				return opIdx, false, err
			}

			n := uint64(0) // this worker's position in the arrival schedule
			for time.Now().Before(deadline) {
				if nc == nil && rc == nil {
					var err error
					if *proto == "resp" {
						rc, err = resp.Dial(*addr)
					} else {
						nc, err = server.Dial(*addr)
					}
					if err != nil {
						res.errs++
						res.lastErr = err
						time.Sleep(5 * time.Millisecond)
						continue
					}
				}
				for i := 0; i < *perConn && time.Now().Before(deadline); i++ {
					// sched is the instant this request's latency is measured
					// from: its due time on the open-loop schedule (even when
					// we are running behind), or "now" in closed loop.
					var sched time.Time
					if openLoop {
						sched = start.Add(time.Duration(n) * interval)
						n++
						if wait := time.Until(sched); wait > 0 {
							time.Sleep(wait)
						} else if lag := -wait; lag > 0 {
							res.lateSends++
							if lag > res.maxLag {
								res.maxLag = lag
							}
						}
					} else {
						sched = time.Now()
					}
					opIdx, busyRej, err := doOp()
					if busyRej {
						res.busy++
						time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
						if nc != nil {
							// A native Busy closes the connection's lease path;
							// redial.  RESP leases per batch, the conn stays good.
							closeConn()
						}
						break
					}
					if err != nil {
						res.errs++
						res.lastErr = err
						closeConn()
						break
					}
					d := time.Since(sched)
					hists.Record(opIdx, wkr, d)
					hists.Record(opAll, wkr, d)
					if d <= *slo {
						res.underSLO++
					}
				}
				// Churn: hand the slot lease back so another connection
				// (and audit pass) gets it.
				closeConn()
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var busy, errCount, underSLO, lateSends uint64
	var maxLag time.Duration
	var lastErr error
	for i := range results {
		busy += results[i].busy
		errCount += results[i].errs
		underSLO += results[i].underSLO
		lateSends += results[i].lateSends
		if results[i].maxLag > maxLag {
			maxLag = results[i].maxLag
		}
		if results[i].lastErr != nil {
			lastErr = results[i].lastErr
		}
	}
	all := hists.MergedOp(opAll)
	ops := all.Count
	if ops == 0 {
		fmt.Fprintf(os.Stderr, "wfrc-load: no request succeeded (last error: %v)\n", lastErr)
		return 1
	}

	stats, err := fetchStats(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfrc-load: reading server stats: %v\n", err)
		return 1
	}

	sec := &obs.BenchServer{
		Connections:     *conns,
		Slots:           int(stats.Pool.Slots),
		Ops:             ops,
		ElapsedNS:       elapsed.Nanoseconds(),
		OpsPerSec:       float64(ops) / elapsed.Seconds(),
		LatencyP50NS:    all.P50NS,
		LatencyP99NS:    all.P99NS,
		LatencyP999NS:   all.P999NS,
		LatencyMaxNS:    all.MaxNS,
		OpLatency:       map[string]obs.BenchOpLatency{},
		LeaseWaitP50NS:  stats.Pool.WaitP50Ns,
		LeaseWaitP99NS:  stats.Pool.WaitP99Ns,
		LeaseWaitMeanNS: stats.Pool.WaitMeanNs,
		Protocol:        *proto,
		BusyRejects:     busy + stats.Busy,
		Expiries:        stats.Pool.Expiries,
		AuditViolations: stats.Pool.Violations,
		Memory:          stats.Memory,
	}
	if openLoop {
		sec.OpenLoop = &obs.BenchOpenLoop{
			TargetRate:       *rate,
			AchievedRate:     sec.OpsPerSec,
			SLONS:            uint64(*slo),
			UnderSLOFraction: float64(underSLO) / float64(ops),
			LateSends:        lateSends,
			MaxSchedLagNS:    uint64(maxLag),
		}
	}
	for op, name := range opNames[:opAll] {
		snap := hists.MergedOp(op)
		sec.OpLatency[name] = obs.BenchOpLatency{
			Count:  snap.Count,
			P50NS:  snap.P50NS,
			P99NS:  snap.P99NS,
			P999NS: snap.P999NS,
			MaxNS:  snap.MaxNS,
		}
	}
	sec.SetShardOps(stats.ShardOps)

	mode := "closed loop"
	if openLoop {
		mode = fmt.Sprintf("open loop @ %.0f req/s", *rate)
	}
	fmt.Printf("wfrc-load: %s over %s, %d conns over %d slots, %.0f ops/s (%d ops in %v)\n",
		mode, *proto, sec.Connections, sec.Slots, sec.OpsPerSec, ops, elapsed.Round(time.Millisecond))
	fmt.Printf("  latency p50=%v p99=%v p999=%v max=%v\n",
		time.Duration(sec.LatencyP50NS), time.Duration(sec.LatencyP99NS),
		time.Duration(sec.LatencyP999NS), time.Duration(sec.LatencyMaxNS))
	if openLoop {
		fmt.Printf("  open loop: %.4f of requests under SLO %v; %d late sends, max sched lag %v\n",
			sec.OpenLoop.UnderSLOFraction, *slo, lateSends, maxLag.Round(time.Microsecond))
	}
	for _, name := range opNames[:opAll] {
		ol := sec.OpLatency[name]
		if ol.Count == 0 {
			continue
		}
		fmt.Printf("  %-5s n=%-8d p50=%v p99=%v p999=%v max=%v\n", name, ol.Count,
			time.Duration(ol.P50NS), time.Duration(ol.P99NS),
			time.Duration(ol.P999NS), time.Duration(ol.MaxNS))
	}
	fmt.Printf("  lease wait p50=%v p99=%v mean=%v; busy rejects=%d, expiries=%d, client errors=%d\n",
		time.Duration(sec.LeaseWaitP50NS), time.Duration(sec.LeaseWaitP99NS),
		time.Duration(sec.LeaseWaitMeanNS), sec.BusyRejects, sec.Expiries, errCount)
	fmt.Printf("  shard ops=%v balance=%.3f; audit violations=%d\n",
		sec.ShardOps, sec.ShardBalance, sec.AuditViolations)
	var floating, floatingHWM int64
	var lagP99 uint64
	if stats.Memory != nil {
		for _, ls := range stats.Memory.Schemes {
			floating += ls.Floating
			floatingHWM += ls.FloatingHWM
			if ls.Lag.P99NS > lagP99 {
				lagP99 = ls.Lag.P99NS
			}
		}
		fmt.Printf("  memory: floating=%d floating-hwm=%d reclaim-lag p99=%v (summed over %d shards)\n",
			floating, floatingHWM, time.Duration(lagP99), len(stats.Memory.Schemes))
	}
	if errCount > 0 && lastErr != nil {
		fmt.Printf("  last client error: %v\n", lastErr)
	}

	if *out != "" {
		// Validate the exact bytes about to be written: the check reads
		// raw keys, so a section dropped from the struct fails here, and
		// this is the one place that knows whether open_loop is owed.
		data, err := json.MarshalIndent(obs.NewBenchReport(sec), "", "  ")
		if err == nil {
			_, err = obs.ValidateBenchJSON(data, openLoop)
		}
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfrc-load: %s: %v\n", *out, err)
			return 1
		}
		fmt.Printf("  wrote %s (schema v%d, per-op latency included)\n", *out, obs.BenchSchemaVersion)
	}
	if sec.AuditViolations > 0 {
		fmt.Fprintf(os.Stderr, "wfrc-load: server reported %d slot-reuse audit violations\n", sec.AuditViolations)
		return 1
	}
	if *maxHWM > 0 {
		if stats.Memory == nil {
			fmt.Fprintln(os.Stderr, "wfrc-load: -max-floating-hwm set but the server reported no memory snapshot (old server build?)")
			return 1
		}
		if floatingHWM > *maxHWM {
			fmt.Fprintf(os.Stderr, "wfrc-load: floating-garbage HWM %d exceeds the Lemma-3 bound %d — retired nodes are outliving their reclamation budget\n",
				floatingHWM, *maxHWM)
			return 1
		}
		fmt.Printf("  floating-garbage HWM %d within bound %d\n", floatingHWM, *maxHWM)
	}
	return 0
}

// fetchStats reads the server-side counters over a fresh connection,
// retrying through transient Busy responses (the load just stopped;
// slots free up as lingering leases release or expire).
func fetchStats(addr string) (server.StatsReply, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		c, err := server.Dial(addr)
		if err != nil {
			return server.StatsReply{}, err
		}
		st, err := c.Stats()
		c.Close()
		if err == nil {
			return st, nil
		}
		lastErr = err
		if !errors.Is(err, server.ErrBusy) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return server.StatsReply{}, lastErr
}
