package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/mm"
	"wfrc/internal/slotpool"
)

// clockBase anchors every latency timestamp; time.Since on it reads the
// monotonic clock only.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// sampleEvery is the in-process timing stride: one op in 32 is timed,
// chosen by the op counter and not by the RNG, so the timed share is the
// same on every run.  KV workloads time every round trip.
const sampleEvery = 32

// window is what one closed-loop phase measured.
type window struct {
	elapsed   time.Duration
	attempted uint64
	failed    uint64 // error reply, Busy, refused SET, or a value that fails verification
	reads     uint64
	hits      uint64 // reads that found their key
	// Latency of the window's successful, timed ops: sample count, the
	// samples that did not fit the recorder, and the quantiles in ns.
	samples, dropped      int
	p50, p99, p999, maxNS float64
	// sutCPU is the user+sys CPU the process hosting the system under
	// test burned during the window; clientCPU is this process's.  They
	// are the same number for in-process workloads.
	sutCPU    float64
	clientCPU float64
	// peakRSS is the hosting process's VmHWM in MB when the window ended.
	peakRSS float64
}

func (w window) ok() uint64 { return w.attempted - w.failed }

func (w window) throughput() float64 {
	if w.elapsed <= 0 {
		return 0
	}
	return float64(w.ok()) / w.elapsed.Seconds()
}

// workerTally is one worker's share of a window.
type workerTally struct {
	attempted, failed, reads, hits uint64
	err                            error
	_                              [8]uint64
}

// layerCounters is everything a system exposes from outside that the
// per-layer metrics are derived from: core OpStats (merged over
// threads), the lifecycle tracker's summary, and — where a server is
// involved — its slot-pool counters.
type layerCounters struct {
	stats mm.OpStats
	life  mm.LifecycleSnap
	pool  slotpool.Stats
	busy  uint64
}

// system is one workload's system under test plus its load generator.
type system interface {
	// run drives every worker's closed loop for d.  Latency samples go
	// to smp when it is non-nil; spans to tr when it is non-nil.
	run(d time.Duration, smp *sampler, tr *tracer) (window, error)
	// samplesPerOp is how many latency samples one op produces: 1/32
	// in-process (the timing stride) and for a 32-op pipelined batch, 1
	// for a native round trip.  It sizes the sampler.
	samplesPerOp() float64
	// sutPID is the process hosting the system under test.
	sutPID() int
	// beginTrace attaches whatever observation only the traced window
	// carries (the lifecycle tracker, in-process).
	beginTrace()
	// counters snapshots the layer counters.  Quiescent callers only.
	counters() (layerCounters, error)
	// finish runs the end-of-run verification (audit, drain exit code)
	// and releases everything the system holds.
	finish() error
}

// drive is the shared closed-loop phase runner: it releases the workers
// together, stops them after d, and folds their tallies.  body runs one
// worker until stop reads true, recording latency into rec and spans
// into lane when they are non-nil.
func drive(workers int, d time.Duration, smp *sampler, tr *tracer, sutPID int,
	body func(w int, stop *atomic.Bool, rec *recorder, lane *spanLane) workerTally) (window, error) {

	recs := make([]*recorder, workers)
	if smp != nil {
		smp.reset()
		copy(recs, smp.recs)
	}
	lanes := make([]*spanLane, workers)
	if tr != nil {
		for w := range lanes {
			lanes[w] = &tr.lanes[w]
		}
	}
	tallies := make([]workerTally, workers)
	var stop atomic.Bool
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			tallies[w] = body(w, &stop, recs[w], lanes[w])
		}(w)
	}
	self := os.Getpid()
	cpu0, err := procCPUSeconds(sutPID)
	if err != nil {
		return window{}, err
	}
	client0 := selfCPUSeconds()
	t0 := time.Now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	win := window{elapsed: time.Since(t0)}
	win.clientCPU = selfCPUSeconds() - client0
	if sutPID == self {
		// Getrusage resolves microseconds; /proc ticks are 10 ms.
		win.sutCPU = win.clientCPU
	} else {
		cpu1, err := procCPUSeconds(sutPID)
		if err != nil {
			return window{}, err
		}
		win.sutCPU = cpu1 - cpu0
	}
	if win.peakRSS, err = procPeakRSSMB(sutPID); err != nil {
		return window{}, err
	}
	for i := range tallies {
		if tallies[i].err != nil {
			return window{}, fmt.Errorf("worker %d: %w", i, tallies[i].err)
		}
		win.attempted += tallies[i].attempted
		win.failed += tallies[i].failed
		win.reads += tallies[i].reads
		win.hits += tallies[i].hits
	}
	if smp != nil {
		lat := smp.collect()
		win.samples, win.dropped = lat.count(), int(lat.dropped)
		win.p50, win.p99, win.p999 = lat.quantileNS(0.50), lat.quantileNS(0.99), lat.quantileNS(0.999)
		win.maxNS = lat.maxNS()
	}
	return win, nil
}
