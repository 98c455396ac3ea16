package obs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

// sampleMemCollector builds a collector with a deterministic shape: two
// trackers sharing the "alpha" label (the same-label merge case), one
// "beta" tracker carrying a dropped note, and two occupancy gauges.
// Only retires, no reclaims — reclaim lag is wall-clock time, so golden
// tests must keep every lag field at its zero value.
func sampleMemCollector() *LifecycleCollector {
	c := NewLifecycleCollector()
	tr1 := mm.NewLifecycleTracker(8)
	tr1.NoteRetired(1)
	tr1.NoteRetired(2)
	tr2 := mm.NewLifecycleTracker(8)
	tr2.NoteRetired(1)
	c.AttachTracker("alpha", tr1)
	c.AttachTracker("alpha", tr2)
	trB := mm.NewLifecycleTracker(4)
	trB.NoteRetired(1)
	trB.NoteRetired(99) // beyond the ceiling: counted as dropped
	c.AttachTracker("beta", trB)
	c.AttachMemGauge("wfrc_mem_zct_depth", "alpha", func() int64 { return 7 })
	c.AttachMemGauge("wfrc_mem_value_blocks_live", "values", func() int64 { return 3 })
	return c
}

func TestLifecycleCollectorSampleMerge(t *testing.T) {
	c := sampleMemCollector()
	snap := c.Sample()
	alpha, ok := snap.Schemes["alpha"]
	if !ok {
		t.Fatalf("no alpha scheme in %+v", snap.Schemes)
	}
	// Two trackers merged: counters and floating sum, and the summed HWM
	// stays an upper bound on the simultaneous peak.
	if alpha.Retired != 3 || alpha.Floating != 3 || alpha.FloatingHWM != 3 || alpha.Reclaimed != 0 {
		t.Fatalf("alpha merge: %+v", alpha)
	}
	beta := snap.Schemes["beta"]
	if beta.Retired != 1 || beta.Dropped != 1 {
		t.Fatalf("beta: %+v", beta)
	}
	if got := snap.SchemeNames(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("scheme names %v", got)
	}
	if len(snap.Gauges) != 2 {
		t.Fatalf("gauges %+v", snap.Gauges)
	}
	// Sorted by name: value_blocks before zct.
	if snap.Gauges[0].Name != "wfrc_mem_value_blocks_live" || snap.Gauges[0].Value != 3 ||
		snap.Gauges[1].Name != "wfrc_mem_zct_depth" || snap.Gauges[1].Scheme != "alpha" {
		t.Fatalf("gauge order %+v", snap.Gauges)
	}
	if c.Snapshot() != snap {
		t.Fatalf("Snapshot did not return the published sample")
	}
}

// TestMergeLifecycle checks the per-label merge of two trackers:
// counters sum, and the lag histograms sum bucket by bucket, so one
// tracker's slow reclaim moves the merged tail and maximum but not the
// merged median.  (Taking the larger tracker's p50 instead reported the
// single 4 ms reclaim as the median of 101.)
func TestMergeLifecycle(t *testing.T) {
	fast, slow := mm.NewLifecycleTracker(8), mm.NewLifecycleTracker(8)
	for i := 0; i < 100; i++ {
		fast.NoteRetired(1)
		fast.NoteReclaimed(1)
	}
	fast.NoteRetired(2) // still floating
	slow.NoteRetired(1)
	time.Sleep(4 * time.Millisecond)
	slow.NoteReclaimed(1)
	slow.NoteRetired(99) // beyond the ceiling: dropped
	c := NewLifecycleCollector()
	c.AttachTracker("alpha", fast)
	c.AttachTracker("alpha", slow)

	m := c.Sample().Schemes["alpha"]
	if m.Retired != 102 || m.Reclaimed != 101 || m.Floating != 1 || m.FloatingHWM != 2 || m.Dropped != 1 {
		t.Fatalf("counters: %+v", m)
	}
	lag := m.Lag
	if lag.Count != 101 {
		t.Fatalf("lag count = %d, want 101", lag.Count)
	}
	if lag.P50NS >= uint64(time.Millisecond) {
		t.Errorf("merged p50 = %d ns, want one of the 100 fast reclaims (< 1 ms): %+v", lag.P50NS, lag)
	}
	if lag.MaxNS < uint64(4*time.Millisecond) || lag.P99NS < lag.P50NS {
		t.Errorf("merged tail: %+v, want max >= 4 ms and p99 >= p50", lag)
	}
}

// TestLifecycleInfoSectionGolden pins the INFO "# Memory" wire format:
// key spelling, per-scheme ordering, dropped-line gating and gauge
// suffixing.  Retire-only trackers keep every lag value deterministic.
func TestLifecycleInfoSectionGolden(t *testing.T) {
	c := sampleMemCollector()
	c.Sample()
	var buf bytes.Buffer
	if err := writeInfoSection(&buf, c.InfoSection()); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# Memory",
		"alpha_retired:3",
		"alpha_reclaimed:0",
		"alpha_floating:3",
		"alpha_floating_hwm:3",
		"alpha_reclaim_lag_p50_ns:0",
		"alpha_reclaim_lag_p99_ns:0",
		"alpha_reclaim_lag_max_ns:0",
		"beta_retired:1",
		"beta_reclaimed:0",
		"beta_floating:1",
		"beta_floating_hwm:1",
		"beta_reclaim_lag_p50_ns:0",
		"beta_reclaim_lag_p99_ns:0",
		"beta_reclaim_lag_max_ns:0",
		"beta_lifecycle_dropped:1",
		"wfrc_mem_value_blocks_live_values:3",
		"wfrc_mem_zct_depth_alpha:7",
		"",
		"",
	}, "\r\n")
	if got := buf.String(); got != want {
		t.Fatalf("INFO Memory section:\n--- got ---\n%q\n--- want ---\n%q", got, want)
	}
}

// TestLifecycleWritePromGolden pins the Prometheus exposition: family
// names, HELP/TYPE lines, label rendering and the histogram's
// power-of-two second boundaries.  The bucket series is generated by
// the same le formula the exporter documents (2^(i+1) ns as seconds).
func TestLifecycleWritePromGolden(t *testing.T) {
	c := sampleMemCollector()
	var buf bytes.Buffer
	if err := c.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	counter := func(name, help string, alpha, beta uint64) {
		fmt.Fprintf(&want, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(&want, "%s{scheme=\"alpha\"} %d\n", name, alpha)
		fmt.Fprintf(&want, "%s{scheme=\"beta\"} %d\n", name, beta)
	}
	gauge := func(name, help string, alpha, beta int64) {
		fmt.Fprintf(&want, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		fmt.Fprintf(&want, "%s{scheme=\"alpha\"} %d\n", name, alpha)
		fmt.Fprintf(&want, "%s{scheme=\"beta\"} %d\n", name, beta)
	}
	counter("wfrc_mem_retired_total", "Nodes that became garbage (retire instants noted by the scheme).", 3, 1)
	counter("wfrc_mem_reclaimed_total", "Nodes whose memory returned to the free structures.", 0, 0)
	gauge("wfrc_mem_floating", "Retired-but-unreclaimed nodes right now (floating garbage; Lemma 3 bounds this).", 3, 1)
	gauge("wfrc_mem_floating_hwm", "High-water mark of wfrc_mem_floating (summed across trackers sharing a label: an upper bound).", 3, 1)
	counter("wfrc_mem_lifecycle_dropped_total", "Lifecycle notes dropped for handles beyond the tracker ceiling.", 0, 1)
	want.WriteString("# HELP wfrc_mem_reclaim_lag_seconds Retire-to-free lag per reclaimed node.\n# TYPE wfrc_mem_reclaim_lag_seconds histogram\n")
	for _, scheme := range []string{"alpha", "beta"} {
		for i := 0; i < mm.LatencyBuckets; i++ {
			le := "+Inf"
			if i < mm.LatencyBuckets-1 {
				le = fmt.Sprintf("%g", float64(uint64(1)<<(i+1))/1e9)
			}
			fmt.Fprintf(&want, "wfrc_mem_reclaim_lag_seconds_bucket{scheme=%q,le=%q} 0\n", scheme, le)
		}
		fmt.Fprintf(&want, "wfrc_mem_reclaim_lag_seconds_sum{scheme=%q} 0\n", scheme)
		fmt.Fprintf(&want, "wfrc_mem_reclaim_lag_seconds_count{scheme=%q} 0\n", scheme)
	}
	want.WriteString("# HELP wfrc_mem_value_blocks_live Scheme-level memory gauge.\n# TYPE wfrc_mem_value_blocks_live gauge\n")
	want.WriteString("wfrc_mem_value_blocks_live{scheme=\"values\"} 3\n")
	want.WriteString("# HELP wfrc_mem_zct_depth Scheme-level memory gauge.\n# TYPE wfrc_mem_zct_depth gauge\n")
	want.WriteString("wfrc_mem_zct_depth{scheme=\"alpha\"} 7\n")
	if got := buf.String(); got != want.String() {
		t.Fatalf("prom exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want.String())
	}
}

// TestLifecyclePromNonzeroLag checks the one thing the goldens cannot:
// a real retire→reclaim cycle lands in the histogram with a nonzero
// count and populates the INFO lag quantiles.
func TestLifecyclePromNonzeroLag(t *testing.T) {
	c := NewLifecycleCollector()
	tr := mm.NewLifecycleTracker(8)
	tr.NoteRetired(3)
	tr.NoteReclaimed(3)
	c.AttachTracker("alpha", tr)
	var buf bytes.Buffer
	if err := c.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "wfrc_mem_reclaim_lag_seconds_count{scheme=\"alpha\"} 1") {
		t.Fatalf("histogram count missing:\n%s", out)
	}
	if strings.Contains(out, "wfrc_mem_reclaim_lag_seconds_sum{scheme=\"alpha\"} 0\n") {
		t.Fatalf("lag sum stayed zero after a reclaim:\n%s", out)
	}
	snap := c.Sample()
	if lag := snap.Schemes["alpha"].Lag; lag.Count != 1 || lag.P50NS == 0 || lag.P99NS < lag.P50NS {
		t.Fatalf("lag quantiles %+v", lag)
	}
}

func TestLifecycleCollectorDetach(t *testing.T) {
	c := NewLifecycleCollector()
	tr := mm.NewLifecycleTracker(8)
	tr.NoteRetired(1)
	detachTr := c.AttachTracker("alpha", tr)
	detachG := c.AttachMemGauge("wfrc_mem_zct_depth", "alpha", func() int64 { return 1 })
	if snap := c.Sample(); len(snap.Schemes) != 1 || len(snap.Gauges) != 1 {
		t.Fatalf("before detach: %+v", snap)
	}
	detachTr()
	detachG()
	if snap := c.Sample(); len(snap.Schemes) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("after detach: %+v", snap)
	}
}

func TestLifecycleStartStop(t *testing.T) {
	c := NewLifecycleCollector()
	tr := mm.NewLifecycleTracker(8)
	c.AttachTracker("alpha", tr)
	stop := c.Start(time.Millisecond)
	tr.NoteRetired(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := c.snap.Load(); s != nil && s.Schemes["alpha"].Retired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never published the retire")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

// TestLifecycleSnapshotterDuringReclaim is the race-mode proof that the
// telemetry plane never synchronizes with the data plane: for every
// scheme, worker threads churn alloc→retire→release (driving the
// tracker's retire/reclaim notes from the schemes' own reclamation
// paths) while the periodic sampler, the Prometheus exporter and the
// INFO renderer all read concurrently.
func TestLifecycleSnapshotterDuringReclaim(t *testing.T) {
	const (
		workers = 4
		rounds  = 300
	)
	for _, f := range schemes.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			s, err := f.New(arena.Config{Nodes: 512, LinksPerNode: 2, ValsPerNode: 1, RootLinks: 1},
				schemes.Options{Threads: workers, RetireThreshold: 8})
			if err != nil {
				t.Fatal(err)
			}
			src, ok := s.(mm.LifecycleSource)
			if !ok {
				t.Fatalf("%s does not implement mm.LifecycleSource", f.Name)
			}
			tr := mm.NewLifecycleTracker(s.Arena().MaxNodes())
			src.SetLifecycleSink(tr)
			c := NewLifecycleCollector()
			c.AttachTracker(f.Name, tr)
			stopSampler := c.Start(time.Millisecond)
			defer stopSampler()

			stop := make(chan struct{})
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := c.WriteProm(io.Discard); err != nil {
							panic(err)
						}
						c.InfoSection()
						c.Sample()
					}
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				th, err := s.Register()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(th mm.Thread) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						// Alloc outside BeginOp: an allocator waiting for
						// memory inside a pinned epoch would livelock.
						h, err := th.Alloc()
						if err != nil {
							runtime.Gosched()
							continue
						}
						th.BeginOp()
						th.Retire(h)
						th.Release(h)
						th.EndOp()
					}
					schemes.Flush(th)
					th.Unregister()
				}(th)
			}
			wg.Wait()
			close(stop)
			readers.Wait()

			snap := tr.Snapshot()
			if snap.Retired == 0 {
				t.Fatalf("%s: no retires reached the tracker", f.Name)
			}
			if snap.Reclaimed > snap.Retired {
				t.Fatalf("%s: reclaimed %d > retired %d", f.Name, snap.Reclaimed, snap.Retired)
			}
			if snap.Floating < 0 {
				t.Fatalf("%s: floating went negative: %d", f.Name, snap.Floating)
			}
			if snap.Dropped != 0 {
				t.Fatalf("%s: %d notes dropped (tracker under-sized?)", f.Name, snap.Dropped)
			}
		})
	}
}
