package obs

import (
	"strings"
	"sync"
	"testing"

	"wfrc/internal/mm"
)

func TestCollectorMergesPerScheme(t *testing.T) {
	c := NewCollector()
	var t0, t1, other mm.OpStats
	t0.NoteDeRef(1)
	t0.HelpsGiven = 2
	t1.NoteDeRef(5)
	t1.HelpsReceived = 2
	other.NoteAlloc(3)

	d0 := c.Attach("waitfree", 0, &t0)
	d1 := c.Attach("waitfree", 1, &t1)
	dOther := c.Attach("valois", 0, &other)

	snap := c.Snapshot()
	wf, ok := snap.Schemes["waitfree"]
	if !ok {
		t.Fatal("no waitfree scheme in snapshot")
	}
	if wf.DeRefs != 2 || wf.DeRefSteps != 6 || wf.DeRefMaxSteps != 5 {
		t.Errorf("waitfree merge = %+v", wf)
	}
	if got := wf.DeRefMaxThread(); got != 1 {
		t.Errorf("DeRefMaxThread = %d, want 1 (arg-max tagging)", got)
	}
	if wf.HelpsGiven != 2 || wf.HelpsReceived != 2 {
		t.Errorf("helps = %d/%d", wf.HelpsGiven, wf.HelpsReceived)
	}
	if vo := snap.Schemes["valois"]; vo.Allocs != 1 {
		t.Errorf("valois merge = %+v", vo)
	}
	if names := snap.SchemeNames(); len(names) != 2 || names[0] != "valois" || names[1] != "waitfree" {
		t.Errorf("SchemeNames = %v", names)
	}

	// Detaching removes the source from subsequent snapshots.
	d1()
	snap = c.Snapshot()
	if wf := snap.Schemes["waitfree"]; wf.DeRefs != 1 || wf.DeRefMaxSteps != 1 {
		t.Errorf("post-detach merge = %+v", wf)
	}
	d0()
	dOther()
	if snap := c.Snapshot(); len(snap.Schemes) != 0 {
		t.Errorf("post-detach-all schemes = %v", snap.Schemes)
	}
}

func TestCollectorGauges(t *testing.T) {
	c := NewCollector()
	v := int64(7)
	detach := c.AttachGauge("wfrc_core_ann_scan_violations", "waitfree", func() int64 { return v })
	snap := c.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 7 {
		t.Fatalf("gauges = %+v", snap.Gauges)
	}
	v = 9
	if got := c.Snapshot().Gauges[0].Value; got != 9 {
		t.Errorf("gauge re-read = %d, want 9", got)
	}
	detach()
	if got := len(c.Snapshot().Gauges); got != 0 {
		t.Errorf("gauges after detach = %d", got)
	}
}

// TestConcurrentSnapshotAndAttach exercises the registry's lock-free
// scrape path: snapshots run concurrently with attach/detach churn and
// must always see a consistent source list (run under -race).
func TestConcurrentSnapshotAndAttach(t *testing.T) {
	c := NewCollector()
	// Pre-populated, immutable stats blocks: the race being tested is on
	// the registry's source list, not on the counters themselves.
	blocks := make([]mm.OpStats, 16)
	for i := range blocks {
		blocks[i].NoteDeRef(uint64(i + 1))
	}

	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // churner 1: attach/detach even blocks
		defer wg.Done()
		for k := 0; k < iters; k++ {
			i := (k * 2) % len(blocks)
			d := c.Attach("a", i, &blocks[i])
			d()
		}
	}()
	go func() { // churner 2: attach/detach odd blocks under another label
		defer wg.Done()
		for k := 0; k < iters; k++ {
			i := (k*2 + 1) % len(blocks)
			d := c.Attach("b", i, &blocks[i])
			d()
		}
	}()
	go func() { // scraper
		defer wg.Done()
		for k := 0; k < iters; k++ {
			snap := c.Snapshot()
			for name, st := range snap.Schemes {
				if name != "a" && name != "b" {
					t.Errorf("unexpected scheme %q", name)
					return
				}
				if st.DeRefs == 0 {
					t.Error("snapshot saw an attached source with no data")
					return
				}
			}
		}
	}()
	wg.Wait()
	if got := len(c.Snapshot().Schemes); got != 0 {
		t.Errorf("sources remain after all detached: %d", got)
	}
}

// TestPromExpositionGolden locks the Prometheus text format: a fixed
// snapshot must render exactly the expected exposition, so accidental
// format drift is caught before a scrape config breaks.
func TestPromExpositionGolden(t *testing.T) {
	var st mm.OpStats
	st.NoteDeRef(1)
	st.NoteDeRef(1)
	st.NoteDeRef(3)
	st.HelpsGiven = 1
	st.AnnScanViolations = 0

	var merged mm.OpStats
	merged.AddTagged(&st, 2)

	snap := Snapshot{
		Schemes: map[string]mm.OpStats{"waitfree-rc": merged},
		Gauges:  []Gauge{{Name: "wfrc_core_ann_scan_violations", Scheme: "waitfree-rc", Value: 0}},
	}
	var b strings.Builder
	if err := WriteProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Spot-check the load-bearing lines exactly.
	for _, want := range []string{
		"# TYPE wfrc_derefs_total counter\n" + `wfrc_derefs_total{scheme="waitfree-rc"} 3`,
		`wfrc_helps_given_total{scheme="waitfree-rc"} 1`,
		`wfrc_ann_scan_violations_total{scheme="waitfree-rc"} 0`,
		"# TYPE wfrc_deref_max_steps gauge\n" + `wfrc_deref_max_steps{scheme="waitfree-rc"} 3`,
		`wfrc_deref_max_thread{scheme="waitfree-rc"} 2`,
		"# TYPE wfrc_deref_steps histogram",
		`wfrc_deref_steps_bucket{scheme="waitfree-rc",le="0"} 0`,
		`wfrc_deref_steps_bucket{scheme="waitfree-rc",le="1"} 2`,
		`wfrc_deref_steps_bucket{scheme="waitfree-rc",le="3"} 3`,
		`wfrc_deref_steps_bucket{scheme="waitfree-rc",le="+Inf"} 3`,
		`wfrc_deref_steps_sum{scheme="waitfree-rc"} 5`,
		`wfrc_deref_steps_count{scheme="waitfree-rc"} 3`,
		`wfrc_core_ann_scan_violations{scheme="waitfree-rc"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\nfull output:\n%s", want, out)
		}
	}

	// Histogram bucket counts must be cumulative and end at the count.
	if strings.Count(out, "wfrc_deref_steps_bucket") != mm.StepHistBuckets {
		t.Errorf("want %d deref bucket lines", mm.StepHistBuckets)
	}

	// Determinism: rendering twice gives identical bytes.
	var b2 strings.Builder
	if err := WriteProm(&b2, snap); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is not deterministic")
	}
}
