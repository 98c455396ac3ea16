package core

import (
	"testing"
	"time"
	"unsafe"

	"wfrc/internal/arena"
)

func newDeferredScheme(t testing.TB, nodes, threads, links, vals, roots int) *Scheme {
	t.Helper()
	ar := arena.MustNew(arena.Config{
		Nodes: nodes, LinksPerNode: links, ValsPerNode: vals, RootLinks: roots,
	})
	return MustNew(ar, Config{Threads: threads, Deferred: true})
}

// TestDeferredFastPathCounts checks the deferred hot path's accounting:
// a pin-and-revalidate dereference records zero probes (so it can never
// trip the Lemma-2 gates) and leaves the shared count alone, and
// releasing it drops the pin without a counted decrement.
func TestDeferredFastPathCounts(t *testing.T) {
	s := newDeferredScheme(t, 8, 2, 1, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()

	x, err := th.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	th.StoreLink(root, arena.MakePtr(x, false))
	th.Release(x)

	before := s.ar.Ref(x).Load()
	p := th.DeRefLink(root)
	if p.Handle() != x {
		t.Fatalf("DeRefLink = %v, want %d", p, x)
	}
	st := th.Stats()
	if st.PinFastPaths != 1 {
		t.Errorf("PinFastPaths = %d, want 1", st.PinFastPaths)
	}
	if st.DeRefMaxSteps != 0 || st.AnnScanViolations != 0 {
		t.Errorf("fast path recorded steps=%d violations=%d, want 0/0", st.DeRefMaxSteps, st.AnnScanViolations)
	}
	if got := s.ar.Ref(x).Load(); got != before {
		t.Errorf("fast-path DeRef moved the shared count %d -> %d", before, got)
	}
	// Releasing the fast-path reference drops the pin without a counted
	// decrement: DeferredDecs stays at the one the Alloc guard's release
	// applied, and no ZCT candidate appears.
	pendingBefore := th.DeferredPending()
	th.Release(p.Handle())
	if st := th.Stats(); st.DeferredDecs != 1 {
		t.Errorf("DeferredDecs = %d, want 1 (only the alloc guard's release is counted)", st.DeferredDecs)
	}
	if n := th.DeferredPending(); n != pendingBefore {
		t.Errorf("ZCT candidates after pin release = %d, want %d", n, pendingBefore)
	}

	th.Flush()
	audit(t, s, nil)
	th.Unregister()
}

// TestDeferredScanViolationGateAgreement pins the satellite invariant
// that the two Lemma-2 gates agree on the deferred path: the violation
// counter (AnnScanViolations > 0, incremented exactly once per
// over-bound D1 scan; what the tests and the repository benchmark's
// core.ann_scan_violations read), and the chaos step-budget checker,
// which trips on DeRefMaxSteps > AnnScanBound(n) (NoteDeRef records raw
// probes).  A scan that exceeds the bound must therefore move BOTH
// counters, a bounded scan NEITHER, and the scheme's aggregate counter
// must equal the sum of the per-thread stats.
func TestDeferredScanViolationGateAgreement(t *testing.T) {
	s := newDeferredScheme(t, 8, 2, 1, 0, 1)
	tA := mustRegister(t, s)
	root := s.ar.NewRoot()
	bound := uint64(AnnScanBound(s.n))

	// Announced but unwedged: probes stay within the bound, so neither
	// gate may fire.
	s.TestingSetDeferredForceAnnounce(true)
	p := tA.DeRefLink(root)
	if !p.IsNil() {
		t.Fatalf("DeRef of empty root = %v", p)
	}
	st := tA.Stats()
	if st.AnnScanViolations != 0 || st.DeRefMaxSteps > bound {
		t.Fatalf("bounded scan: violations=%d maxSteps=%d (bound %d) — gates disagree",
			st.AnnScanViolations, st.DeRefMaxSteps, bound)
	}

	// Wedge every slot of the row: the D1 scan must overrun the bound.
	row := &s.ann[tA.ID()]
	for i := range row.slots {
		row.slots[i].busy.Add(1)
	}
	got := make(chan arena.Ptr)
	go func() { got <- tA.DeRefLink(root) }()
	deadline := time.Now().Add(5 * time.Second)
	for s.AnnScanViolations() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scan violation never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	for i := range row.slots {
		row.slots[i].busy.Add(-1)
	}
	<-got

	st = tA.Stats()
	// Violation-counter side: exactly one violation per over-bound scan,
	// no matter how many probes past the bound the scan burned.
	if st.AnnScanViolations != 1 {
		t.Errorf("thread AnnScanViolations = %d, want 1 (once per scan)", st.AnnScanViolations)
	}
	// The scheme aggregate the audit reports must equal the sum of the
	// per-thread stats.
	if s.AnnScanViolations() != st.AnnScanViolations {
		t.Errorf("scheme counter %d != thread stats counter %d",
			s.AnnScanViolations(), st.AnnScanViolations)
	}
	// Chaos-budget side: NoteDeRef recorded the raw probe count, so the
	// step budget (DeRefSteps = AnnScanBound(n) in chaos.DefaultBudgets)
	// fires on the same scan.
	if st.DeRefMaxSteps <= bound {
		t.Errorf("DeRefMaxSteps = %d, want > bound %d so the chaos budget fires with the violation",
			st.DeRefMaxSteps, bound)
	}

	s.TestingSetDeferredForceAnnounce(false)
	s.ResetAnnScanViolations()
	tA.Flush()
	audit(t, s, nil)
	tA.Unregister()
}

// TestOOMBroadcastReclaimsPeerSlack pins the footnote-4 amendment for
// the deferred variant: an allocator that exhausts the free-lists and
// finds nothing in its own ZCT must not declare out-of-memory while a
// peer's ZCT still holds enough zero-count nodes to refill the arena.
// The allocator broadcasts memory pressure (Scheme.memPressure) and
// yields; the peer answers from its next counted decrement with a
// flush.  Without the broadcast this configuration returns
// ErrOutOfMemory even though every missing node is reclaimable (the e8
// churn regression).
func TestOOMBroadcastReclaimsPeerSlack(t *testing.T) {
	const nodes = 64
	s := newDeferredScheme(t, nodes, 2, 1, 0, 1)
	hoarder := mustRegister(t, s)
	alloc := mustRegister(t, s)

	// The hoarder kills most of the arena: allocate, then release — the
	// nodes reach zero and wait in its ZCT, below the drain threshold,
	// so they stay off the free-lists.
	var dead []arena.Handle
	for {
		h, err := hoarder.Alloc()
		if err != nil {
			break
		}
		dead = append(dead, h)
		if len(dead) == nodes-8 {
			break
		}
	}
	if len(dead) < nodes/2 {
		t.Fatalf("hoarder only got %d of %d nodes", len(dead), nodes)
	}
	anchor := dead[0]
	for _, h := range dead[1:] {
		hoarder.Release(h)
	}

	// The hoarder keeps working on its one remaining node: each
	// ReleaseRef of a counted reference is a counted decrement and
	// therefore a broadcast check.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				hoarder.FixRef(anchor, 2)
				hoarder.ReleaseRef(anchor)
			}
		}
	}()

	// The allocator drains the free-lists dry and keeps going: the
	// broadcast must surface the hoarder's ZCT slack instead of
	// ErrOutOfMemory.
	var got []arena.Handle
	for len(got) < nodes/2 {
		h, err := alloc.Alloc()
		if err != nil {
			t.Fatalf("Alloc after %d nodes: %v (OOM broadcast not answered)", len(got), err)
		}
		got = append(got, h)
	}

	close(stop)
	<-done
	for _, h := range got {
		alloc.Release(h)
	}
	hoarder.Release(anchor)
	hoarder.Flush()
	alloc.Flush()
	hoarder.Flush()
	audit(t, s, nil)
	alloc.Unregister()
	hoarder.Unregister()
}

// TestDeferredSlackBound pins the deferred variant's per-thread
// reclamation slack: a counted release reaches the shared count at once,
// so nodes that die with no flush and no pin wait only in the thread's
// ZCT, which drains itself at zctDrainThreshold.  200 dead nodes must
// therefore leave fewer than zctDrainThreshold candidates pending.
func TestDeferredSlackBound(t *testing.T) {
	s := newDeferredScheme(t, 512, 2, 1, 0, 1)
	th := mustRegister(t, s)
	var dead []arena.Handle
	for i := 0; i < 200; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		dead = append(dead, h)
	}
	for _, h := range dead {
		th.Release(h)
	}
	if f := th.Stats().DeferredFlushes; f != 0 {
		t.Fatalf("%d flushes ran, want none (the bound must hold without one)", f)
	}
	if n := th.DeferredPending(); n >= zctDrainThreshold {
		t.Errorf("%d of 200 dead nodes pending with no flush, want < zctDrainThreshold (%d)", n, zctDrainThreshold)
	}
	th.Flush()
	audit(t, s, nil)
	th.Unregister()
}

// TestPinSetLayout: a 2-way pin-cache set divides a cache line and sits
// at a multiple of its own size inside Thread, so the open-coded pin hit
// in DeRefLink reads one line, never two.
func TestPinSetLayout(t *testing.T) {
	set := unsafe.Sizeof(pinEntry{}) * pinWays
	if 64%set != 0 {
		t.Fatalf("a %d-way pin set is %d bytes, which does not divide a 64-byte line", pinWays, set)
	}
	if off := unsafe.Offsetof(Thread{}.pinCache); off%set != 0 {
		t.Fatalf("pinCache at offset %d of Thread is not a multiple of the %d-byte set", off, set)
	}
}
