package core

import (
	"strings"
	"testing"
	"time"

	"wfrc/internal/arena"
)

// TestDeRefScanBoundedUnderPinnedSlot is the regression test for the
// unbounded D1 scan: a helper wedged between H4 and H6 pins one of the
// announcer's slots indefinitely, and every subsequent DeRef must still
// complete within AnnScanBound probes, on a different slot, with no
// violation recorded.
func TestDeRefScanBoundedUnderPinnedSlot(t *testing.T) {
	s := newScheme(t, 16, 4, 0, 0, 1)
	tA := mustRegister(t, s)
	tB := mustRegister(t, s)
	root := s.ar.NewRoot()

	x, _ := tB.Alloc()
	tB.StoreLink(root, arena.MakePtr(x, false))
	tB.Release(x)

	// A stalls mid-announcement so B's helper can pin the slot; B then
	// wedges at PH4 holding the pin, simulating a crashed helper.
	aAtD6 := make(chan struct{})
	aGo := make(chan struct{})
	aFired := false
	tA.SetHook(func(p Point) {
		if p == PD6 && !aFired {
			aFired = true
			close(aAtD6)
			<-aGo
		}
	})
	bAtH4 := make(chan struct{})
	bGo := make(chan struct{})
	bFired := false
	tB.SetHook(func(p Point) {
		if p == PH4 && !bFired {
			bFired = true
			close(bAtH4)
			<-bGo
		}
	})

	aGot := make(chan arena.Ptr)
	go func() { aGot <- tA.DeRefLink(root) }()
	<-aAtD6
	bDone := make(chan bool)
	go func() { bDone <- tB.CASLink(root, arena.MakePtr(x, false), arena.NilPtr) }()
	<-bAtH4 // B holds the pin and stays wedged

	close(aGo)
	p := <-aGot
	tA.Release(p.Handle())
	tA.SetHook(nil)

	pinned := s.ann[tA.ID()].index.Load()
	for k := 0; k < 100; k++ {
		q := tA.DeRefLink(root)
		if cur := s.ann[tA.ID()].index.Load(); cur == pinned {
			t.Fatalf("iteration %d reused pinned slot %d", k, pinned)
		}
		tA.Release(q.Handle())
	}
	if max := tA.Stats().DeRefMaxSteps; max > uint64(AnnScanBound(s.n)) {
		t.Errorf("DeRefMaxSteps = %d, exceeds AnnScanBound(%d) = %d", max, s.n, AnnScanBound(s.n))
	}
	if v := tA.Stats().AnnScanViolations; v != 0 {
		t.Errorf("AnnScanViolations = %d, want 0 (bound holds with one pinned slot)", v)
	}
	if v := s.AnnScanViolations(); v != 0 {
		t.Errorf("scheme AnnScanViolations = %d, want 0", v)
	}

	close(bGo)
	<-bDone
	audit(t, s, nil)
	tA.Unregister()
	tB.Unregister()
}

// TestAnnRowIndexNamesAnnouncedSlot pins the D2 contract that announce's
// skipped store relies on: while a dereference is in flight (read at the
// owner's PD4 hook) AnnRowIndex names the slot it announced in — slot 0
// on the first DeRef after Register, slot 1 while a helper parked at PH4
// holds slot 0 busy, slot 0 again once the pin drops — and it reads -1
// before the first announcement and after Unregister.
func TestAnnRowIndexNamesAnnouncedSlot(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		name := "immediate"
		if deferred {
			name = "deferred"
		}
		t.Run(name, func(t *testing.T) {
			ar := arena.MustNew(arena.Config{Nodes: 16, RootLinks: 1})
			s := MustNew(ar, Config{Threads: 4, Deferred: deferred})
			s.TestingSetDeferredForceAnnounce(deferred) // every DeRef announces
			tA := mustRegister(t, s)
			tB := mustRegister(t, s)
			root := ar.NewRoot()
			x, _ := tB.Alloc()
			tB.StoreLink(root, arena.MakePtr(x, false))
			tB.Release(x)

			if got := s.AnnRowIndex(tA.ID()); got != -1 {
				t.Fatalf("index after Register = %d, want -1", got)
			}
			// deRef runs one DeRef on A and returns the index its PD4 hook
			// read; with atD6 set it also sends that index from PD6 and
			// parks A there until stall is closed.
			deRef := func(atD6 chan<- int64, stall <-chan struct{}) int64 {
				idx := int64(-2)
				tA.SetHook(func(p Point) {
					switch {
					case p == PD4:
						idx = s.AnnRowIndex(tA.ID())
					case p == PD6 && atD6 != nil:
						atD6 <- idx
						<-stall
					}
				})
				p := tA.DeRefLink(root)
				tA.SetHook(nil)
				tA.Release(p.Handle())
				return idx
			}

			// The first DeRef announces in slot 0 and stalls at PD6 so B's
			// helper can find the announcement and pin slot 0 at PH4.
			aAtD6, aGo := make(chan int64), make(chan struct{})
			first := make(chan int64, 1)
			go func() { first <- deRef(aAtD6, aGo) }()
			select {
			case got := <-aAtD6:
				if got != 0 {
					close(aGo)
					t.Fatalf("first DeRef announced in %d, want 0", got)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("timed out waiting for A at PD6")
			}
			bAtH4, bGo := make(chan struct{}), make(chan struct{})
			bFired := false
			tB.SetHook(func(p Point) {
				if p == PH4 && !bFired {
					bFired = true
					close(bAtH4)
					<-bGo
				}
			})
			bDone := make(chan bool)
			go func() { bDone <- tB.CASLink(root, arena.MakePtr(x, false), arena.NilPtr) }()
			select {
			case <-bAtH4:
			case <-time.After(5 * time.Second):
				t.Fatal("timed out waiting for B's helper to pin A's announcement at PH4")
			}
			close(aGo)
			<-first

			if got := deRef(nil, nil); got != 1 {
				t.Errorf("DeRef with slot 0 pinned announced in %d, want 1", got)
			}
			close(bGo)
			if !<-bDone {
				t.Fatal("B's CASLink failed")
			}
			tB.SetHook(nil)
			if got := deRef(nil, nil); got != 0 {
				t.Errorf("DeRef after the pin dropped announced in %d, want 0", got)
			}

			tA.Unregister()
			if got := s.AnnRowIndex(tA.ID()); got != -1 {
				t.Errorf("index after Unregister = %d, want -1", got)
			}
			tB.Unregister()
			audit(t, s, nil)
		})
	}
}

// TestDeRefScanViolationSurfaced wedges every slot of a row (the state
// the wait-freedom proof says is unreachable) and checks the scan no
// longer spins silently: the violation shows up in the scheme's audit
// counter while the operation is still in flight, and the audit reports
// it after the fact.
func TestDeRefScanViolationSurfaced(t *testing.T) {
	s := newScheme(t, 8, 2, 0, 0, 1)
	tA := mustRegister(t, s)
	root := s.ar.NewRoot()
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
	select {
	case <-got:
		t.Fatal("DeRefLink returned with every slot busy")
	default:
	}

	// Unpin: the dereference must complete normally.
	for i := range row.slots {
		row.slots[i].busy.Add(-1)
	}
	select {
	case p := <-got:
		if !p.IsNil() {
			t.Errorf("DeRef of empty root = %v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DeRefLink did not complete after unpinning")
	}
	if tA.Stats().AnnScanViolations != 1 {
		t.Errorf("thread AnnScanViolations = %d, want 1", tA.Stats().AnnScanViolations)
	}

	// The audit must carry the violation...
	errs := s.Audit(nil)
	found := false
	for _, err := range errs {
		if strings.Contains(err.Error(), "wait-freedom bound") {
			found = true
		}
	}
	if !found {
		t.Errorf("audit did not report the scan violation: %v", errs)
	}
	// ...and be clean again once a deliberate wedge is acknowledged.
	s.ResetAnnScanViolations()
	audit(t, s, nil)
	tA.Unregister()
}

// TestHelpDeRefPanicReleasesPin injects a panic between H4 and H6 (the
// window where the helper holds a busy pin on the announcer's slot) and
// checks the pin is released on unwind — before the fix, the slot
// stayed pinned forever.
func TestHelpDeRefPanicReleasesPin(t *testing.T) {
	s := newScheme(t, 8, 2, 0, 0, 1)
	tA := mustRegister(t, s)
	tB := mustRegister(t, s)
	root := s.ar.NewRoot()

	x, _ := tB.Alloc()
	y, _ := tB.Alloc()
	tB.StoreLink(root, arena.MakePtr(x, false))
	tB.Release(x)

	aAtD6 := make(chan struct{})
	aGo := make(chan struct{})
	aFired := false
	tA.SetHook(func(p Point) {
		if p == PD6 && !aFired {
			aFired = true
			close(aAtD6)
			<-aGo
		}
	})
	aGot := make(chan arena.Ptr)
	go func() { aGot <- tA.DeRefLink(root) }()
	<-aAtD6 // A's announcement is posted, so B's help scan will pin it

	tB.SetHook(func(p Point) {
		if p == PH4 {
			panic("chaos: injected fault at PH4")
		}
	})
	panicked := false
	func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		tB.CASLink(root, arena.MakePtr(x, false), arena.MakePtr(y, false))
	}()
	if !panicked {
		t.Fatal("injected panic did not fire (announcement never pinned?)")
	}
	tB.SetHook(nil)

	slot := &s.ann[tA.ID()].slots[s.ann[tA.ID()].index.Load()]
	if got := slot.busy.Load(); got != 0 {
		t.Fatalf("slot busy = %d after helper panic, want 0 (pin released by defer)", got)
	}

	// A resumes: no helper answer arrived, so it keeps its own read.
	close(aGo)
	p := <-aGot
	if p.Handle() != x {
		t.Fatalf("A got %v, want its own read %d", p, x)
	}

	// The panic unwound CASLink after the raw CAS: the link now holds y
	// but the H7/old-release bookkeeping never ran.  Repair by hand so
	// the audit can certify the *pin* state, then verify quiescence.
	tA.Release(x)    // A's dereference
	tB.ReleaseRef(x) // the link reference CASLink would have released
	tB.Release(y)    // B's own guard from Alloc
	audit(t, s, nil)
	tA.Unregister()
	tB.Unregister()
}

// TestAnnouncementRowsStartAndResetUnregistered checks the annRow.index
// lifecycle: -1 before any announcement (the zero value 0 is a real slot
// index, so helpers would otherwise scan rows of threads that never
// registered) and -1 again after Unregister.
func TestAnnouncementRowsStartAndResetUnregistered(t *testing.T) {
	s := newScheme(t, 8, 3, 0, 0, 1)
	for i := 0; i < s.n; i++ {
		if got := s.ann[i].index.Load(); got != -1 {
			t.Errorf("fresh row %d index = %d, want -1", i, got)
		}
	}

	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	p := th.DeRefLink(root)
	th.Release(p.Handle())
	if got := s.ann[th.ID()].index.Load(); got < 0 || got >= int64(s.n) {
		t.Fatalf("row index after announcement = %d, want a valid slot", got)
	}
	id := th.ID()
	th.Unregister()
	if got := s.ann[id].index.Load(); got != -1 {
		t.Errorf("row index after Unregister = %d, want -1", got)
	}

	// A helper scanning now must skip every row (all indexes -1): no
	// pins taken, nothing answered, no crash.
	helper := mustRegister(t, s)
	helper.HelpDeRef(root)
	for i := 0; i < s.n; i++ {
		for j := range s.ann[i].slots {
			if b := s.ann[i].slots[j].busy.Load(); b != 0 {
				t.Errorf("slot [%d][%d] busy = %d after scan over unregistered rows", i, j, b)
			}
		}
	}
	if helper.Stats().HelpsGiven != 0 {
		t.Errorf("HelpsGiven = %d, want 0", helper.Stats().HelpsGiven)
	}
	helper.Unregister()
	audit(t, s, nil)
}
