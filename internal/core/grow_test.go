package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"wfrc/internal/arena"
)

// TestAllocGrowsPastInitialCapacity allocates far beyond segment 0's
// capacity: the footnote-4 path must splice refill chains instead of
// reporting out-of-memory, and the quiescent audit must hold across the
// attached segments.
func TestAllocGrowsPastInitialCapacity(t *testing.T) {
	for _, deferred := range []bool{false, true} {
		name := "immediate"
		if deferred {
			name = "deferred"
		}
		t.Run(name, func(t *testing.T) {
			ar := arena.MustNew(arena.Config{Nodes: 8, MaxNodes: 2048, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
			s := MustNew(ar, Config{Threads: 2, Deferred: deferred})
			if !s.Growable() {
				t.Fatal("scheme over growable arena reports Growable()==false")
			}
			th := mustRegisterT(t, s)
			defer th.Unregister()

			const want = 500
			held := make([]arena.Handle, 0, want)
			extra := map[arena.Handle]int{}
			for i := 0; i < want; i++ {
				h, err := th.AllocNode()
				if err != nil {
					t.Fatalf("alloc %d on growable arena: %v", i, err)
				}
				held = append(held, h)
				extra[h]++
			}
			if s.Segments() < 2 {
				t.Fatalf("only %d segment(s) attached after %d allocations from an 8-node segment 0", s.Segments(), want)
			}
			if s.Capacity() <= 8 || s.Capacity() > s.MaxCapacity() {
				t.Fatalf("capacity %d out of range (8, %d]", s.Capacity(), s.MaxCapacity())
			}
			if st := th.Stats(); st.GrowRefills == 0 || st.SegmentAttaches == 0 {
				t.Fatalf("stats did not record growth: %+v", st)
			}
			if errs := s.Audit(extra); len(errs) != 0 {
				t.Fatalf("audit with held nodes across segments: %v", errs)
			}
			for _, h := range held {
				th.ReleaseRef(h)
			}
			th.Flush()
			if errs := s.Audit(nil); len(errs) != 0 {
				t.Fatalf("audit after release: %v", errs)
			}
		})
	}
}

// TestFixedArenaStillOOMs pins the pre-growable behaviour: a fixed
// arena must keep returning ErrOutOfMemory once drained.
func TestFixedArenaStillOOMs(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 4, LinksPerNode: 1})
	s := MustNew(ar, Config{Threads: 1})
	if s.Growable() {
		t.Fatal("fixed arena reports growable")
	}
	th := mustRegisterT(t, s)
	defer th.Unregister()
	var held []arena.Handle
	for {
		h, err := th.AllocNode()
		if err == ErrOutOfMemory {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	if len(held) == 0 || len(held) > 4 {
		t.Fatalf("drained %d nodes from a 4-node arena", len(held))
	}
	for _, h := range held {
		th.ReleaseRef(h)
	}
}

// TestOOMDetectionBoundedAndRecoverable holds the paper's footnote-4
// rule (DESIGN.md §4, E7/E7b) for NR_THREADS in {1, 2, 4, 8, 16}: with
// the arena drained, Alloc reports ErrOutOfMemory after at most
// AllocRetryLimit()+1 loop iterations — wait-freedom survives the
// failure case — and the verdict is not sticky.  A growable arena
// routes the same verdict through the growth escape hatch first:
// allocations keep succeeding while segments attach, and out-of-memory
// is reported only with every segment up to MaxNodes attached.
func TestOOMDetectionBoundedAndRecoverable(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, growable := range []bool{false, true} {
			acfg, name := arena.Config{Nodes: n}, fmt.Sprintf("fixed/n=%d", n)
			if growable {
				acfg, name = arena.Config{Nodes: n, MaxNodes: n + 128}, fmt.Sprintf("growable/n=%d", n)
			}
			t.Run(name, func(t *testing.T) {
				ar := arena.MustNew(acfg)
				s := MustNew(ar, Config{Threads: n})
				th := mustRegisterT(t, s)
				defer th.Unregister()

				var held []arena.Handle
				var err error
				for {
					var h arena.Handle
					if h, err = th.Alloc(); err != nil {
						break
					}
					held = append(held, h)
				}
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatalf("exhaustion reported %v, want ErrOutOfMemory", err)
				}
				if len(held) == 0 || len(held) > ar.MaxNodes() {
					t.Fatalf("drained %d nodes from an arena of at most %d", len(held), ar.MaxNodes())
				}
				if budget := uint64(s.AllocRetryLimit()) + 1; th.Stats().AllocMaxSteps > budget {
					t.Errorf("out-of-memory took %d alloc steps, bound %d", th.Stats().AllocMaxSteps, budget)
				}
				if growable {
					if len(held) <= n || s.Segments() < 2 {
						t.Errorf("exhausted after %d allocations over %d segment(s) without growing past the initial %d nodes",
							len(held), s.Segments(), n)
					}
					if ar.Nodes() != ar.MaxNodes() {
						t.Errorf("out-of-memory with %d of %d nodes attached", ar.Nodes(), ar.MaxNodes())
					}
				} else if s.Segments() != 1 {
					t.Errorf("fixed arena attached %d segments", s.Segments())
				}

				// Release everything: some nodes may sit parked in other
				// slots' annAlloc cells (grants), so a single free need not
				// make this thread's next allocation succeed; all must.
				for _, h := range held {
					th.Release(h)
				}
				h, err := th.Alloc()
				if err != nil {
					t.Fatalf("alloc after releasing everything: %v", err)
				}
				th.Release(h)
				audit(t, s, nil)
			})
		}
	}
}

// TestLeakAuditAcrossSegments is the ISSUE-7 regression test: the leak
// audit must cover nodes that live in segments attached at runtime,
// not only the construction-time universe.
func TestLeakAuditAcrossSegments(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 8, MaxNodes: 2048, LinksPerNode: 1, RootLinks: 1})
	s := MustNew(ar, Config{Threads: 2})
	th := mustRegisterT(t, s)
	defer th.Unregister()

	var leaked arena.Handle
	extra := map[arena.Handle]int{}
	var held []arena.Handle
	for i := 0; i < 300; i++ {
		h, err := th.AllocNode()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
		extra[h]++
		leaked = h
	}
	if s.Segments() < 2 {
		t.Fatalf("test needs >= 2 segments, got %d", s.Segments())
	}
	if seg0 := ar.Segments()[0]; leaked >= seg0.First && leaked <= seg0.Last {
		t.Fatalf("leak candidate %d is in segment 0; want a grown-segment node", leaked)
	}
	// Sanity: with every held node declared, the audit is clean.
	if errs := s.Audit(extra); len(errs) != 0 {
		t.Fatalf("pre-leak audit: %v", errs)
	}
	// Simulate a lost release: the node's count drops to zero but nobody
	// runs the reclamation CAS, so it reaches no free-list.
	ar.Ref(leaked).Store(0)
	delete(extra, leaked)
	errs := s.Audit(extra)
	if len(errs) == 0 {
		t.Fatal("leak audit missed a leaked node in a grown segment")
	}
	// Restore and drain cleanly.
	ar.Ref(leaked).Store(2)
	extra[leaked]++
	for _, h := range held {
		th.ReleaseRef(h)
	}
	if errs := s.Audit(nil); len(errs) != 0 {
		t.Fatalf("post-restore audit: %v", errs)
	}
}

// TestGrowConcurrentAllocFree races allocation bursts (forcing segment
// attaches) against releases on the same growable scheme; run under
// -race in CI.
func TestGrowConcurrentAllocFree(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 16, MaxNodes: 1 << 14, LinksPerNode: 1, ValsPerNode: 1})
	s := MustNew(ar, Config{Threads: 4})
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th, err := s.RegisterCore()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			var held []arena.Handle
			for i := 0; i < 5000; i++ {
				h, err := th.AllocNode()
				if err != nil {
					// Ceiling under imbalance: release and continue.
					for _, hh := range held {
						th.ReleaseRef(hh)
					}
					held = held[:0]
					continue
				}
				held = append(held, h)
				if len(held) >= 64 {
					for _, hh := range held {
						th.ReleaseRef(hh)
					}
					held = held[:0]
				}
			}
			for _, hh := range held {
				th.ReleaseRef(hh)
			}
		}()
	}
	wg.Wait()
	if errs := s.Audit(nil); len(errs) != 0 {
		t.Fatalf("post-race audit (%d errors), first: %v", len(errs), errs[0])
	}
	if s.Segments() < 2 {
		t.Fatalf("race run attached only %d segment(s)", s.Segments())
	}
}

func mustRegisterT(t *testing.T, s *Scheme) *Thread {
	t.Helper()
	th, err := s.RegisterCore()
	if err != nil {
		t.Fatal(err)
	}
	return th
}
