package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wfrc/internal/arena"
)

// TestFixedArenaStillOOMs: a drained arena keeps returning
// ErrOutOfMemory.
func TestFixedArenaStillOOMs(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 4, LinksPerNode: 1})
	s := MustNew(ar, Config{Threads: 1})
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
// failure case — and the verdict is not sticky.
func TestOOMDetectionBoundedAndRecoverable(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		t.Run(fmt.Sprintf("fixed/n=%d", n), func(t *testing.T) {
			ar := arena.MustNew(arena.Config{Nodes: n})
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
			if len(held) == 0 || len(held) > ar.Nodes() {
				t.Fatalf("drained %d nodes from an arena of %d", len(held), ar.Nodes())
			}
			if budget := uint64(s.AllocRetryLimit()) + 1; th.Stats().AllocMaxSteps > budget {
				t.Errorf("out-of-memory took %d alloc steps, bound %d", th.Stats().AllocMaxSteps, budget)
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

// TestLeakAuditAcrossSegments: the leak audit covers the whole arena,
// not only the nodes near handle 1 (the name predates the flat arena):
// a node deep in a 2048-node arena whose count drops to zero without
// reaching a free structure is reported.
func TestLeakAuditAcrossSegments(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 2048, LinksPerNode: 1, RootLinks: 1})
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
		t.Fatalf("leak audit missed leaked node %d", leaked)
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

// TestGrowConcurrentAllocFree races allocation bursts against releases
// on an arena smaller than one thread's burst, so every burst ends in
// the out-of-memory verdict under contention; each allocator releases
// and carries on, and the quiescent audit must then hold.  Run under
// -race in CI.  (The name predates the fixed arena, when the bursts
// attached segments instead.)
func TestGrowConcurrentAllocFree(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 48, LinksPerNode: 1, ValsPerNode: 1})
	s := MustNew(ar, Config{Threads: 4})
	var ooms atomic.Int64
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
					ooms.Add(1)
					for _, hh := range held {
						th.ReleaseRef(hh)
					}
					held = held[:0]
					continue
				}
				held = append(held, h)
			}
			for _, hh := range held {
				th.ReleaseRef(hh)
			}
		}()
	}
	wg.Wait()
	if ooms.Load() == 0 {
		t.Fatal("no allocation met the out-of-memory verdict")
	}
	if errs := s.Audit(nil); len(errs) != 0 {
		t.Fatalf("post-race audit (%d errors), first: %v", len(errs), errs[0])
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
