package schemes

import (
	"strings"
	"sync"
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// The tests in this file pin the behaviour every scheme gets from the
// shared kit in internal/mm (slot registry, free structures, lifecycle
// hook, orphan limbo) through nothing but the mm interfaces, so one
// table covers all seven schemes.

// errPrefix is the package name a factory's scheme puts in its errors.
func errPrefix(factory string) string {
	if strings.HasPrefix(factory, "waitfree") {
		return "core"
	}
	return factory
}

// freeWalker is implemented by every scheme for audits and tests.
type freeWalker interface {
	FreeNodes() map[arena.Handle]int
}

func newConformant(t *testing.T, f Factory, nodes, threads int) mm.Scheme {
	t.Helper()
	s, err := f.New(
		arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1},
		// The drain below holds every node at once, each under its own
		// hazard slot.
		Options{Threads: threads, RetireThreshold: 4, HazardSlots: nodes + 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRegister(t *testing.T, s mm.Scheme) mm.Thread {
	t.Helper()
	th, err := s.Register()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// drain allocates through th, the only registered thread, until the
// scheme reports exhaustion.  At quiescence every scheme's empty-list
// path reclaims all floating memory within its retry budget, so on
// return no node is retired-but-unreclaimed.
func drain(t *testing.T, th mm.Thread, nodes int) map[arena.Handle]bool {
	t.Helper()
	held := make(map[arena.Handle]bool)
	for len(held) <= nodes {
		h, err := th.Alloc()
		if err != nil {
			return held
		}
		if held[h] {
			t.Fatalf("node %d allocated twice", h)
		}
		held[h] = true
	}
	t.Fatalf("allocated %d nodes from an arena of %d", len(held), nodes)
	return nil
}

func TestConformanceRegistry(t *testing.T) {
	const threads = 3
	for _, f := range Factories() {
		t.Run(f.Name, func(t *testing.T) {
			s := newConformant(t, f, 8, threads)
			ths := make([]mm.Thread, threads)
			seen := make(map[int]bool)
			for i := range ths {
				ths[i] = mustRegister(t, s)
				id := ths[i].ID()
				if id < 0 || id >= threads || seen[id] {
					t.Fatalf("registration %d got slot %d (seen %v)", i, id, seen)
				}
				seen[id] = true
			}
			want := errPrefix(f.Name) + ": all 3 thread slots in use"
			if _, err := s.Register(); err == nil || err.Error() != want {
				t.Fatalf("registration %d: err = %v, want %q", threads+1, err, want)
			}
			freed := ths[1].ID()
			ths[1].Unregister()
			ths[1] = mustRegister(t, s)
			if ths[1].ID() != freed {
				t.Errorf("freed slot not reused: got %d, want %d", ths[1].ID(), freed)
			}
			for _, th := range ths {
				th.Unregister()
			}
		})
	}
}

// TestConformanceChurn churns a shared root from several threads with a
// lifecycle sink attached mid-run, then checks at quiescence that every
// node is accounted for exactly once and that the sink saw every retire
// it recorded reclaimed.
func TestConformanceChurn(t *testing.T) {
	const (
		// Well above what waitfree-deferred may hold back per thread (ZCT
		// 64 + sticky pins 64 nodes): its out-of-memory broadcast gives a
		// descheduled peer well under one OS time slice to answer, so a
		// smaller arena can report exhaustion while merely floating.
		nodes   = 2048
		workers = 3
	)
	iters := 4000
	if testing.Short() {
		iters = 400
	}
	for _, f := range Factories() {
		t.Run(f.Name, func(t *testing.T) {
			s := newConformant(t, f, nodes, workers+1)
			ar := s.Arena()
			root := ar.NewRoot()
			tr := mm.NewLifecycleTracker(ar.Nodes())
			survivor := mustRegister(t, s)

			half := make(chan struct{}) // closed once worker 0 is half way (or gave up)
			var halfOnce sync.Once
			var wg sync.WaitGroup
			ths := make([]mm.Thread, workers)
			for w := range ths {
				ths[w] = mustRegister(t, s)
				wg.Add(1)
				go func(w int, th mm.Thread) {
					defer wg.Done()
					if w == 0 {
						defer halfOnce.Do(func() { close(half) })
					}
					for k := 0; k < iters; k++ {
						if w == 0 && k == iters/2 {
							halfOnce.Do(func() { close(half) })
						}
						// Allocate before pinning: an allocator that waits
						// for memory while pinned would block reclamation.
						n, err := th.Alloc()
						if err != nil {
							t.Errorf("worker %d iter %d: %v", w, k, err)
							return
						}
						th.BeginOp()
						old := th.DeRef(root)
						if th.CASLink(root, old, arena.MakePtr(n, false)) {
							th.Retire(old.Handle())
						} else {
							th.Retire(n) // lost the race; recycle the node
						}
						th.Release(old.Handle())
						th.Release(n)
						th.EndOp()
					}
				}(w, ths[w])
			}
			<-half
			s.(mm.LifecycleSource).SetLifecycleSink(tr)
			wg.Wait()

			// Quiesce: unlink the last node, flush buffered state, give
			// the workers' slots back.
			survivor.BeginOp()
			last := survivor.DeRef(root)
			if !survivor.CASLink(root, last, arena.NilPtr) {
				t.Fatal("quiescent unlink failed")
			}
			survivor.Retire(last.Handle())
			survivor.Release(last.Handle())
			survivor.EndOp()
			Flush(append(ths, survivor)...)
			for _, th := range ths {
				th.Unregister()
			}
			for _, err := range AuditRC(s, nil) {
				t.Error(err)
			}

			held := drain(t, survivor, nodes)
			free := s.(freeWalker).FreeNodes()
			for h, c := range free {
				if c != 1 || held[h] {
					t.Errorf("node %d: on the free structures %d times, allocated %v", h, c, held[h])
				}
			}
			if got := len(free) + len(held); got != ar.Nodes() {
				t.Errorf("%d free + %d allocated = %d, want %d nodes", len(free), len(held), got, ar.Nodes())
			}
			snap := tr.Snapshot()
			if snap.Retired == 0 || snap.Retired != snap.Reclaimed || snap.Floating != 0 {
				t.Errorf("sink at quiescence: retired %d, reclaimed %d, floating %d",
					snap.Retired, snap.Reclaimed, snap.Floating)
			}

			// A nil sink detaches: freeing everything reaches no tracker.
			s.(mm.LifecycleSource).SetLifecycleSink(nil)
			for h := range held {
				survivor.Retire(h)
				survivor.Release(h)
			}
			Flush(survivor)
			if after := tr.Snapshot(); after.Retired != snap.Retired || after.Reclaimed != snap.Reclaimed {
				t.Errorf("detached sink still noted: retired %d→%d, reclaimed %d→%d",
					snap.Retired, after.Retired, snap.Reclaimed, after.Reclaimed)
			}
			survivor.Unregister()
		})
	}
}

// TestConformanceOrphanAdoption: a thread unregisters while a peer still
// guards the node it retired, so the retirement cannot complete and is
// parked; the surviving peer must end up reclaiming it.
func TestConformanceOrphanAdoption(t *testing.T) {
	const nodes = 4
	for _, f := range Factories() {
		t.Run(f.Name, func(t *testing.T) {
			s := newConformant(t, f, nodes, 2)
			root := s.Arena().NewRoot()
			survivor, leaver := mustRegister(t, s), mustRegister(t, s)

			h, err := leaver.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			leaver.BeginOp()
			if !leaver.CASLink(root, arena.NilPtr, arena.MakePtr(h, false)) {
				t.Fatal("link failed")
			}
			leaver.EndOp()

			survivor.BeginOp()
			if p := survivor.DeRef(root); p.Handle() != h {
				t.Fatalf("survivor DeRef = %v, want node %d", p, h)
			}

			leaver.BeginOp()
			if !leaver.CASLink(root, arena.MakePtr(h, false), arena.NilPtr) {
				t.Fatal("unlink failed")
			}
			leaver.Retire(h)
			leaver.Release(h)
			leaver.EndOp()
			leaver.Unregister() // the survivor's guard keeps h from being freed

			if _, free := s.(freeWalker).FreeNodes()[h]; free {
				t.Fatalf("node %d freed under the survivor's guard", h)
			}
			survivor.Release(h)
			survivor.EndOp()

			held := drain(t, survivor, nodes)
			if _, free := s.(freeWalker).FreeNodes()[h]; !held[h] && !free {
				t.Errorf("orphaned node %d never reclaimed (survivor holds %d of %d nodes)", h, len(held), nodes)
			}
			if r, ok := s.(mm.Robust); ok && r.UnreclaimedNodes() != 0 {
				t.Errorf("%d node(s) still unreclaimed after adoption", r.UnreclaimedNodes())
			}
			survivor.Unregister()
		})
	}
}
