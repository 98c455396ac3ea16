package slotpool

// Lease handoff of the deferred scheme's sticky pin cache: Release does
// not purge it, so the next lessee inherits the previous lessee's pin set
// warm.  A purge per release was measured slower (321 vs 273 ns/op in
// BenchmarkLeaseHandoff's two-arm form, DESIGN.md §9) and bought nothing
// the ZCT drains do not already provide, so warm inheritance is the
// policy, not a knob.

import (
	"context"
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/core"
	"wfrc/internal/mm"
)

func newDeferred(t testing.TB, nodes, threads int) *core.Scheme {
	t.Helper()
	ar, err := arena.New(arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(ar, core.Config{Threads: threads, Deferred: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// leaveStalePinOn allocates a node on th, links it from root, pins it
// via DeRef, and releases every reference — leaving th's pin cache as
// the only thing publishing the (still linked, refs>0) node.
func leaveStalePinOn(t *testing.T, th mm.Thread, root mm.LinkID) arena.Handle {
	t.Helper()
	h, err := th.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	th.StoreLink(root, arena.MakePtr(h, false))
	th.Release(h)
	// Apply the buffered alloc-reference decrement now, while the pin
	// cache is still empty, so the sticky pin created below is the only
	// deferred state the lease leaves behind.
	th.(mm.Flusher).Flush()
	p := th.DeRef(root)
	if p.Handle() != h {
		t.Fatalf("DeRef(root) = %v, want node %d", p, h)
	}
	th.Release(p.Handle()) // unpin: the publication stays, released
	return h
}

// TestPurgePinsOnRelease pins the handoff policy: Release purges no
// pins.  After lessee A leaves a released sticky pin behind, lessee B
// unlinks and flushes the node, and A's publication, inherited with the
// slot, keeps B's first drain from freeing it.
func TestPurgePinsOnRelease(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		s := newDeferred(t, 64, 2)
		root := s.Arena().NewRoot()
		p := MustNew(Config{Slots: 2}, s)
		defer p.Close()

		la, err := p.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		lb, err := p.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ta, tb := la.Thread(0), lb.Thread(0)

		h := leaveStalePinOn(t, ta, root)
		la.Release() // voluntary release: ta's row keeps its pin

		// B unlinks the node (the link reference drops, the count hits
		// zero in B's deferred state) and flushes once from its own
		// goroutine.
		if !tb.CASLink(root, arena.MakePtr(h, false), arena.NilPtr) {
			t.Fatal("unlink CAS failed on a quiescent link")
		}
		if f, ok := tb.(mm.Flusher); ok {
			f.Flush()
		} else {
			t.Fatal("deferred thread does not implement mm.Flusher")
		}
		if frees := tb.Stats().Frees; frees != 0 {
			t.Errorf("B's flush freed %d nodes, want 0 (A's sticky pin still publishes the node)", frees)
		}
		lb.Release()
	})
}

// BenchmarkLeaseHandoff measures the lease→work→release cycle.  The
// workload per lease is deliberately small (one pinned dereference) so
// the handoff cost dominates, the regime a pool churning leases per
// request lives in.
func BenchmarkLeaseHandoff(b *testing.B) {
	s := newDeferred(b, 64, 2)
	root := s.Arena().NewRoot()
	p := MustNew(Config{Slots: 1}, s)
	defer p.Close()

	// One long-lived node every lessee pins and releases.
	setup, err := p.Lease(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	st := setup.Thread(0)
	h, err := st.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	st.StoreLink(root, arena.MakePtr(h, false))
	st.Release(h)
	setup.Release()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := p.Lease(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		th := l.Thread(0)
		pp := th.DeRef(root)
		th.Release(pp.Handle())
		l.Release()
	}
}
