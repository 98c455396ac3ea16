package core

import (
	"testing"

	"wfrc/internal/arena"
)

// TestMagazineDepthRule pins the derivation min(8, Nodes/(32·n)): the
// schedule-exploration and hook-point arenas get no magazine (Figure 5
// exactly), the KV store's shard geometry gets the full depth, and a
// small deployment gets what 1/32 of its arena allows.
func TestMagazineDepthRule(t *testing.T) {
	for _, c := range []struct {
		name           string
		nodes, threads int
		want           int
	}{
		{"hook-point test arena", 4, 2, 0},
		{"sched/model arena", 64, 3, 0},
		{"just under one node per slot", 32*8 - 1, 8, 0},
		{"wfrc-kv -nodes 512 -slots 8", 512, 8, 2},
		{"store shard default", 65536, 8, 8},
		{"capped at magCap", 1 << 20, 1, 8},
	} {
		if got := magDepthFor(c.nodes, c.threads); got != c.want {
			t.Errorf("%s: magDepthFor(%d, %d) = %d, want %d", c.name, c.nodes, c.threads, got, c.want)
		}
		s := newScheme(t, c.nodes, c.threads, 0, 0, 0)
		if s.magDepth != c.want {
			t.Errorf("%s: scheme built with depth %d, want %d", c.name, s.magDepth, c.want)
		}
		if withheld := s.magDepth * c.threads; withheld > c.nodes/32 {
			t.Errorf("%s: magazines may withhold %d nodes, more than Nodes/32 = %d", c.name, withheld, c.nodes/32)
		}
	}
}

// TestMagazineReusesLastFreed checks the LIFO and its reference-count
// convention: a freed node rests at mm_ref==1 in the slot's row, the
// next Alloc returns it at 2 without a Figure-5 step, and both sides
// count the hit.
func TestMagazineReusesLastFreed(t *testing.T) {
	s := newScheme(t, 1024, 2, 0, 0, 0)
	th := mustRegister(t, s)
	a, _ := th.Alloc()
	b, _ := th.Alloc()
	th.Release(a)
	th.Release(b)
	if got := s.ar.Ref(b).Load(); got != 1 {
		t.Fatalf("parked node mm_ref = %d, want 1", got)
	}
	steps := th.Stats().AllocSteps
	for _, want := range []arena.Handle{b, a} {
		h, err := th.Alloc()
		if err != nil || h != want {
			t.Fatalf("Alloc = %d, %v, want the most recently freed node %d", h, err, want)
		}
		if got := s.ar.Ref(h).Load(); got != 2 {
			t.Fatalf("node %d allocated from the magazine has mm_ref = %d, want 2", h, got)
		}
	}
	st := th.Stats()
	if st.AllocLocal != 2 || st.FreeLocal != 2 || st.Allocs != 4 || st.Frees != 2 {
		t.Errorf("AllocLocal/FreeLocal/Allocs/Frees = %d/%d/%d/%d, want 2/2/4/2",
			st.AllocLocal, st.FreeLocal, st.Allocs, st.Frees)
	}
	if st.AllocSteps != steps+2 || st.FreeSteps != 2 || st.FreeMaxSteps != 1 {
		t.Errorf("two hits each way took %d alloc and %d free steps (max %d), want 2 and 2 (max 1): a hit is one step",
			st.AllocSteps-steps, st.FreeSteps, st.FreeMaxSteps)
	}
	th.Release(a)
	th.Release(b)
	th.Unregister()
	audit(t, s, nil)
}

// TestMagazineAuditedWhileRegistered audits the way benchmark/inproc.go
// does, with every thread still registered and its row full: the nodes
// count as free once each, and the row overflows into Figure 5.
func TestMagazineAuditedWhileRegistered(t *testing.T) {
	const nodes, threads = 1024, 2
	s := newScheme(t, nodes, threads, 0, 0, 0)
	ta, tb := mustRegister(t, s), mustRegister(t, s)
	held := make([]arena.Handle, 0, 3*magCap)
	for i := 0; i < cap(held); i++ {
		h, err := ta.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, h)
	}
	// tb frees what ta allocated: the row belongs to the freeing slot.
	for _, h := range held {
		tb.Release(h)
	}
	if got := s.mag[tb.ID()].n; got != magCap {
		t.Fatalf("freeing slot's row holds %d nodes, want %d", got, magCap)
	}
	if got := s.mag[ta.ID()].n; got != 0 {
		t.Fatalf("allocating slot's row holds %d nodes, want 0", got)
	}
	if got := tb.Stats().FreeLocal; got != magCap {
		t.Errorf("FreeLocal = %d, want %d (the rest overflowed into Figure 5)", got, magCap)
	}
	audit(t, s, nil)
	if got := len(s.FreeNodes()); got != nodes {
		t.Errorf("audit sees %d free nodes with threads registered, want all %d", got, nodes)
	}
}

// TestUnregisterSpillsMagazine checks the other audit point: after the
// last Unregister every row is empty and every free node is back on a
// Figure-5 structure, where a thread on any slot can allocate it.
func TestUnregisterSpillsMagazine(t *testing.T) {
	const nodes, threads = 1024, 2
	s := newScheme(t, nodes, threads, 0, 0, 0)
	th := mustRegister(t, s)
	var held [magCap]arena.Handle
	for i := range held {
		held[i], _ = th.Alloc()
	}
	for _, h := range held {
		th.Release(h)
	}
	frees := th.Stats().Frees
	th.Unregister()
	for i := range s.mag {
		if s.mag[i].n != 0 {
			t.Errorf("row %d still holds %d nodes after Unregister", i, s.mag[i].n)
		}
	}
	if got := th.Stats().Frees; got != frees {
		t.Errorf("spill counted %d extra frees, want 0 (the nodes were counted when parked)", got-frees)
	}
	audit(t, s, nil)

	// A slot whose thread never unregistered (a crashed goroutine) keeps
	// its row for the slot's next owner.
	crashed := mustRegister(t, s)
	h, _ := crashed.Alloc()
	crashed.Release(h)
	s.reg.Release(crashed.ID()) // the slot is re-leased without Unregister
	next := mustRegister(t, s)
	if next.ID() != crashed.ID() {
		t.Fatalf("re-registered on slot %d, want the crashed slot %d", next.ID(), crashed.ID())
	}
	if got, _ := next.Alloc(); got != h {
		t.Errorf("next owner allocated %d, want the crashed owner's parked node %d", got, h)
	}
	next.Release(h)
	next.Unregister()
	audit(t, s, nil)
	if got := len(s.FreeNodes()); got != nodes {
		t.Errorf("%d free nodes at the end, want all %d", got, nodes)
	}
}

// TestMagazineFoundBeforeOOMVerdict drives the one path on which an
// allocator's own call fills its row: the deferred variant's footnote-4
// flush reclaims the last two free nodes, both land in the flusher's
// magazine, and the free-lists stay empty.  The allocation must come
// from the row, not end in ErrOutOfMemory.
func TestMagazineFoundBeforeOOMVerdict(t *testing.T) {
	const nodes = 64 // one slot: depth 2
	ar := arena.MustNew(arena.Config{Nodes: nodes})
	s := MustNew(ar, Config{Threads: 1, Deferred: true})
	if s.magDepth != 2 {
		t.Fatalf("depth = %d, want 2", s.magDepth)
	}
	th := mustRegister(t, s)
	var held []arena.Handle
	for {
		h, err := th.Alloc()
		if err != nil {
			break
		}
		held = append(held, h)
	}
	if len(held) != nodes {
		t.Fatalf("allocated %d nodes before exhaustion, want %d", len(held), nodes)
	}
	// Two buffered decrements are the only reclaimable memory left, and
	// nobody is asking for them yet (the failed Alloc left its broadcast
	// raised; answering it would spill the row this test is about).
	s.memPressure.Store(0)
	th.Release(held[0])
	th.Release(held[1])
	for i := 0; i < 2; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d with %d node(s) parked in the caller's own magazine: %v", i, 2-i, err)
		}
		held[i] = h
	}
	if got := th.Stats().AllocLocal; got != 2 {
		t.Errorf("AllocLocal = %d, want 2", got)
	}
	for _, h := range held {
		th.Release(h)
	}
	th.Unregister()
	audit(t, s, nil)
}

// TestMemoryPressureAnswerSpillsMagazine checks that a peer answering
// the deferred variant's out-of-memory broadcast surrenders its row
// along with its caches: otherwise the nodes its purging flush frees
// are parked where the starving allocator cannot reach them.
func TestMemoryPressureAnswerSpillsMagazine(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 64})
	s := MustNew(ar, Config{Threads: 2, Deferred: true})
	if s.magDepth != 1 {
		t.Fatalf("depth = %d, want 1", s.magDepth)
	}
	starving, peer := mustRegister(t, s), mustRegister(t, s)
	h1, _ := peer.Alloc()
	h2, _ := peer.Alloc()
	peer.Release(h1)
	peer.flushDeferred()
	if got := s.mag[peer.ID()].n; got != 1 {
		t.Fatalf("peer's row holds %d nodes, want h1 parked", got)
	}
	var held []arena.Handle
	for {
		h, err := starving.Alloc()
		if err != nil {
			break // leaves the broadcast raised
		}
		held = append(held, h)
	}
	if len(held) < 64-4 {
		t.Fatalf("starving thread got only %d nodes before exhaustion", len(held))
	}
	peer.Release(h2) // the peer's next counted release answers
	for i := 0; i < 2; i++ {
		h, err := starving.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d after the peer answered: %v (its row holds %d)", i, err, s.mag[peer.ID()].n)
		}
		held = append(held, h)
	}
	for _, h := range held {
		starving.Release(h)
	}
	starving.Unregister()
	peer.Unregister()
	audit(t, s, nil)
}
