package hyaline

import (
	"sync"
	"testing"

	"wfrc/internal/arena"
)

func newScheme(t testing.TB, nodes, threads, threshold int) *Scheme {
	t.Helper()
	ar, err := arena.New(arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(ar, Config{Threads: threads, RetireThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func register(t testing.TB, s *Scheme) *Thread {
	t.Helper()
	th, err := s.RegisterHyaline()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// TestQuiescentLifecycle: with no reader active, a dispatched batch
// frees immediately and the audit sees a fully reclaimed arena.
func TestQuiescentLifecycle(t *testing.T) {
	s := newScheme(t, 16, 2, 4)
	th := register(t, s)

	var hs []arena.Handle
	for i := 0; i < 6; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for _, h := range hs {
		th.Retire(h)
	}
	// 6 retires with threshold 4 and no active slot: the threshold
	// dispatch freed the first four; two are still accumulating.
	if got := s.UnreclaimedNodes(); got != 2 {
		t.Fatalf("UnreclaimedNodes = %d after threshold dispatch, want 2", got)
	}
	th.Flush()
	if got := s.UnreclaimedNodes(); got != 0 {
		t.Fatalf("UnreclaimedNodes = %d after flush, want 0", got)
	}
	if got := th.Stats().Frees; got != 6 {
		t.Fatalf("Frees = %d, want 6", got)
	}
	th.Unregister()
	for _, err := range s.Audit(nil) {
		t.Error(err)
	}
}

// TestReaderHoldsBatch: a batch dispatched while a reader's slot is
// active must stay unreclaimed until the reader's EndOp traversal drops
// the last reference.
func TestReaderHoldsBatch(t *testing.T) {
	s := newScheme(t, 16, 2, 2)
	r, w := register(t, s), register(t, s)
	root := s.Arena().NewRoot()

	h0, err := w.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	w.StoreLink(root, arena.MakePtr(h0, false))

	r.BeginOp()
	if p := r.DeRef(root); p.Handle() != h0 {
		t.Fatalf("DeRef = %v, want %d", p, h0)
	}

	h1, err := w.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	w.StoreLink(root, arena.MakePtr(h1, false))
	w.Retire(h0)
	w.Retire(h1) // threshold 2: dispatch; reader active => inserted, not freed
	if got := s.UnreclaimedNodes(); got != 2 {
		t.Fatalf("UnreclaimedNodes = %d with the reader active, want 2", got)
	}
	if got := w.Stats().Frees; got != 0 {
		t.Fatalf("retirer freed %d nodes past an active reader", got)
	}

	w.StoreLink(root, arena.NilPtr)
	r.EndOp()
	if got := s.UnreclaimedNodes(); got != 0 {
		t.Fatalf("UnreclaimedNodes = %d after the reader left, want 0", got)
	}
	if got := r.Stats().Frees; got != 2 {
		t.Fatalf("reader's leave traversal freed %d nodes, want 2", got)
	}
	r.Unregister()
	w.Unregister()
	for _, err := range s.Audit(nil) {
		t.Error(err)
	}
}

// TestEraSkipRule: a reader whose published access era predates every
// batch member's birth provably holds none of them, so the dispatch
// skips its slot and frees the batch immediately — the robustness
// bound under a stalled reader.
func TestEraSkipRule(t *testing.T) {
	s := newScheme(t, 24, 2, 2)
	r, w := register(t, s), register(t, s)

	// The reader enters at era 0 and stalls: it never refreshes its
	// published era.
	r.BeginOp()

	// First batch: nodes born at era 0, so the reader IS a target and
	// the batch lodges in its slot.
	a0, _ := w.Alloc()
	a1, _ := w.Alloc()
	w.Retire(a0)
	w.Retire(a1)
	if got := s.UnreclaimedNodes(); got != 2 {
		t.Fatalf("era-0 batch: UnreclaimedNodes = %d, want 2 (lodged in the stalled slot)", got)
	}

	// Every later batch's members are born after the dispatch ticked the
	// era past the reader's stamp, so the skip rule must free them
	// immediately despite the stall.
	for i := 0; i < 4; i++ {
		b0, err := w.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		b1, err := w.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		w.Retire(b0)
		w.Retire(b1)
		if got := s.UnreclaimedNodes(); got != 2 {
			t.Fatalf("batch %d: UnreclaimedNodes = %d, want 2 (skip rule failed under stall)", i, got)
		}
	}
	if got := w.Stats().Frees; got != 8 {
		t.Fatalf("retirer freed %d nodes past the stalled reader, want 8", got)
	}

	r.EndOp()
	if got := s.UnreclaimedNodes(); got != 0 {
		t.Fatalf("UnreclaimedNodes = %d after the stalled reader left, want 0", got)
	}
	r.Unregister()
	w.Unregister()
	for _, err := range s.Audit(nil) {
		t.Error(err)
	}
}

// TestAllocRaisesSlotEra: the skip rule's contrapositive obligation.  A
// thread's published access era is stamped at BeginOp, but a node it
// allocates mid-op is born later — Alloc must raise the slot era to the
// birth era, or a retirer that obtains the node (a deleter claiming a
// just-published insert) would era-skip the allocator's slot and free a
// node the allocator is still linking.
func TestAllocRaisesSlotEra(t *testing.T) {
	s := newScheme(t, 32, 2, 2)
	a, w := register(t, s), register(t, s)

	a.BeginOp() // publishes access era E

	// Advance the global era past E: a filler batch born at era E
	// dispatches (ticking the clock) and lodges in a's slot.
	f0, _ := w.Alloc()
	f1, _ := w.Alloc()
	w.Retire(f0)
	w.Retire(f1)

	// a allocates mid-op: birth era E+1, newer than its BeginOp stamp.
	h, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	// w retires it alongside a same-era filler, standing in for a
	// deleter that reached h through the structure.  minBirth is E+1,
	// so only the Alloc-side era raise keeps a's slot targeted.
	f2, _ := w.Alloc()
	w.Retire(h)
	w.Retire(f2)

	if got := s.UnreclaimedNodes(); got != 4 {
		t.Fatalf("UnreclaimedNodes = %d with the allocator mid-op, want 4 (batch holding its live node was freed)", got)
	}
	a.EndOp() // the leave traversal frees both lodged batches
	if got := s.UnreclaimedNodes(); got != 0 {
		t.Fatalf("UnreclaimedNodes = %d after the allocator left, want 0", got)
	}
	a.Unregister()
	w.Unregister()
	for _, err := range s.Audit(nil) {
		t.Error(err)
	}
}

// TestDispatchMinimumSize: a batch smaller than targets+1 cannot cover
// the reference carrier plus one insertion per active slot, so the
// dispatch must hold it back rather than under-protect it.
func TestDispatchMinimumSize(t *testing.T) {
	s := newScheme(t, 16, 2, 1)
	r, w := register(t, s), register(t, s)
	r.BeginOp()

	h0, _ := w.Alloc()
	w.Retire(h0) // threshold 1 fires, but batch(1) < targets(1)+1: kept
	w.Flush()
	if got := s.UnreclaimedNodes(); got != 1 {
		t.Fatalf("undersized batch: UnreclaimedNodes = %d, want 1 (held back)", got)
	}
	if got := w.Stats().Frees; got != 0 {
		t.Fatalf("undersized batch freed %d nodes under an active reader", got)
	}

	h1, _ := w.Alloc()
	w.Retire(h1) // batch(2) >= targets+1: dispatches into the reader's slot
	if got := s.UnreclaimedNodes(); got != 2 {
		t.Fatalf("grown batch: UnreclaimedNodes = %d, want 2", got)
	}
	r.EndOp()
	if got := s.UnreclaimedNodes(); got != 0 {
		t.Fatalf("UnreclaimedNodes = %d after EndOp, want 0", got)
	}
	r.Unregister()
	w.Unregister()
	for _, err := range s.Audit(nil) {
		t.Error(err)
	}
}

// TestConcurrentChurn is the race-detector smoke test: several threads
// alloc/link/retire through a shared root while readers traverse.
func TestConcurrentChurn(t *testing.T) {
	const threads, rounds = 4, 300
	s := newScheme(t, 64*threads, threads, 8)
	root := s.Arena().NewRoot()

	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := register(t, s)
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			defer th.Unregister()
			for r := 0; r < rounds; r++ {
				th.BeginOp()
				p := th.DeRef(root)
				h, err := th.Alloc()
				if err != nil {
					th.EndOp()
					continue
				}
				if th.CASLink(root, p, arena.MakePtr(h, false)) {
					th.Retire(p.Handle())
				} else {
					th.Retire(h)
				}
				th.EndOp()
			}
		}(th)
	}
	wg.Wait()

	at := register(t, s)
	at.BeginOp()
	last := at.DeRef(root)
	at.EndOp()
	if last.Handle() != arena.Nil {
		if !at.CASLink(root, last, arena.NilPtr) {
			t.Fatal("final unlink CAS failed at quiescence")
		}
		at.Retire(last.Handle())
	}
	at.Flush()
	at.Flush()
	at.Unregister()
	if got := s.UnreclaimedNodes(); got != 0 {
		t.Fatalf("UnreclaimedNodes = %d at quiescence, want 0", got)
	}
	for _, err := range s.Audit(nil) {
		t.Error(err)
	}
}
