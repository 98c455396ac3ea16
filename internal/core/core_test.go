package core

import (
	"errors"
	"testing"

	"wfrc/internal/arena"
)

func newScheme(t testing.TB, nodes, threads, links, vals, roots int) *Scheme {
	t.Helper()
	ar := arena.MustNew(arena.Config{
		Nodes: nodes, LinksPerNode: links, ValsPerNode: vals, RootLinks: roots,
	})
	return MustNew(ar, Config{Threads: threads})
}

func mustRegister(t testing.TB, s *Scheme) *Thread {
	t.Helper()
	th, err := s.RegisterCore()
	if err != nil {
		t.Fatal(err)
	}
	return th
}

func audit(t *testing.T, s *Scheme, extra map[arena.Handle]int) {
	t.Helper()
	for _, err := range s.Audit(extra) {
		t.Error(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 1})
	if _, err := New(ar, Config{Threads: 0}); err == nil {
		t.Error("Threads=0 accepted")
	}
	if _, err := New(ar, Config{Threads: -3}); err == nil {
		t.Error("negative Threads accepted")
	}
}

func TestAllocReleaseSingleNode(t *testing.T) {
	s := newScheme(t, 4, 1, 0, 0, 0)
	th := mustRegister(t, s)
	h, err := th.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if h == arena.Nil {
		t.Fatal("Alloc returned nil handle")
	}
	if got := s.ar.Ref(h).Load(); got != 2 {
		t.Fatalf("allocated node mm_ref = %d, want 2 (one reference, even)", got)
	}
	audit(t, s, map[arena.Handle]int{h: 1})
	th.Release(h)
	// The node is either on a free-list (mm_ref 1) or granted through an
	// annAlloc cell (handover convention, mm_ref 3).
	if got := s.ar.Ref(h).Load(); got != 1 && got != 3 {
		t.Fatalf("released node mm_ref = %d, want 1 or 3", got)
	}
	audit(t, s, nil)
}

func TestAllocAllThenReleaseAll(t *testing.T) {
	const n = 16
	s := newScheme(t, n, 1, 0, 0, 0)
	th := mustRegister(t, s)
	seen := map[arena.Handle]bool{}
	hs := make([]arena.Handle, 0, n)
	extra := map[arena.Handle]int{}
	for i := 0; i < n; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if seen[h] {
			t.Fatalf("alloc %d returned duplicate handle %d", i, h)
		}
		seen[h] = true
		hs = append(hs, h)
		extra[h] = 1
	}
	audit(t, s, extra)
	if _, err := th.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on exhausted arena: err = %v, want ErrOutOfMemory", err)
	}
	for _, h := range hs {
		th.Release(h)
	}
	audit(t, s, nil)
	// Exhaustion is not sticky: memory freed means alloc works again.
	h, err := th.Alloc()
	if err != nil {
		t.Fatalf("alloc after frees: %v", err)
	}
	th.Release(h)
}

func TestAllocReleaseCyclesReuseNodes(t *testing.T) {
	s := newScheme(t, 2, 1, 0, 0, 0)
	th := mustRegister(t, s)
	for i := 0; i < 1000; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		th.Release(h)
	}
	audit(t, s, nil)
}

func TestCopyAddsReference(t *testing.T) {
	s := newScheme(t, 2, 1, 0, 0, 0)
	th := mustRegister(t, s)
	h, _ := th.Alloc()
	th.Copy(h)
	if got := s.ar.Ref(h).Load(); got != 4 {
		t.Fatalf("after Copy mm_ref = %d, want 4", got)
	}
	th.Release(h)
	th.Release(h)
	audit(t, s, nil)
}

func TestDeRefNilLink(t *testing.T) {
	s := newScheme(t, 2, 1, 0, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	p := th.DeRef(root)
	if !p.IsNil() {
		t.Fatalf("DeRef of nil link = %v", p)
	}
	audit(t, s, nil)
}

func TestDeRefAndRelease(t *testing.T) {
	s := newScheme(t, 2, 1, 0, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	h, _ := th.Alloc()
	th.StoreLink(root, arena.MakePtr(h, false))
	th.Release(h) // the link now holds the only reference

	p := th.DeRef(root)
	if p.Handle() != h {
		t.Fatalf("DeRef = %v, want handle %d", p, h)
	}
	if got := s.ar.Ref(h).Load(); got != 4 {
		t.Fatalf("mm_ref after DeRef = %d, want 4 (link + thread)", got)
	}
	audit(t, s, map[arena.Handle]int{h: 1})
	th.Release(p.Handle())
	audit(t, s, nil)

	// Clearing the link reclaims the node.
	if !th.CASLink(root, p, arena.NilPtr) {
		t.Fatal("CASLink to nil failed")
	}
	if got := s.ar.Ref(h).Load(); got != 1 && got != 3 {
		t.Fatalf("mm_ref after unlink = %d, want 1 (free-list) or 3 (granted)", got)
	}
	audit(t, s, nil)
}

func TestDeRefPreservesMark(t *testing.T) {
	s := newScheme(t, 2, 1, 0, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	h, _ := th.Alloc()
	th.StoreLink(root, arena.MakePtr(h, false))
	if !th.CASLink(root, arena.MakePtr(h, false), arena.MakePtr(h, true)) {
		t.Fatal("marking CAS failed")
	}
	p := th.DeRef(root)
	if p.Handle() != h || !p.Marked() {
		t.Fatalf("DeRef of marked link = %v, want marked handle %d", p, h)
	}
	th.Release(p.Handle())
	th.Release(h)
	audit(t, s, nil)
}

func TestCASLinkFailureRollsBackReference(t *testing.T) {
	s := newScheme(t, 3, 1, 0, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	a, _ := th.Alloc()
	b, _ := th.Alloc()
	th.StoreLink(root, arena.MakePtr(a, false))
	// Expected-old mismatch: the link holds a, not nil.
	if th.CASLink(root, arena.NilPtr, arena.MakePtr(b, false)) {
		t.Fatal("CASLink with wrong expected value succeeded")
	}
	if got := s.ar.Ref(b).Load(); got != 2 {
		t.Fatalf("failed CASLink leaked references on new: mm_ref = %d, want 2", got)
	}
	audit(t, s, map[arena.Handle]int{a: 1, b: 1})
	th.Release(a)
	th.Release(b)
	if !th.CASLink(root, arena.MakePtr(a, false), arena.NilPtr) {
		t.Fatal("cleanup CAS failed")
	}
	audit(t, s, nil)
}

func TestCASLinkSwapsReferences(t *testing.T) {
	s := newScheme(t, 3, 1, 0, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	a, _ := th.Alloc()
	b, _ := th.Alloc()
	th.StoreLink(root, arena.MakePtr(a, false))
	if !th.CASLink(root, arena.MakePtr(a, false), arena.MakePtr(b, false)) {
		t.Fatal("CASLink failed")
	}
	if got := s.ar.Ref(a).Load(); got != 2 {
		t.Fatalf("old target mm_ref = %d, want 2 (thread ref only)", got)
	}
	if got := s.ar.Ref(b).Load(); got != 4 {
		t.Fatalf("new target mm_ref = %d, want 4 (thread + link)", got)
	}
	th.Release(a) // reclaims a
	th.Release(b)
	audit(t, s, nil)
}

func TestReleaseCascade(t *testing.T) {
	// Chain head -> n1 -> n2 -> n3 through node link slot 0; releasing the
	// head's last reference must reclaim the whole chain (line R3).
	s := newScheme(t, 8, 1, 1, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()

	var prev arena.Handle
	var hs []arena.Handle
	for i := 0; i < 3; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if prev != arena.Nil {
			th.StoreLink(s.ar.LinkOf(h, 0), arena.MakePtr(prev, false))
			th.Release(prev)
		}
		prev = h
		hs = append(hs, h)
	}
	th.StoreLink(root, arena.MakePtr(prev, false))
	th.Release(prev)
	audit(t, s, nil)

	if !th.CASLink(root, arena.MakePtr(prev, false), arena.NilPtr) {
		t.Fatal("unlink failed")
	}
	for _, h := range hs {
		if got := s.ar.Ref(h).Load(); got != 1 && got != 3 {
			t.Errorf("chain node %d mm_ref = %d, want 1 or 3 (reclaimed)", h, got)
		}
	}
	audit(t, s, nil)
}

func TestReleaseCascadeLongChainNoStackOverflow(t *testing.T) {
	const depth = 100000
	s := newScheme(t, depth+1, 1, 1, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	var prev arena.Handle
	for i := 0; i < depth; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if prev != arena.Nil {
			th.StoreLink(s.ar.LinkOf(h, 0), arena.MakePtr(prev, false))
			th.Release(prev)
		}
		prev = h
	}
	th.StoreLink(root, arena.MakePtr(prev, false))
	th.Release(prev)
	if !th.CASLink(root, arena.MakePtr(prev, false), arena.NilPtr) {
		t.Fatal("unlink failed")
	}
	audit(t, s, nil)
}

func TestFreeNodeGrantsThroughAnnAlloc(t *testing.T) {
	s := newScheme(t, 4, 2, 0, 0, 0)
	tA := mustRegister(t, s)
	tB := mustRegister(t, s)

	h, err := tA.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	// Point the help cursor at B so A's free lands in annAlloc[B].
	s.helpCurrent.Store(int64(tB.ID()))
	tA.Release(h)
	if got := arena.Handle(s.annAlloc[tB.ID()].Load()); got != h {
		t.Fatalf("annAlloc[B] = %d, want %d", got, h)
	}
	if got := s.ar.Ref(h).Load(); got != 3 {
		t.Fatalf("granted node mm_ref = %d, want 3 (handover convention)", got)
	}
	audit(t, s, nil)

	got, err := tB.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("B allocated %d, want granted node %d", got, h)
	}
	if tB.Stats().AllocHelped != 1 {
		t.Errorf("AllocHelped = %d, want 1", tB.Stats().AllocHelped)
	}
	tB.Release(got)
	audit(t, s, nil)
}

func TestAllocFirstSuccessHelpsTarget(t *testing.T) {
	// An AllocNode whose first list CAS succeeds must offer that node to
	// the helpCurrent target (lines A11–A15) and then allocate another.
	s := newScheme(t, 8, 2, 0, 0, 0)
	tA := mustRegister(t, s)
	tB := mustRegister(t, s)
	s.helpCurrent.Store(int64(tB.ID()))

	h, err := tA.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	granted := arena.Handle(s.annAlloc[tB.ID()].Load())
	if granted == arena.Nil {
		t.Fatal("allocation did not populate annAlloc[B]")
	}
	if granted == h {
		t.Fatal("allocator kept the node it granted")
	}
	got, err := tB.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != granted {
		t.Fatalf("B allocated %d, want granted %d", got, granted)
	}
	tA.Release(h)
	tB.Release(got)
	audit(t, s, nil)
}

func TestHelpCurrentAdvances(t *testing.T) {
	s := newScheme(t, 8, 4, 0, 0, 0)
	th := mustRegister(t, s)
	before := s.helpCurrent.Load()
	h, _ := th.Alloc()
	th.Release(h)
	if s.helpCurrent.Load() == before {
		t.Error("helpCurrent did not advance over an alloc/free cycle")
	}
}

func TestOutOfMemoryThresholdConfigurable(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 1})
	s := MustNew(ar, Config{Threads: 1, AllocRetryLimit: 5})
	th := mustRegister(t, s)
	h, err := th.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if th.Stats().AllocMaxSteps > 6 {
		t.Errorf("alloc steps %d exceeded configured limit 5", th.Stats().AllocMaxSteps)
	}
	th.Release(h)
}

func TestStatsAccounting(t *testing.T) {
	s := newScheme(t, 4, 1, 0, 0, 1)
	th := mustRegister(t, s)
	root := s.ar.NewRoot()
	h, _ := th.Alloc()
	th.StoreLink(root, arena.MakePtr(h, false))
	th.DeRef(root)
	th.Release(h)
	th.Release(h)
	st := th.Stats()
	if st.Allocs != 1 || st.DeRefs != 1 || st.Frees != 0 {
		t.Errorf("stats = %+v", st)
	}
	th.CASLink(root, arena.MakePtr(h, false), arena.NilPtr)
	if th.Stats().Frees != 1 {
		t.Errorf("Frees = %d after reclamation, want 1", th.Stats().Frees)
	}
	if th.Stats().HelpScans != 1 {
		t.Errorf("HelpScans = %d, want 1", th.Stats().HelpScans)
	}
}
