package arena

import (
	"testing"
	"testing/quick"
)

func TestPtrRoundTrip(t *testing.T) {
	cases := []struct {
		h      Handle
		marked bool
	}{
		{Nil, false}, {Nil, true}, {1, false}, {1, true},
		{0xffffffff, false}, {0xffffffff, true}, {12345, true},
	}
	for _, c := range cases {
		p := MakePtr(c.h, c.marked)
		if p.Handle() != c.h {
			t.Errorf("MakePtr(%d,%v).Handle() = %d", c.h, c.marked, p.Handle())
		}
		if p.Marked() != c.marked {
			t.Errorf("MakePtr(%d,%v).Marked() = %v", c.h, c.marked, p.Marked())
		}
	}
}

func TestPtrRoundTripQuick(t *testing.T) {
	f := func(h uint32, marked bool) bool {
		p := MakePtr(Handle(h), marked)
		return p.Handle() == Handle(h) && p.Marked() == marked &&
			p.WithMark(!marked).Marked() == !marked &&
			p.WithMark(!marked).Handle() == Handle(h)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPtrNilAndString(t *testing.T) {
	if !NilPtr.IsNil() {
		t.Error("NilPtr.IsNil() = false")
	}
	if !MakePtr(Nil, true).IsNil() {
		t.Error("marked nil ptr should still be nil")
	}
	if MakePtr(7, false).IsNil() {
		t.Error("ptr(7).IsNil() = true")
	}
	if got := MakePtr(7, true).String(); got != "ptr(7,marked)" {
		t.Errorf("String() = %q", got)
	}
	if got := MakePtr(7, false).String(); got != "ptr(7)" {
		t.Errorf("String() = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0},
		{Nodes: -1},
		{Nodes: 1 << 31},
		{Nodes: 4, LinksPerNode: -1},
		{Nodes: 4, ValsPerNode: -2},
		{Nodes: 4, RootLinks: -3},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if _, err := New(Config{Nodes: 1}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew on invalid config did not panic")
		}
	}()
	MustNew(Config{Nodes: -1})
}

func TestInitialRefCounts(t *testing.T) {
	a := MustNew(Config{Nodes: 8})
	for h := Handle(1); h <= 8; h++ {
		if got := a.Ref(h).Load(); got != 1 {
			t.Errorf("node %d initial mm_ref = %d, want 1 (free, odd)", h, got)
		}
	}
}

func TestRootAllocation(t *testing.T) {
	a := MustNew(Config{Nodes: 2, RootLinks: 7})
	first, err := a.NewRoots(4)
	if err != nil || first != 1 {
		t.Fatalf("NewRoots(4) = %d,%v, want the range starting at 1", first, err)
	}
	if _, err := a.NewRoots(4); err == nil {
		t.Fatal("NewRoots(4) with 3 left succeeded")
	}
	if _, err := a.NewRoots(0); err == nil {
		t.Fatal("NewRoots(0) succeeded")
	}
	// The refused request reserved nothing: the range continues at 5.
	if r := a.NewRoot(); r != first+4 {
		t.Fatalf("root after a 4-range = %d, want %d", r, first+4)
	}
	r1, r2 := a.NewRoot(), a.NewRoot()
	if r1 == NoLink || r2 == NoLink || r1 == r2 {
		t.Fatalf("roots not distinct/valid: %d %d", r1, r2)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewRoot beyond budget did not panic")
		}
	}()
	a.NewRoot()
}

func TestLinkCells(t *testing.T) {
	a := MustNew(Config{Nodes: 3, LinksPerNode: 2, RootLinks: 1})
	root := a.NewRoot()
	seen := map[LinkID]bool{root: true}
	for h := Handle(1); h <= 3; h++ {
		for s := 0; s < 2; s++ {
			id := a.LinkOf(h, s)
			if seen[id] {
				t.Fatalf("link id %d reused (node %d slot %d)", id, h, s)
			}
			seen[id] = true
		}
	}
	p := MakePtr(2, true)
	a.StoreLink(root, p)
	if got := a.LoadLink(root); got != p {
		t.Errorf("LoadLink = %v, want %v", got, p)
	}
	if !a.CASLinkRaw(root, p, NilPtr) {
		t.Error("CASLinkRaw with matching old failed")
	}
	if a.CASLinkRaw(root, p, NilPtr) {
		t.Error("CASLinkRaw with stale old succeeded")
	}
}

func TestLinkOfSlotOutOfRangePanics(t *testing.T) {
	a := MustNew(Config{Nodes: 1, LinksPerNode: 1})
	defer func() {
		if recover() == nil {
			t.Error("LinkOf with bad slot did not panic")
		}
	}()
	a.LinkOf(1, 1)
}

func TestValueWords(t *testing.T) {
	a := MustNew(Config{Nodes: 2, ValsPerNode: 3})
	a.SetVal(1, 0, 10)
	a.SetVal(1, 2, 30)
	a.SetVal(2, 0, 99)
	if a.Val(1, 0) != 10 || a.Val(1, 2) != 30 || a.Val(2, 0) != 99 || a.Val(1, 1) != 0 {
		t.Error("value words crosstalk or lost writes")
	}
	if !a.ValCell(2, 0).CompareAndSwap(99, 100) || a.Val(2, 0) != 100 {
		t.Error("ValCell CAS failed")
	}
}

func TestValid(t *testing.T) {
	a := MustNew(Config{Nodes: 4})
	for _, c := range []struct {
		h  Handle
		ok bool
	}{{0, false}, {1, true}, {4, true}, {5, false}} {
		if a.Valid(c.h) != c.ok {
			t.Errorf("Valid(%d) = %v, want %v", c.h, !c.ok, c.ok)
		}
	}
}

func TestAuditRCDetectsViolations(t *testing.T) {
	a := MustNew(Config{Nodes: 3, LinksPerNode: 1, RootLinks: 1})
	root := a.NewRoot()

	// Clean state: all free.
	free := map[Handle]int{1: 1, 2: 1, 3: 1}
	if errs := a.AuditRC(free, nil); len(errs) != 0 {
		t.Fatalf("clean arena audit failed: %v", errs)
	}

	// Node 1 live with one incoming link.
	a.StoreLink(root, MakePtr(1, false))
	a.Ref(1).Store(2)
	if errs := a.AuditRC(map[Handle]int{2: 1, 3: 1}, nil); len(errs) != 0 {
		t.Fatalf("valid live-node audit failed: %v", errs)
	}

	// Wrong count.
	a.Ref(1).Store(4)
	if errs := a.AuditRC(map[Handle]int{2: 1, 3: 1}, nil); len(errs) == 0 {
		t.Error("audit missed over-count")
	}
	// Fixed by declaring an extra held reference.
	if errs := a.AuditRC(map[Handle]int{2: 1, 3: 1}, map[Handle]int{1: 1}); len(errs) != 0 {
		t.Errorf("extraRefs not honoured: %v", errs)
	}

	// Free node referenced by a link.
	a.Ref(1).Store(1)
	if errs := a.AuditRC(map[Handle]int{1: 1, 2: 1, 3: 1}, nil); len(errs) == 0 {
		t.Error("audit missed link into free node")
	}
	a.StoreLink(root, NilPtr)

	// Double free.
	if errs := a.AuditRC(map[Handle]int{1: 2, 2: 1, 3: 1}, nil); len(errs) == 0 {
		t.Error("audit missed double-free")
	}

	// Leak: mm_ref 0, not free.
	a.Ref(1).Store(0)
	if errs := a.AuditRC(map[Handle]int{2: 1, 3: 1}, nil); len(errs) == 0 {
		t.Error("audit missed leaked node")
	}
}
