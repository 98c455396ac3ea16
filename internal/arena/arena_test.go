package arena

import (
	"runtime"
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

// TestFixedArenaDoesNotGrow: the capacity is Config.Nodes for the
// arena's whole life, and no handle past it is ever valid.
func TestFixedArenaDoesNotGrow(t *testing.T) {
	a := MustNew(Config{Nodes: 16, LinksPerNode: 1, ValsPerNode: 1})
	if a.Nodes() != 16 {
		t.Fatalf("Nodes = %d, want 16", a.Nodes())
	}
	if a.Valid(17) {
		t.Error("handle 17 valid in a 16-node arena")
	}
	count := 0
	a.ForEachNode(func(h Handle) {
		count++
		if h != Handle(count) {
			t.Fatalf("ForEachNode visited %d at step %d", h, count)
		}
	})
	if count != 16 {
		t.Fatalf("ForEachNode visited %d handles, want 16", count)
	}
}

// TestWildHandlePanics: every cell accessor fails the slice bounds
// check on Nil and on Nodes+1 instead of aliasing another node's cells
// (a wild node-link id would otherwise wrap onto a root).
func TestWildHandlePanics(t *testing.T) {
	a := MustNew(Config{Nodes: 4, LinksPerNode: 2, ValsPerNode: 2, RootLinks: 3})
	access := map[string]func(Handle){
		"Ref":  func(h Handle) { a.Ref(h) },
		"Next": func(h Handle) { a.Next(h) },
		"Link": func(h Handle) { a.Link(a.LinkOf(h, 0)) },
		"Val":  func(h Handle) { a.Val(h, 0) },
	}
	for name, fn := range access {
		for _, h := range []Handle{Nil, 5} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on a 4-node arena did not panic", name, h)
					}
				}()
				fn(h)
			}()
		}
		fn(4) // the last valid handle must not panic
	}
}

// TestForEachLinkCoversSegments: ForEachLink visits every root and every
// node link slot exactly once (the name predates the flat arena).
func TestForEachLinkCoversSegments(t *testing.T) {
	a := MustNew(Config{Nodes: 10, LinksPerNode: 3, RootLinks: 2})
	want := 2 + a.Nodes()*3
	seen := map[LinkID]bool{}
	a.ForEachLink(func(id LinkID) {
		if seen[id] {
			t.Fatalf("link id %d visited twice", id)
		}
		seen[id] = true
	})
	if len(seen) != want {
		t.Fatalf("ForEachLink visited %d cells, want %d", len(seen), want)
	}
}

// TestAuditRCAcrossSegments: the audit holds on the arena's last node
// and catches a leak there, and it reports a link to a handle above
// Nodes instead of indexing past its incoming table.
func TestAuditRCAcrossSegments(t *testing.T) {
	a := MustNew(Config{Nodes: 200, LinksPerNode: 1, RootLinks: 1})
	root := a.NewRoot()
	free := map[Handle]int{}
	a.ForEachNode(func(h Handle) { free[h] = 1 })
	if errs := a.AuditRC(free, nil); len(errs) != 0 {
		t.Fatalf("clean audit failed: %v", errs)
	}

	target := Handle(a.Nodes())
	a.StoreLink(root, MakePtr(target, false))
	a.Ref(target).Store(2)
	delete(free, target)
	if errs := a.AuditRC(free, nil); len(errs) != 0 {
		t.Fatalf("live last-node audit failed: %v", errs)
	}

	// Leak it: drop the link and the count without freeing.
	a.StoreLink(root, NilPtr)
	a.Ref(target).Store(0)
	if errs := a.AuditRC(free, nil); len(errs) == 0 {
		t.Fatal("audit missed a leak at the last node")
	}
	a.Ref(target).Store(1)
	free[target] = 1

	a.StoreLink(root, MakePtr(target+1, false))
	if errs := a.AuditRC(free, nil); len(errs) != 1 {
		t.Fatalf("link to handle %d above Nodes: %d errors %v, want 1", target+1, len(errs), errs)
	}
	a.StoreLink(root, NilPtr)
}

// TestConfigValidationGrowable: New rejects a configuration whose packed
// link ids overflow 32 bits before it allocates any cell.  Allocating
// this one would take 4 GiB of metadata and 128 GiB of links.
func TestConfigValidationGrowable(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := New(Config{Nodes: 1 << 28, LinksPerNode: 64})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("link-id overflow accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the config allocated %d bytes", grew)
	}
}
