package hazard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"wfrc/internal/arena"
)

func newScheme(t testing.TB, nodes, threads int, cfg Config) (*Scheme, *arena.Arena) {
	t.Helper()
	ar := arena.MustNew(arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 2})
	cfg.Threads = threads
	return MustNew(ar, cfg), ar
}

func TestAllocProtectsAndRelease(t *testing.T) {
	s, _ := newScheme(t, 4, 1, Config{})
	th, err := s.Register()
	if err != nil {
		t.Fatal(err)
	}
	h, err := th.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	ct := th.(*Thread)
	found := false
	for _, held := range ct.held {
		if held == h {
			found = true
		}
	}
	if !found {
		t.Fatal("allocated node not protected by a hazard slot")
	}
	th.Release(h)
	for _, held := range ct.held {
		if held == h {
			t.Fatal("slot not cleared by Release")
		}
	}
	th.Unregister()
}

func TestReleaseUnprotectedPanics(t *testing.T) {
	s, _ := newScheme(t, 4, 1, Config{})
	th, _ := s.Register()
	defer th.Unregister()
	defer func() {
		if recover() == nil {
			t.Error("Release of unprotected handle did not panic")
		}
	}()
	th.Release(3)
}

func TestSlotExhaustionPanics(t *testing.T) {
	s, _ := newScheme(t, 8, 1, Config{SlotsPerThread: 2})
	th, _ := s.Register()
	defer th.Unregister()
	h1, _ := th.Alloc()
	h2, _ := th.Alloc()
	_ = h1
	defer func() {
		if recover() == nil {
			t.Error("third protection on 2-slot config did not panic")
		}
	}()
	th.Copy(h2)
}

func TestDeRefPublishesHazard(t *testing.T) {
	s, ar := newScheme(t, 4, 2, Config{})
	tA, _ := s.Register()
	tB, _ := s.Register()
	root := ar.NewRoot()

	h, _ := tA.Alloc()
	tA.StoreLink(root, arena.MakePtr(h, false))
	tA.Release(h)

	p := tB.DeRef(root)
	if p.Handle() != h {
		t.Fatalf("DeRef = %v, want %d", p, h)
	}
	// A hazard slot of B must now hold h.
	protected := false
	for i := 0; i < s.k; i++ {
		if arena.Handle(s.hp[tB.(*Thread).id*s.k+i].Load()) == h {
			protected = true
		}
	}
	if !protected {
		t.Fatal("DeRef did not publish a hazard pointer")
	}
	tB.Release(h)
	tA.Unregister()
	tB.Unregister()
}

func TestScanSparesProtectedNodes(t *testing.T) {
	s, ar := newScheme(t, 8, 2, Config{RetireThreshold: 1000})
	tA, _ := s.Register()
	tB, _ := s.Register()
	root := ar.NewRoot()

	h, _ := tA.Alloc()
	tA.StoreLink(root, arena.MakePtr(h, false))
	tA.Release(h)

	// B protects h through the link.
	p := tB.DeRef(root)
	if p.Handle() != h {
		t.Fatal("deref mismatch")
	}

	// A unlinks and retires h.
	if !tA.CASLink(root, p, arena.NilPtr) {
		t.Fatal("unlink failed")
	}
	tA.Retire(h)
	tA.(*Thread).scan()
	if _, free := s.FreeNodes()[h]; free {
		t.Fatal("scan freed a node protected by another thread's hazard pointer")
	}

	tB.Release(h)
	tA.(*Thread).scan()
	if _, free := s.FreeNodes()[h]; !free {
		t.Fatal("scan did not free an unprotected retired node")
	}
	tA.Unregister()
	tB.Unregister()
}

func TestRetireThresholdTriggersScan(t *testing.T) {
	s, _ := newScheme(t, 16, 1, Config{RetireThreshold: 4})
	th, _ := s.Register()
	ct := th.(*Thread)
	for i := 0; i < 4; i++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		th.Release(h)
		th.Retire(h)
	}
	if ct.stats.Scans == 0 {
		t.Error("no scan after reaching the retire threshold")
	}
	if len(ct.retired) != 0 {
		t.Errorf("%d nodes still retired after scan, want 0", len(ct.retired))
	}
	th.Unregister()
}

func TestScanScrubsLinks(t *testing.T) {
	s, ar := newScheme(t, 4, 1, Config{RetireThreshold: 1000})
	th, _ := s.Register()
	a, _ := th.Alloc()
	b, _ := th.Alloc()
	th.StoreLink(ar.LinkOf(a, 0), arena.MakePtr(b, false))
	th.Release(a)
	th.Release(b)
	th.Retire(a)
	th.(*Thread).scan()
	if got := ar.LoadLink(ar.LinkOf(a, 0)); !got.IsNil() {
		t.Errorf("freed node link = %v, want nil", got)
	}
	th.Unregister()
}

func TestAllocScansWhenEmpty(t *testing.T) {
	s, _ := newScheme(t, 2, 1, Config{RetireThreshold: 1000})
	th, _ := s.Register()
	h1, _ := th.Alloc()
	h2, _ := th.Alloc()
	th.Release(h1)
	th.Release(h2)
	th.Retire(h1)
	th.Retire(h2)
	// Free-list is empty but two nodes are reclaimable.
	h3, err := th.Alloc()
	if err != nil {
		t.Fatalf("alloc with reclaimable retirements failed: %v", err)
	}
	th.Release(h3)
	th.Unregister()
}

func TestAllocOutOfMemory(t *testing.T) {
	s, _ := newScheme(t, 1, 1, Config{AllocRetryLimit: 8})
	th, _ := s.Register()
	h, _ := th.Alloc()
	if _, err := th.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	th.Release(h)
	th.Unregister()
}

func TestConcurrentAllocFreeOwnership(t *testing.T) {
	const threads = 8
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	ar := arena.MustNew(arena.Config{Nodes: threads * 8, ValsPerNode: 1})
	s := MustNew(ar, Config{Threads: threads})

	var wg sync.WaitGroup
	var violations atomic.Int64
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, err := s.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			stamp := uint64(id + 1)
			for k := 0; k < iters; k++ {
				h, err := th.Alloc()
				if err != nil {
					t.Errorf("thread %d: %v", id, err)
					return
				}
				ar.SetVal(h, 0, stamp)
				if ar.Val(h, 0) != stamp {
					violations.Add(1)
				}
				th.Release(h)
				th.Retire(h)
			}
		}(i)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d ownership violations", v)
	}
}
