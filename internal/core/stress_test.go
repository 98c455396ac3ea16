package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfrc/internal/arena"
)

func stressIters(n int) int {
	if testing.Short() {
		return n / 10
	}
	return n
}

// TestConcurrentAllocFreeOwnership hammers the free-list from many
// threads and checks mutual exclusion of allocation: a node handed out by
// AllocNode belongs to exactly one thread until released.  Each owner
// stamps the node's value word and verifies the stamp survives a
// re-read, which would fail if two threads ever owned the same node.
func TestConcurrentAllocFreeOwnership(t *testing.T) {
	const threads = 8
	iters := stressIters(20000)
	ar := arena.MustNew(arena.Config{Nodes: threads * 4, ValsPerNode: 1})
	s := MustNew(ar, Config{Threads: threads})

	var wg sync.WaitGroup
	var violations atomic.Int64
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, err := s.RegisterCore()
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
			}
		}(i)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d ownership violations (double allocation)", v)
	}
	audit(t, s, nil)
}

// TestConcurrentDeRefCASLinkChurn runs writers that continuously swing a
// shared root link to freshly allocated nodes against readers that
// dereference it, exercising the full announcement/helping machinery.
// At quiescence every reference must be accounted for.
func TestConcurrentDeRefCASLinkChurn(t *testing.T) {
	const writers, readers = 4, 4
	iters := stressIters(10000)
	ar := arena.MustNew(arena.Config{Nodes: 256, ValsPerNode: 1, RootLinks: 1})
	s := MustNew(ar, Config{Threads: writers + readers})
	root := ar.NewRoot()

	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wgW.Add(1)
		go func(id int) {
			defer wgW.Done()
			th, err := s.RegisterCore()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			for k := 0; k < iters; k++ {
				n, err := th.Alloc()
				if err != nil {
					t.Errorf("writer %d: %v", id, err)
					return
				}
				ar.SetVal(n, 0, uint64(id)<<32|uint64(k))
				for {
					old := th.DeRef(root)
					if th.CASLink(root, old, arena.MakePtr(n, false)) {
						th.Release(old.Handle())
						break
					}
					th.Release(old.Handle())
				}
				th.Release(n)
			}
		}(i)
	}
	var reads atomic.Int64
	for i := 0; i < readers; i++ {
		wgR.Add(1)
		go func() {
			defer wgR.Done()
			th, err := s.RegisterCore()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := th.DeRef(root)
				if !p.IsNil() {
					_ = ar.Val(p.Handle(), 0)
					th.Release(p.Handle())
				}
				reads.Add(1)
			}
		}()
	}
	// Readers run for the whole writer phase, then stop.
	wgW.Wait()
	close(stop)
	wgR.Wait()

	// Tear down: clear the root.
	th, _ := s.RegisterCore()
	p := th.DeRef(root)
	if !p.IsNil() {
		if !th.CASLink(root, p, arena.NilPtr) {
			t.Fatal("teardown CAS failed")
		}
		th.Release(p.Handle())
	}
	th.Unregister()
	audit(t, s, nil)
	if reads.Load() == 0 {
		t.Error("readers made no progress")
	}
}

// TestDeRefBoundedUnderAdversarialWriters holds the quantity the
// wait-freedom proof bounds (DESIGN.md §4, E2): one reader dereferences
// a root that three writers swing between freshly allocated nodes as
// fast as they can, and every one of its DeRefs must finish within
// Lemma 2's 2n announcement-slot probes.  Exactly one probe per DeRef is
// what a single CPU shows, not what the paper proves: under real
// parallelism a helper's busy pin can make the D1 scan skip a slot.
func TestDeRefBoundedUnderAdversarialWriters(t *testing.T) {
	const writers = 3
	reads := stressIters(20000)
	ar := arena.MustNew(arena.Config{Nodes: 64 * (writers + 1), RootLinks: 1})
	s := MustNew(ar, Config{Threads: writers + 1})
	root := ar.NewRoot()
	reader := mustRegisterT(t, s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var swings atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th, err := s.RegisterCore()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				swings.Add(1)
				n, err := th.Alloc()
				if err != nil {
					continue // exhaustion is transient under churn
				}
				old := th.DeRef(root)
				th.CASLink(root, old, arena.MakePtr(n, false))
				th.Release(old.Handle())
				th.Release(n)
			}
		}()
	}
	// At least `reads` dereferences, and no stopping before the writers
	// are actually swinging (20 000 reads can outrun goroutine start-up).
	for i := 0; i < reads || swings.Load() < writers; i++ {
		p := reader.DeRef(root)
		reader.Release(p.Handle())
	}
	close(stop)
	wg.Wait()

	st := reader.Stats()
	if st.DeRefs < uint64(reads) || st.DeRefSteps < st.DeRefs {
		t.Errorf("reader recorded %d steps over %d DeRefs, want at least %d DeRefs of at least one step", st.DeRefSteps, st.DeRefs, reads)
	}
	if bound := uint64(AnnScanBound(writers + 1)); st.DeRefMaxSteps < 1 || st.DeRefMaxSteps > bound {
		t.Errorf("wait-free DeRef max steps = %d, want within [1, %d] (Lemma 2)", st.DeRefMaxSteps, bound)
	}
	if v := s.AnnScanViolations(); v != 0 {
		t.Errorf("%d announcement-scan violations", v)
	}

	p := reader.DeRef(root)
	if !p.IsNil() {
		if !reader.CASLink(root, p, arena.NilPtr) {
			t.Fatal("teardown CAS failed")
		}
		reader.Release(p.Handle())
	}
	reader.Unregister()
	audit(t, s, nil)
}

// TestConcurrentMultiLinkChurn churns several links concurrently so
// HelpDeRef scans regularly encounter announcements for other links,
// and nodes form short chains through their link slots (exercising the
// cascade path of ReleaseRef under concurrency).
func TestConcurrentMultiLinkChurn(t *testing.T) {
	const threads = 6
	const roots = 4
	iters := stressIters(8000)
	// The four chains are reflected random walks (push and truncate are
	// equally likely, truncating an empty chain is a no-op): their summed
	// length sits near 300 by the end and its tail depends on how the
	// scheduler interleaves the six fixed op sequences.  512 nodes was
	// inside that tail, so the test reported genuine exhaustion whenever
	// the host was loaded; 4096 is out of its reach and also gives the
	// per-slot magazine its full depth under cascading releases.
	ar := arena.MustNew(arena.Config{Nodes: 4096, LinksPerNode: 1, ValsPerNode: 1, RootLinks: roots})
	s := MustNew(ar, Config{Threads: threads})
	links := make([]arena.LinkID, roots)
	for i := range links {
		links[i] = ar.NewRoot()
	}

	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, err := s.RegisterCore()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			rng := rand.New(rand.NewSource(int64(id) * 7919))
			for k := 0; k < iters; k++ {
				l := links[rng.Intn(roots)]
				switch rng.Intn(3) {
				case 0: // replace head with a fresh node chaining to it
					n, err := th.Alloc()
					if err != nil {
						t.Errorf("thread %d: %v", id, err)
						return
					}
					old := th.DeRef(l)
					if !old.IsNil() {
						th.StoreLink(ar.LinkOf(n, 0), arena.MakePtr(old.Handle(), false))
					}
					if th.CASLink(l, old, arena.MakePtr(n, false)) {
						th.Release(old.Handle())
					} else {
						// Roll back the fresh node entirely; its link slot
						// still references old, which Release's cascade
						// will drop.
						th.Release(old.Handle())
					}
					th.Release(n)
				case 1: // truncate: head -> head.next
					hd := th.DeRef(l)
					if hd.IsNil() {
						continue
					}
					nx := th.DeRef(ar.LinkOf(hd.Handle(), 0))
					if th.CASLink(l, hd, arena.MakePtr(nx.Handle(), false)) {
						th.Release(hd.Handle())
					} else {
						th.Release(hd.Handle())
					}
					th.Release(nx.Handle())
				default: // read
					p := th.DeRef(l)
					if !p.IsNil() {
						_ = ar.Val(p.Handle(), 0)
						th.Release(p.Handle())
					}
				}
			}
		}(i)
	}
	wg.Wait()

	// Tear down all chains.
	th, _ := s.RegisterCore()
	for _, l := range links {
		for {
			p := th.DeRef(l)
			if p.IsNil() {
				break
			}
			nx := th.DeRef(ar.LinkOf(p.Handle(), 0))
			if th.CASLink(l, p, nx) {
				// The link's reference to nx was added by CASLink; drop
				// our own derefs.
				th.Release(nx.Handle())
				th.Release(p.Handle())
			} else {
				th.Release(nx.Handle())
				th.Release(p.Handle())
			}
		}
	}
	th.Unregister()
	audit(t, s, nil)
}

// TestConcurrentHelpingUnderOversubscription oversubscribes the scheduler
// so goroutines are preempted mid-operation, maximizing the chance of
// stale announcements and late helper answers.
func TestConcurrentHelpingUnderOversubscription(t *testing.T) {
	threads := 2 * runtime.GOMAXPROCS(0)
	if threads > 16 {
		threads = 16
	}
	if threads < 4 {
		threads = 4
	}
	iters := stressIters(4000)
	ar := arena.MustNew(arena.Config{Nodes: 64, ValsPerNode: 1, RootLinks: 1})
	s := MustNew(ar, Config{Threads: threads})
	root := ar.NewRoot()

	var wg sync.WaitGroup
	var helps atomic.Uint64
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th, err := s.RegisterCore()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			for k := 0; k < iters; k++ {
				if id%2 == 0 {
					p := th.DeRef(root)
					th.Release(p.Handle())
				} else {
					n, err := th.Alloc()
					if err != nil {
						t.Errorf("thread %d: %v", id, err)
						return
					}
					old := th.DeRef(root)
					if th.CASLink(root, old, arena.MakePtr(n, false)) {
						th.Release(old.Handle())
					} else {
						th.Release(old.Handle())
					}
					th.Release(n)
				}
			}
			helps.Add(th.Stats().HelpsGiven + th.Stats().HelpsReceived)
		}(i)
	}
	wg.Wait()

	th, _ := s.RegisterCore()
	p := th.DeRef(root)
	if !p.IsNil() {
		th.CASLink(root, p, arena.NilPtr)
		th.Release(p.Handle())
	}
	th.Unregister()
	audit(t, s, nil)
	t.Logf("helping events observed: %d", helps.Load())
}
