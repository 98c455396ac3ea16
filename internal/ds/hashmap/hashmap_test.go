package hashmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

func arenaCfg(nodes, buckets int) arena.Config {
	return arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 2, RootLinks: buckets + 2}
}

func forEachScheme(t *testing.T, nodes, threads, buckets int, fn func(t *testing.T, s mm.Scheme, m *Map)) {
	for _, f := range schemes.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s, err := f.New(arenaCfg(nodes, buckets), schemes.Options{Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(s, Config{Buckets: buckets})
			if err != nil {
				t.Fatal(err)
			}
			fn(t, s, m)
			for _, err := range schemes.AuditRC(s, nil) {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	s, _ := f.New(arenaCfg(8, 8), schemes.Options{Threads: 1})
	if _, err := New(s, Config{Buckets: 3}); err == nil {
		t.Error("non-power-of-two bucket count accepted")
	}
	if _, err := New(s, Config{Buckets: 4}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestBucketsAreOneRootRange pins the index layout: New reserves exactly
// Buckets consecutive root links, and an arena with fewer left is an
// error, not a panic.
func TestBucketsAreOneRootRange(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	s, _ := f.New(arenaCfg(8, 16), schemes.Options{Threads: 1}) // 18 root links
	ar := s.Arena()
	before := ar.NewRoot()
	m, err := New(s, Config{Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	after := ar.NewRoot()
	if m.first != before+1 || after != m.first+16 {
		t.Fatalf("16 buckets took roots %d..%d between single roots %d and %d, want the 16 in between",
			m.first, after-1, before, after)
	}
	for i := uint64(0); i < 16; i++ {
		if id := m.first + mm.LinkID(i); !ar.LoadLink(id).IsNil() {
			t.Fatalf("bucket %d (root %d) not empty", i, id)
		}
	}
	if _, err := New(s, Config{Buckets: 2}); err == nil {
		t.Fatal("New with 0 root links left succeeded")
	}
	s, _ = f.New(arenaCfg(8, 6), schemes.Options{Threads: 1}) // 8 root links
	if _, err := New(s, Config{Buckets: 16}); err == nil {
		t.Fatal("New with 8 root links for 16 buckets succeeded")
	}
	if first, err := s.Arena().NewRoots(8); err != nil || first != 1 {
		t.Fatalf("the failed New consumed roots: NewRoots(8) = %d,%v", first, err)
	}
}

// TestOperationsDoNotAllocate pins the flat index: building a bucket's
// list is stack work, so the read path, a refused insert and a missed
// delete reach no heap allocation.
func TestOperationsDoNotAllocate(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	s, _ := f.New(arenaCfg(256, 16), schemes.Options{Threads: 1})
	m := MustNew(s, Config{Buckets: 16})
	th, _ := s.Register()
	defer th.Unregister()
	for k := uint64(0); k < 64; k += 2 {
		if _, err := m.Insert(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	k := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		k = (k + 1) % 64
		_, found := m.Get(th, k)
		ins, err := m.Insert(th, k&^1, k)
		if found != (k%2 == 0) || ins || err != nil || m.Delete(th, k|1) {
			t.Fatalf("key %d: Get found %v, Insert of a present key %v,%v", k, found, ins, err)
		}
	}); n != 0 {
		t.Errorf("Get + Insert-existing + Delete-missing allocate %v times, want 0", n)
	}
}

func TestMapSemanticsSequential(t *testing.T) {
	forEachScheme(t, 128, 1, 8, func(t *testing.T, s mm.Scheme, m *Map) {
		th, _ := s.Register()
		defer th.Unregister()
		for k := uint64(0); k < 40; k++ {
			if ok, err := m.Insert(th, k, k*3); err != nil || !ok {
				t.Fatalf("Insert(%d) = %v,%v", k, ok, err)
			}
		}
		if ok, _ := m.Insert(th, 7, 1); ok {
			t.Fatal("duplicate insert accepted")
		}
		if got := m.Len(); got != 40 {
			t.Fatalf("Len = %d, want 40", got)
		}
		for k := uint64(0); k < 40; k++ {
			v, ok := m.Get(th, k)
			if !ok || v != k*3 {
				t.Fatalf("Get(%d) = %d,%v", k, v, ok)
			}
		}
		if m.Contains(th, 100) {
			t.Fatal("phantom key present")
		}
		for k := uint64(0); k < 40; k += 2 {
			if !m.Delete(th, k) {
				t.Fatalf("Delete(%d) failed", k)
			}
		}
		if got := m.Len(); got != 20 {
			t.Fatalf("Len after deletes = %d, want 20", got)
		}
		for k := uint64(1); k < 40; k += 2 {
			m.Delete(th, k)
		}
	})
}

func TestQuickAgainstMapModel(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	run := func(ops []uint16) bool {
		s, err := f.New(arenaCfg(128, 8), schemes.Options{Threads: 1})
		if err != nil {
			return false
		}
		th, _ := s.Register()
		defer th.Unregister()
		m := MustNew(s, Config{Buckets: 8})
		model := map[uint64]uint64{}
		for _, op := range ops {
			k := uint64(op % 64)
			switch (op / 64) % 3 {
			case 0:
				ok, err := m.Insert(th, k, k+5)
				if err != nil {
					return false
				}
				_, dup := model[k]
				if ok == dup {
					return false
				}
				if !dup {
					model[k] = k + 5
				}
			case 1:
				if m.Delete(th, k) != containsKey(model, k) {
					return false
				}
				delete(model, k)
			default:
				v, ok := m.Get(th, k)
				mv, present := model[k]
				if ok != present || (ok && v != mv) {
					return false
				}
			}
		}
		return m.Len() == len(model)
	}
	cfg := &quick.Config{MaxCount: 100}
	if testing.Short() {
		cfg.MaxCount = 20
	}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}

func containsKey(m map[uint64]uint64, k uint64) bool {
	_, ok := m[k]
	return ok
}

func TestConcurrentMixedChurn(t *testing.T) {
	const threads = 6
	iters := 4000
	if testing.Short() {
		iters = 400
	}
	forEachScheme(t, 1024, threads, 16, func(t *testing.T, s mm.Scheme, m *Map) {
		var wg sync.WaitGroup
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
				rng := rand.New(rand.NewSource(int64(id) * 997))
				for k := 0; k < iters; k++ {
					key := uint64(rng.Intn(128))
					switch rng.Intn(3) {
					case 0:
						if _, err := m.Insert(th, key, key); err != nil {
							t.Errorf("thread %d: %v", id, err)
							return
						}
					case 1:
						m.Delete(th, key)
					default:
						m.Get(th, key)
					}
				}
			}(i)
		}
		wg.Wait()
		// Consistency: no duplicates across the whole map.
		keys := m.Keys()
		seen := map[uint64]bool{}
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("duplicate key %d", k)
			}
			seen[k] = true
		}
		// Clean up for the audit.
		th, _ := s.Register()
		for _, k := range keys {
			m.Delete(th, k)
		}
		th.Unregister()
	})
}

func TestBucketSpread(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	s, _ := f.New(arenaCfg(2048, 16), schemes.Options{Threads: 1})
	m := MustNew(s, Config{Buckets: 16})
	th, _ := s.Register()
	defer th.Unregister()
	for k := uint64(0); k < 1024; k++ {
		if _, err := m.Insert(th, k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Every bucket should hold a reasonable share of sequential keys.
	for i := 0; i < m.Buckets(); i++ {
		n := m.at(uint64(i)).Len()
		if n < 16 || n > 256 {
			t.Errorf("bucket %d holds %d of 1024 keys: hash is skewed", i, n)
		}
	}
}

func TestSetAndCompareAndSet(t *testing.T) {
	forEachScheme(t, 128, 1, 8, func(t *testing.T, s mm.Scheme, m *Map) {
		th, _ := s.Register()
		defer th.Unregister()
		for k := uint64(0); k < 20; k++ {
			if ins, err := m.Set(th, k, k); err != nil || !ins {
				t.Fatalf("Set(%d) = %v,%v, want insert", k, ins, err)
			}
		}
		for k := uint64(0); k < 20; k++ {
			if ins, err := m.Set(th, k, k*2); err != nil || ins {
				t.Fatalf("Set(%d) update = %v,%v, want in-place", k, ins, err)
			}
		}
		if n := m.Len(); n != 20 {
			t.Fatalf("Len = %d, want 20 after upserts", n)
		}
		for k := uint64(0); k < 20; k++ {
			if v, ok := m.Get(th, k); !ok || v != k*2 {
				t.Fatalf("Get(%d) = %d,%v", k, v, ok)
			}
		}
		if sw, found := m.CompareAndSet(th, 3, 6, 7); !sw || !found {
			t.Fatalf("CAS(3,6,7) = %v,%v", sw, found)
		}
		if sw, found := m.CompareAndSet(th, 3, 6, 8); sw || !found {
			t.Fatalf("CAS stale old = %v,%v", sw, found)
		}
		if sw, found := m.CompareAndSet(th, 99, 0, 1); sw || found {
			t.Fatalf("CAS absent = %v,%v", sw, found)
		}
		for k := uint64(0); k < 20; k++ {
			if !m.Delete(th, k) {
				t.Fatalf("Delete(%d) failed", k)
			}
		}
	})
}

// highAlloc records the highest handle Alloc ever returned.
type highAlloc struct {
	mm.Thread
	high arena.Handle
}

func (a *highAlloc) Alloc() (arena.Handle, error) {
	h, err := a.Thread.Alloc()
	a.high = max(a.high, h)
	return h, err
}

// TestReplaceChurnStaysInWorkingSet pins the locality the per-slot
// magazine buys (core/freelist.go): a store that replaces one node per
// write must keep reusing the node it just freed, not walk the arena.
// Handles are handed out in ascending order from freeList[0], so the
// highest handle Alloc returns is how far into the arena the run
// reached.  Without the magazine every freed node goes to the back of
// the rotation and 100 000 replaces reach node 65 536.
func TestReplaceChurnStaysInWorkingSet(t *testing.T) {
	const (
		nodes, keys, replaces = 65536, 1024, 100000
		magDepth              = 8 // core's depth for this geometry
	)
	f, _ := schemes.ByName("waitfree")
	// A store shard's geometry: eight slots, one of them driven here.
	// (With a single slot the F3 offer lands in the caller's own annAlloc
	// cell and hides the effect.)
	s, err := f.New(arenaCfg(nodes, 1024), schemes.Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	m := MustNew(s, Config{Buckets: 1024})
	reg, err := s.Register()
	if err != nil {
		t.Fatal(err)
	}
	th := &highAlloc{Thread: reg}
	for k := uint64(0); k < keys; k++ {
		if ok, err := m.Insert(th, k, k); !ok || err != nil {
			t.Fatalf("prefill key %d: %v, %v", k, ok, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < replaces; i++ {
		if existed, err := m.Replace(th, uint64(rng.Intn(keys)), uint64(i)); !existed || err != nil {
			t.Fatalf("replace %d: existed %v, err %v", i, existed, err)
		}
	}
	if limit := arena.Handle(keys + magDepth + 2); th.high > limit {
		t.Errorf("highest handle allocated = %d, want <= %d (live keys + magazine depth + 2): the churn left its working set",
			th.high, limit)
	}
	reg.Unregister()
	for _, err := range schemes.AuditRC(s, nil) {
		t.Errorf("audit: %v", err)
	}
}
