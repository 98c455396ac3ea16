package list

import (
	"sort"
	"sync"
	"testing"

	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

func TestReplaceSequential(t *testing.T) {
	forEachScheme(t, 64, 1, func(t *testing.T, s mm.Scheme) {
		th, _ := s.Register()
		defer th.Unregister()
		l := MustNew(s)

		existed, err := l.Replace(th, 5, 50)
		if err != nil || existed {
			t.Fatalf("Replace fresh = %v,%v", existed, err)
		}
		if v, ok := l.Get(th, 5); !ok || v != 50 {
			t.Fatalf("Get(5) = %d,%v", v, ok)
		}
		existed, err = l.Replace(th, 5, 51)
		if err != nil || !existed {
			t.Fatalf("Replace existing = %v,%v", existed, err)
		}
		if v, ok := l.Get(th, 5); !ok || v != 51 {
			t.Fatalf("Get(5) after replace = %d,%v", v, ok)
		}
		if n := l.Len(); n != 1 {
			t.Fatalf("Len = %d, want 1", n)
		}
		if !l.Delete(th, 5) {
			t.Fatal("Delete(5) failed")
		}
	})
}

// TestReplaceNodeChurn verifies Replace actually retires the old node —
// the property the value layer depends on: every replaced value word
// must pass through the node-free hook exactly once.
func TestReplaceNodeChurn(t *testing.T) {
	forEachScheme(t, 32, 1, func(t *testing.T, s mm.Scheme) {
		th, _ := s.Register()
		defer th.Unregister()
		l := MustNew(s)
		// Far more replacements than nodes: reclamation must recycle.
		for i := 0; i < 1000; i++ {
			if _, err := l.Replace(th, 7, uint64(i)); err != nil {
				t.Fatalf("replace %d: %v", i, err)
			}
		}
		if v, ok := l.Get(th, 7); !ok || v != 999 {
			t.Fatalf("Get(7) = %d,%v", v, ok)
		}
	})
}

// TestReplaceOneTraversal counts the nodes Replace visits: replacing a
// present key dereferences exactly what a Get of that key does — one
// walk to the node, no second walk to insert its successor.
func TestReplaceOneTraversal(t *testing.T) {
	const chain = 8
	forEachScheme(t, 64, 1, func(t *testing.T, s mm.Scheme) {
		th, _ := s.Register()
		defer th.Unregister()
		l := MustNew(s)
		for k := uint64(1); k <= chain; k++ {
			if _, err := l.Insert(th, k*10, k); err != nil {
				t.Fatal(err)
			}
		}
		derefs := func(op func()) uint64 {
			before := th.Stats().DeRefs
			op()
			return th.Stats().DeRefs - before
		}
		for k := uint64(1); k <= chain; k++ {
			get := derefs(func() { l.Get(th, k*10) })
			replace := derefs(func() {
				if existed, err := l.Replace(th, k*10, k+100); err != nil || !existed {
					t.Fatalf("Replace(%d) = %v,%v", k*10, existed, err)
				}
			})
			if get != k+1 || replace != get {
				t.Errorf("key %d of %d: Get made %d DeRefs (want %d), Replace %d (want the same)",
					k, chain, get, k+1, replace)
			}
		}
		if got := l.Len(); got != chain {
			t.Fatalf("Len = %d, want %d", got, chain)
		}
	})
}

// TestReplaceConcurrent races Replace, GetWith and Delete on a few
// shared keys with a lifecycle sink attached.  A reader must only ever
// see a value some worker wrote under that key; once the list is emptied
// and every thread flushed, each displaced node must have been retired
// and reclaimed exactly once.
func TestReplaceConcurrent(t *testing.T) {
	const (
		threads = 4
		keys    = 8
		rounds  = 300
		// One waitfree-deferred thread can hold back up to 128 nodes (ZCT
		// 64 + sticky pins 64; ROADMAP item 1), so the arena is sized for
		// that, not for the 8 live keys.
		nodes = 2048
	)
	encode := func(k uint64, w, i int) uint64 { return k<<32 | uint64(w)<<16 | uint64(i) }
	forEachScheme(t, nodes, threads+1, func(t *testing.T, s mm.Scheme) {
		l := MustNew(s)
		tr := mm.NewLifecycleTracker(nodes)
		s.(mm.LifecycleSource).SetLifecycleSink(tr)
		ths := make([]mm.Thread, threads+1)
		for i := range ths {
			th, err := s.Register()
			if err != nil {
				t.Fatal(err)
			}
			ths[i] = th
		}
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int, th mm.Thread) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					k := uint64(i % keys)
					if _, err := l.Replace(th, k, encode(k, w, i)); err != nil {
						t.Errorf("worker %d replace: %v", w, err)
						return
					}
					rk := uint64((i + w) % keys)
					l.GetWith(th, rk, func(v uint64) {
						if v>>32 != rk || v>>16&0xffff >= threads || v&0xffff >= rounds {
							t.Errorf("worker %d read %#x under key %d: no worker wrote that", w, v, rk)
						}
					})
					if i%7 == w {
						l.Delete(th, rk)
					}
				}
			}(w, ths[w])
		}
		wg.Wait()
		// Every key resolves to at most one live node, in key order.
		if got := l.Keys(); len(got) > keys || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("Keys = %v, want at most %d sorted keys", got, keys)
		}
		survivor := ths[threads]
		for k := uint64(0); k < keys; k++ {
			l.Delete(survivor, k)
		}
		if n := l.Len(); n != 0 {
			t.Fatalf("Len = %d after deleting every key", n)
		}
		schemes.Flush(ths...)
		for _, th := range ths {
			th.Unregister()
		}
		// Epoch frees a retired node at a later Alloc, not at Flush or
		// Unregister, so it may still hold some; every other scheme must
		// have reclaimed every node it retired.
		lazy := s.Name() == "epoch"
		snap := tr.Snapshot()
		if snap.Retired == 0 || snap.Floating != int64(snap.Retired-snap.Reclaimed) || (snap.Floating != 0 && !lazy) {
			t.Errorf("sink at quiescence: retired %d, reclaimed %d, floating %d",
				snap.Retired, snap.Reclaimed, snap.Floating)
		}
	})
}

func TestGetWithAndRange(t *testing.T) {
	forEachScheme(t, 64, 1, func(t *testing.T, s mm.Scheme) {
		th, _ := s.Register()
		defer th.Unregister()
		l := MustNew(s)
		for _, k := range []uint64{2, 4, 6} {
			if _, err := l.Replace(th, k, k*100); err != nil {
				t.Fatal(err)
			}
		}
		var got uint64
		if !l.GetWith(th, 4, func(v uint64) { got = v }) {
			t.Fatal("GetWith(4) = false")
		}
		if got != 400 {
			t.Fatalf("GetWith(4) saw %d", got)
		}
		called := false
		if l.GetWith(th, 5, func(uint64) { called = true }) || called {
			t.Fatal("GetWith(5) on absent key invoked fn")
		}
		seen := map[uint64]uint64{}
		l.Range(func(k, v uint64) { seen[k] = v })
		if len(seen) != 3 || seen[2] != 200 || seen[4] != 400 || seen[6] != 600 {
			t.Fatalf("Range saw %v", seen)
		}
	})
}
