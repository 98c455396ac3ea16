package pqueue

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

func arenaCfg(nodes, maxLevel int) arena.Config {
	return arena.Config{Nodes: nodes, LinksPerNode: maxLevel, ValsPerNode: 4, RootLinks: maxLevel + 2}
}

func forEachScheme(t *testing.T, nodes, threads, maxLevel int, fn func(t *testing.T, s mm.Scheme, pq *PQueue)) {
	for _, f := range schemes.Factories() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			s, err := f.New(arenaCfg(nodes, maxLevel), schemes.Options{
				Threads:     threads,
				HazardSlots: 2*maxLevel + 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			pq, err := New(s, Config{MaxLevel: maxLevel})
			if err != nil {
				t.Fatal(err)
			}
			fn(t, s, pq)
			for _, err := range schemes.AuditRC(s, nil) {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

func TestSortedSequential(t *testing.T) {
	forEachScheme(t, 128, 1, 4, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		th, _ := s.Register()
		defer th.Unregister()

		if _, _, ok := pq.DeleteMin(th); ok {
			t.Fatal("DeleteMin on empty queue succeeded")
		}
		if _, _, ok := pq.PeekMin(th); ok {
			t.Fatal("PeekMin on empty queue succeeded")
		}
		keys := []uint64{42, 7, 99, 1, 63, 23, 5, 77, 3, 50}
		for _, k := range keys {
			if err := pq.Insert(th, k, k*2); err != nil {
				t.Fatal(err)
			}
		}
		if got := pq.Len(); got != len(keys) {
			t.Fatalf("Len = %d, want %d", got, len(keys))
		}
		sorted := append([]uint64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if k, v, ok := pq.PeekMin(th); !ok || k != 1 || v != 2 {
			t.Fatalf("PeekMin = %d,%d,%v", k, v, ok)
		}
		for _, want := range sorted {
			k, v, ok := pq.DeleteMin(th)
			if !ok || k != want || v != want*2 {
				t.Fatalf("DeleteMin = %d,%d,%v, want %d", k, v, ok, want)
			}
		}
		if _, _, ok := pq.DeleteMin(th); ok {
			t.Fatal("DeleteMin after drain succeeded")
		}
	})
}

func TestDuplicateKeys(t *testing.T) {
	forEachScheme(t, 64, 1, 4, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		th, _ := s.Register()
		defer th.Unregister()
		// Three entries with the same priority, distinct values.
		for i := uint64(0); i < 3; i++ {
			if err := pq.Insert(th, 10, 100+i); err != nil {
				t.Fatal(err)
			}
		}
		if err := pq.Insert(th, 5, 55); err != nil {
			t.Fatal(err)
		}
		got := map[uint64]bool{}
		k, v, ok := pq.DeleteMin(th)
		if !ok || k != 5 || v != 55 {
			t.Fatalf("first DeleteMin = %d,%d,%v", k, v, ok)
		}
		for i := 0; i < 3; i++ {
			k, v, ok := pq.DeleteMin(th)
			if !ok || k != 10 {
				t.Fatalf("DeleteMin %d = %d,%d,%v", i, k, v, ok)
			}
			if got[v] {
				t.Fatalf("value %d delivered twice", v)
			}
			got[v] = true
		}
		if len(got) != 3 {
			t.Fatalf("got %d distinct values, want 3", len(got))
		}
	})
}

func TestInterleavedInsertDeleteMin(t *testing.T) {
	forEachScheme(t, 64, 1, 4, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		th, _ := s.Register()
		defer th.Unregister()
		rng := rand.New(rand.NewSource(7))
		model := &minHeap{}
		for round := 0; round < 2000; round++ {
			if rng.Intn(2) == 0 || model.len() == 0 {
				k := uint64(rng.Intn(1000))
				if err := pq.Insert(th, k, k); err != nil {
					t.Fatal(err)
				}
				model.push(k)
			} else {
				k, _, ok := pq.DeleteMin(th)
				want := model.pop()
				if !ok || k != want {
					t.Fatalf("round %d: DeleteMin = %d,%v, want %d", round, k, ok, want)
				}
			}
		}
		for model.len() > 0 {
			k, _, ok := pq.DeleteMin(th)
			want := model.pop()
			if !ok || k != want {
				t.Fatalf("drain: DeleteMin = %d,%v, want %d", k, ok, want)
			}
		}
	})
}

// minHeap is a tiny test model.
type minHeap struct{ a []uint64 }

func (h *minHeap) len() int { return len(h.a) }
func (h *minHeap) push(v uint64) {
	h.a = append(h.a, v)
	for i := len(h.a) - 1; i > 0; {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}
func (h *minHeap) pop() uint64 {
	v := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < last && h.a[l] < h.a[m] {
			m = l
		}
		if r < last && h.a[r] < h.a[m] {
			m = r
		}
		if m == i {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return v
}

// TestConcurrentConservation runs mixed insert/deleteMin threads and
// checks that every inserted value is delivered exactly once (counting a
// final drain), across all schemes.
func TestConcurrentConservation(t *testing.T) {
	const threads = 6
	perThread := 3000
	if testing.Short() {
		perThread = 300
	}
	forEachScheme(t, 2048, threads+1, 8, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		var mu sync.Mutex
		got := make(map[uint64]int)
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
				rng := rand.New(rand.NewSource(int64(id) * 101))
				local := make(map[uint64]int)
				for k := 0; k < perThread; k++ {
					val := uint64(id)<<32 | uint64(k)
					if err := pq.Insert(th, uint64(rng.Intn(512)), val); err != nil {
						t.Errorf("thread %d: %v", id, err)
						return
					}
					for r := 0; r < 100; r++ {
						if _, v, ok := pq.DeleteMin(th); ok {
							local[v]++
							break
						}
					}
				}
				mu.Lock()
				for v, c := range local {
					got[v] += c
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		checkLevels(t, pq)
		drainExactlyOnce(t, s, pq, got, threads*perThread)
	})
}

// drainExactlyOnce empties pq into got, then checks that want distinct
// values were each delivered once and that every level is empty.
func drainExactlyOnce(t *testing.T, s mm.Scheme, pq *PQueue, got map[uint64]int, want int) {
	t.Helper()
	th, _ := s.Register()
	for {
		_, v, ok := pq.DeleteMin(th)
		if !ok {
			break
		}
		got[v]++
	}
	th.Unregister()

	if len(got) != want {
		t.Fatalf("distinct values = %d, want %d", len(got), want)
	}
	for v, c := range got {
		if c != 1 {
			t.Fatalf("value %#x delivered %d times", v, c)
		}
	}
	if pq.Len() != 0 {
		t.Fatalf("queue not empty after drain: %d", pq.Len())
	}
	checkLevels(t, pq)
}

// TestConcurrentOrdering checks the priority-queue ordering property that
// survives concurrency: with a prefilled queue and concurrent consumers
// only, the multiset of consumed keys equals the prefill, and each
// consumer sees non-decreasing keys.
func TestConcurrentOrdering(t *testing.T) {
	const threads = 6
	const n = 3000
	forEachScheme(t, 4096, threads+1, 8, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		setup, _ := s.Register()
		for i := 0; i < n; i++ {
			if err := pq.Insert(setup, uint64(i), uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		setup.Unregister()

		var mu sync.Mutex
		seen := make(map[uint64]int)
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
				var keys []uint64
				for {
					k, _, ok := pq.DeleteMin(th)
					if !ok {
						break
					}
					keys = append(keys, k)
				}
				for i := 1; i < len(keys); i++ {
					if keys[i] <= keys[i-1] {
						t.Errorf("thread %d: non-increasing keys %d then %d", id, keys[i-1], keys[i])
						break
					}
				}
				mu.Lock()
				for _, k := range keys {
					seen[k]++
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		checkLevels(t, pq)
		if len(seen) != n {
			t.Fatalf("consumed %d distinct keys, want %d", len(seen), n)
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("key %d consumed %d times", k, c)
			}
		}
	})
}

func TestConfigValidation(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	s, _ := f.New(arenaCfg(16, 2), schemes.Options{Threads: 1})
	if _, err := New(s, Config{MaxLevel: 4}); err == nil {
		t.Error("accepted arena with too few links")
	}
	if _, err := New(s, Config{MaxLevel: 31}); err == nil {
		t.Error("accepted out-of-range MaxLevel")
	}
	if _, err := New(s, Config{MaxLevel: 2}); err != nil {
		t.Errorf("rejected valid config: %v", err)
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	f, _ := schemes.ByName("waitfree")
	s, _ := f.New(arenaCfg(16, 8), schemes.Options{Threads: 1})
	pq := MustNew(s, Config{MaxLevel: 8})
	th, _ := s.Register()
	defer th.Unregister()
	counts := make([]int, 9)
	const n = 100000
	for i := 0; i < n; i++ {
		lvl := pq.randomLevel(th)
		if lvl < 1 || lvl > 8 {
			t.Fatalf("level %d out of range", lvl)
		}
		counts[lvl]++
	}
	// Geometric(1/2): level 1 should get roughly half.
	if counts[1] < n/3 || counts[1] > 2*n/3 {
		t.Errorf("level-1 count %d not near %d", counts[1], n/2)
	}
	if counts[8] == 0 {
		t.Error("max level never drawn")
	}
}
