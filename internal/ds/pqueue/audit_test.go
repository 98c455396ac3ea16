package pqueue

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

// auditLevels walks every level from its head at quiescence and checks
// that each node it reaches at level L is a live, fully linked tower
// member (height > L, unmarked level-0 link, lstate lsLinked), that each
// level is sorted by key, and that each level's node set is contained in
// level 0's.  A node stranded at an upper level after its retirement
// fails the first check.
func auditLevels(pq *PQueue) []error {
	var errs []error
	inBottom := make(map[arena.Handle]bool)
	for lvl := 0; lvl < pq.maxLevel; lvl++ {
		var prevKey uint64
		steps := 0
		for p := pq.ar.LoadLink(pq.heads[lvl]); !p.IsNil(); {
			h := p.Handle()
			if steps++; steps > pq.ar.Nodes()+1 {
				errs = append(errs, fmt.Errorf("level %d: cycle", lvl))
				break
			}
			k := pq.key(h)
			switch {
			case pq.level(h) <= lvl:
				errs = append(errs, fmt.Errorf("level %d: node %v (key %d) has height %d", lvl, h, k, pq.level(h)))
			case pq.ar.LoadLink(pq.link(h, 0)).Marked():
				errs = append(errs, fmt.Errorf("level %d: node %v (key %d) is claimed but still linked", lvl, h, k))
			case pq.ar.Val(h, lsWord) != lsLinked:
				errs = append(errs, fmt.Errorf("level %d: node %v (key %d) has lstate %d", lvl, h, k, pq.ar.Val(h, lsWord)))
			}
			if steps > 1 && k < prevKey {
				errs = append(errs, fmt.Errorf("level %d: key %d after %d", lvl, k, prevKey))
			}
			prevKey = k
			if lvl == 0 {
				inBottom[h] = true
			} else if !inBottom[h] {
				errs = append(errs, fmt.Errorf("level %d: node %v (key %d) is not on level 0", lvl, h, k))
			}
			p = pq.ar.LoadLink(pq.link(h, lvl)).WithMark(false)
		}
	}
	return errs
}

func checkLevels(t *testing.T, pq *PQueue) {
	t.Helper()
	for _, err := range auditLevels(pq) {
		t.Errorf("levels: %v", err)
	}
}

// TestConcurrentDuplicates has six threads insert keys in [0, 4), then
// take half of them back out, audits the levels, and checks conservation
// over a final drain.  Concurrent inserts of equal keys can order a pair
// differently at an upper level than at level 0, so DeleteMin's
// non-exclusive unlinking pass stops at an unmarked equal key ahead of
// the claimed node; drainPend's confirmGone pass is what unlinks it
// there.  Keys left in the queue keep such a level from being
// swept again before the audit.
func TestConcurrentDuplicates(t *testing.T) {
	const threads, perThread = 6, 400
	forEachScheme(t, 4096, threads+1, 8, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		var mu sync.Mutex
		got := make(map[uint64]int)
		var inserted, wg sync.WaitGroup
		inserted.Add(threads)
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th, err := s.Register()
				if err != nil {
					t.Error(err)
					inserted.Done()
					return
				}
				defer th.Unregister()
				rng := rand.New(rand.NewSource(int64(id) * 101))
				for k := 0; k < perThread; k++ {
					if err := pq.Insert(th, uint64(rng.Intn(4)), uint64(id)<<32|uint64(k)); err != nil {
						t.Errorf("thread %d: %v", id, err)
						break
					}
				}
				inserted.Done()
				inserted.Wait()
				var local []uint64
				for k := 0; k < perThread/2; k++ {
					if _, v, ok := pq.DeleteMin(th); ok {
						local = append(local, v)
					}
				}
				mu.Lock()
				for _, v := range local {
					got[v]++
				}
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		checkLevels(t, pq)
		drainExactlyOnce(t, s, pq, got, threads*perThread)
	})
}

// TestConfirmReachesInvertedDuplicates builds by hand a state that
// concurrent inserts of equal keys can leave behind: three key-5 towers
// ordered differently on each level.
//
//	level 2: x n
//	level 1: y n x
//	level 0: n y x
//
// DeleteMin claims n.  Its non-exclusive pass stops at x on level 2 and
// at y on level 1, so the confirmation pass must unlink n from both.  A
// pass that advanced past x on level 2 and descended from it would start
// level 1 after n and leave n linked there once retired.
func TestConfirmReachesInvertedDuplicates(t *testing.T) {
	forEachScheme(t, 64, 1, 4, func(t *testing.T, s mm.Scheme, pq *PQueue) {
		th, _ := s.Register()
		defer th.Unregister()
		newTower := func(value uint64, height int) arena.Handle {
			h, err := th.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			pq.ar.SetVal(h, 0, 5)
			pq.ar.SetVal(h, 1, value)
			pq.ar.SetVal(h, heightWord, uint64(height))
			pq.ar.SetVal(h, lsWord, lsLinked)
			return h
		}
		n, x, y := newTower(1, 3), newTower(2, 3), newTower(3, 2)
		th.BeginOp()
		for lvl, order := range [][]arena.Handle{{n, y, x}, {y, n, x}, {x, n}} {
			prev := pq.heads[lvl]
			for _, h := range order {
				if !th.CASLink(prev, arena.NilPtr, arena.MakePtr(h, false)) {
					t.Fatalf("level %d: link CAS failed", lvl)
				}
				prev = pq.link(h, lvl)
			}
		}
		th.EndOp()
		for _, h := range []arena.Handle{n, x, y} {
			th.Release(h)
		}
		checkLevels(t, pq)

		for _, want := range []uint64{1, 3, 2} {
			if k, v, ok := pq.DeleteMin(th); !ok || k != 5 || v != want {
				t.Fatalf("DeleteMin = %d,%d,%v, want 5,%d", k, v, ok, want)
			}
			checkLevels(t, pq)
		}
		schemes.Flush(th)
	})
}

// TestDeRefsPerOp pins how many references the skiplist takes per
// operation on a 4 096-key queue: find guards only the nodes it keeps
// or moves through, and a claimed node is unlinked from its own height.
// The duplicates case holds one key only.  There, a confirmation pass
// that walked each level past every equal key would cost about 2·4 096
// DeRefs per DeleteMin.
func TestDeRefsPerOp(t *testing.T) {
	const prefill, pairs = 4096, 20000
	for _, tc := range []struct {
		name           string
		keys           int
		maxIns, maxDel float64
	}{
		{"uniform", 1 << 20, 18, 12},
		{"duplicates", 1, 44, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, _ := schemes.ByName("waitfree")
			s, err := f.New(arenaCfg(2*prefill, 8), schemes.Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			pq := MustNew(s, Config{MaxLevel: 8})
			th, _ := s.Register()
			defer th.Unregister()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < prefill; i++ {
				if err := pq.Insert(th, uint64(rng.Intn(tc.keys)), 0); err != nil {
					t.Fatal(err)
				}
			}
			var ins, del uint64
			for i := 0; i < pairs; i++ {
				before := th.Stats().DeRefs
				if err := pq.Insert(th, uint64(rng.Intn(tc.keys)), 0); err != nil {
					t.Fatal(err)
				}
				mid := th.Stats().DeRefs
				if _, _, ok := pq.DeleteMin(th); !ok {
					t.Fatal("DeleteMin on a full queue failed")
				}
				ins += mid - before
				del += th.Stats().DeRefs - mid
			}
			perIns, perDel := float64(ins)/pairs, float64(del)/pairs
			t.Logf("DeRefs per Insert %.1f, per DeleteMin %.1f", perIns, perDel)
			if perIns > tc.maxIns || perDel > tc.maxDel {
				t.Errorf("DeRefs per Insert %.1f (want ≤ %.0f), per DeleteMin %.1f (want ≤ %.0f)",
					perIns, tc.maxIns, perDel, tc.maxDel)
			}
			checkLevels(t, pq)
		})
	}
}
