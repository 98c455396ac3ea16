package mm

import (
	"sync"
	"testing"

	"wfrc/internal/arena"
)

func TestTaggedFreeListNoABA(t *testing.T) {
	// Hammer pop/push from many goroutines; without the version tag this
	// interleaving corrupts the list (lost nodes or cycles).
	const threads = 8
	iters := 30000
	if testing.Short() {
		iters = 3000
	}
	ar := arena.MustNew(arena.Config{Nodes: 16})
	var f FreeStack
	f.Init(ar)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				if h := f.Pop(); h != arena.Nil {
					f.Push(h)
				}
			}
		}()
	}
	wg.Wait()
	free := f.Walk()
	if len(free) != 16 {
		t.Fatalf("free-list holds %d nodes after churn, want 16", len(free))
	}
	for h, c := range free {
		if c != 1 {
			t.Errorf("node %d on the free-list %d times", h, c)
		}
	}
}

// TestPopRetryBudget pins the footnote-4 contract of the shared retry
// loop: a reclaim step that frees memory is found within the budget, and
// true exhaustion reports Nil after exactly lim tries.
func TestPopRetryBudget(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 1})
	var f FreeStack
	f.Init(ar)
	h, steps := f.PopRetry(8, func() { t.Error("reclaim ran with a node on the stack") })
	if h == arena.Nil || steps != 1 {
		t.Fatalf("PopRetry = (%d, %d), want the node on the first try", h, steps)
	}
	calls := 0
	got, steps := f.PopRetry(40, func() {
		if calls++; calls == 20 {
			f.Push(h)
		}
	})
	if got != h || steps != 21 {
		t.Fatalf("PopRetry = (%d, %d), want node %d on try 21", got, steps, h)
	}
	calls = 0
	if got, steps := f.PopRetry(40, func() { calls++ }); got != arena.Nil || steps != 41 || calls != 40 {
		t.Fatalf("exhausted PopRetry = (%d, %d) after %d reclaims, want (0, 41) after 40", got, steps, calls)
	}
}

func TestLimboParkAdopt(t *testing.T) {
	var l Limbo
	if got := l.AdoptInto([]Handle{7}); len(got) != 1 || l.Len() != 0 {
		t.Fatalf("empty limbo: adopted %v, Len %d", got, l.Len())
	}
	l.Park(nil)
	l.Park([]Handle{1, 2})
	l.Park([]Handle{3})
	if l.Len() != 3 {
		t.Fatalf("Len = %d after parking 3, want 3", l.Len())
	}
	got := l.AdoptInto([]Handle{7})
	if len(got) != 4 || got[0] != 7 || got[1] != 1 || got[3] != 3 {
		t.Fatalf("AdoptInto = %v, want [7 1 2 3]", got)
	}
	if l.Len() != 0 || len(l.AdoptInto(nil)) != 0 {
		t.Fatal("limbo not empty after adoption")
	}
}
