package alloc

import (
	"sync"
	"testing"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	a := MustNew(Config{Threads: 1, Classes: []ClassConfig{
		{SlotWords: 2, BlockSlots: 4, InitialSlots: 16},
	}})
	th := a.Thread(0)
	r, err := th.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if r.IsNil() || r.Class() != 0 {
		t.Fatalf("bad ref %v", r)
	}
	w := a.Words(r)
	if len(w) != 2 {
		t.Fatalf("Words len = %d, want 2", len(w))
	}
	w[0], w[1] = 7, 9
	if errs := a.Audit(map[Ref]bool{r: true}); len(errs) != 0 {
		t.Fatalf("audit with one live ref: %v", errs)
	}
	th.Free(r)
	if errs := a.Audit(nil); len(errs) != 0 {
		t.Fatalf("audit after free: %v", errs)
	}
}

func TestFixedClassExhausts(t *testing.T) {
	a := MustNew(Config{Threads: 1, Classes: []ClassConfig{
		{SlotWords: 1, BlockSlots: 4, InitialSlots: 8}, // fixed: MaxSlots 0
	}})
	th := a.Thread(0)
	var got []Ref
	for {
		r, err := th.Alloc(0)
		if err != nil {
			break
		}
		got = append(got, r)
	}
	if len(got) != 8 {
		t.Fatalf("fixed class yielded %d slots, want 8", len(got))
	}
	// Distinctness.
	seen := map[Ref]bool{}
	live := map[Ref]bool{}
	for _, r := range got {
		if seen[r] {
			t.Fatalf("ref %v allocated twice", r)
		}
		seen[r] = true
		live[r] = true
	}
	if errs := a.Audit(live); len(errs) != 0 {
		t.Fatalf("fully-allocated audit: %v", errs)
	}
	for _, r := range got {
		th.Free(r)
	}
	if errs := a.Audit(nil); len(errs) != 0 {
		t.Fatalf("fully-freed audit: %v", errs)
	}
}

func TestGrowableClassAttaches(t *testing.T) {
	a := MustNew(Config{Threads: 1, Classes: []ClassConfig{
		{SlotWords: 1, BlockSlots: 4, InitialSlots: 8, MaxSlots: 32},
	}})
	th := a.Thread(0)
	if a.SegmentsAttached(0) != 1 || a.Slots(0) != 8 || a.MaxSlots(0) != 32 {
		t.Fatalf("initial geometry: segs=%d slots=%d max=%d", a.SegmentsAttached(0), a.Slots(0), a.MaxSlots(0))
	}
	live := map[Ref]bool{}
	for i := 0; i < 32; i++ {
		r, err := th.Alloc(0)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if live[r] {
			t.Fatalf("ref %v allocated twice", r)
		}
		live[r] = true
	}
	if _, err := th.Alloc(0); err != ErrOutOfMemory {
		t.Fatalf("alloc past ceiling: err = %v, want ErrOutOfMemory", err)
	}
	if a.SegmentsAttached(0) != 4 || a.Slots(0) != 32 {
		t.Fatalf("grown geometry: segs=%d slots=%d", a.SegmentsAttached(0), a.Slots(0))
	}
	if errs := a.Audit(live); len(errs) != 0 {
		t.Fatalf("grown audit: %v", errs)
	}
}

// TestConservationConcurrent hammers a growable class from several
// threads and then audits conservation: no slot lost, duplicated or
// both live and free — including slots that migrated between blocks
// (frees join the freeing thread's block, not their origin block).
func TestConservationConcurrent(t *testing.T) {
	const threads = 4
	a := MustNew(Config{Threads: threads, Classes: []ClassConfig{
		{SlotWords: 2, BlockSlots: 8, InitialSlots: 64, MaxSlots: 4096},
	}})
	var mu sync.Mutex
	live := map[Ref]bool{}
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := a.Thread(id)
			var held []Ref
			for i := 0; i < 20000; i++ {
				if len(held) > 0 && i%3 == 0 {
					th.Free(held[len(held)-1])
					held = held[:len(held)-1]
					continue
				}
				r, err := th.Alloc(0)
				if err != nil {
					// Ceiling reached under imbalance; drain and go on.
					for _, h := range held {
						th.Free(h)
					}
					held = held[:0]
					continue
				}
				a.Words(r)[1] = uint64(id)
				held = append(held, r)
			}
			mu.Lock()
			for _, r := range held {
				live[r] = true
			}
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if errs := a.Audit(live); len(errs) != 0 {
		t.Fatalf("post-hammer audit (%d errors), first: %v", len(errs), errs[0])
	}
	st := a.Stats()
	if st.AllocOps == 0 || st.FreeOps == 0 {
		t.Fatal("hammer did no work")
	}
	t.Logf("stats: %+v, segments=%d", st, a.SegmentsAttached(0))
}

// TestStepBudget is the chaos-style wait-freedom check: across a
// contended run, no Alloc or Free exceeds the package's published step
// bounds (with the budget re-armed across segment attaches).
func TestStepBudget(t *testing.T) {
	const threads = 4
	a := MustNew(Config{Threads: threads, Classes: []ClassConfig{
		{SlotWords: 1, BlockSlots: 4, InitialSlots: 16, MaxSlots: 1 << 14},
	}})
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := a.Thread(id)
			var held []Ref
			for i := 0; i < 30000; i++ {
				r, err := th.Alloc(0)
				if err == nil {
					held = append(held, r)
				}
				if len(held) > 64 || err != nil {
					for _, h := range held {
						th.Free(h)
					}
					held = held[:0]
				}
			}
		}(id)
	}
	wg.Wait()
	st := a.Stats()
	if st.AllocStepsMax > AllocStepBound(threads) {
		t.Errorf("AllocStepsMax = %d exceeds AllocStepBound(%d) = %d",
			st.AllocStepsMax, threads, AllocStepBound(threads))
	}
	if st.FreeStepsMax > FreeStepBound(threads) {
		t.Errorf("FreeStepsMax = %d exceeds FreeStepBound(%d) = %d",
			st.FreeStepsMax, threads, FreeStepBound(threads))
	}
	if st.AllocOps == 0 {
		t.Fatal("no ops recorded")
	}
}

func TestAuditDetectsViolations(t *testing.T) {
	a := MustNew(Config{Threads: 1, Classes: []ClassConfig{
		{SlotWords: 1, BlockSlots: 4, InitialSlots: 8},
	}})
	th := a.Thread(0)
	r, err := th.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	// Leak: allocated but not declared live.
	if errs := a.Audit(nil); len(errs) == 0 {
		t.Error("audit missed leaked slot")
	}
	// Live and free at once: declare it live AND free it.
	th.Free(r)
	if errs := a.Audit(map[Ref]bool{r: true}); len(errs) == 0 {
		t.Error("audit missed live+free slot")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Threads: 0, Classes: []ClassConfig{{SlotWords: 1, BlockSlots: 1, InitialSlots: 1}}},
		{Threads: 1},
		{Threads: 1, Classes: []ClassConfig{{SlotWords: 0, BlockSlots: 1, InitialSlots: 1}}},
		{Threads: 1, Classes: []ClassConfig{{SlotWords: 1, BlockSlots: 0, InitialSlots: 1}}},
		{Threads: 1, Classes: []ClassConfig{{SlotWords: 1, BlockSlots: 8, InitialSlots: 4}}},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}
