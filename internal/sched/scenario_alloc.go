package sched

import (
	"fmt"

	"wfrc/internal/alloc"
)

// --- free-into-detached-class -----------------------------------------------

// buildFreeIntoDetachedClass drives the standalone block-pool allocator
// (internal/alloc) through its sealed-block handoff race: the freer
// drains slots it obtained from the class's only initial blocks, sealing
// and pushing full blocks back to the shared pool, while the allocator
// thread — finding its cache and the pool empty — races those pushes
// against the class's segment-attach path.  Blocks are bags of slots
// (Blelloch–Wei): the slots the freer seals were carved from blocks it
// no longer owns ("detached" from their origin), and an interleaving
// where the allocator pops a half-published block, or grow's registry
// CAS overlaps a push, must never double-issue or strand a slot — the
// conservation audit at the end checks exactly that.
func buildFreeIntoDetachedClass(w *World) {
	a := alloc.MustNew(alloc.Config{
		Threads: 2,
		Classes: []alloc.ClassConfig{{SlotWords: 2, BlockSlots: 4, InitialSlots: 8, MaxSlots: 64}},
	})
	atA, atB := a.Thread(0), a.Thread(1)
	// Setup: the freer drains the whole initial segment (both blocks) so
	// the shared pool starts the race empty.
	preheld := make([]alloc.Ref, 0, 8)
	for i := 0; i < 8; i++ {
		r, err := atB.Alloc(0)
		if err != nil {
			panic(err)
		}
		preheld = append(preheld, r)
	}

	held := make([]alloc.Ref, 0, 6)
	w.Spawn("allocator", func(t *T) {
		atA.SetHook(func(alloc.Point) { t.Yield() })
		for k := 0; k < 6; k++ {
			r, err := atA.Alloc(0)
			if err != nil {
				// Legal when the freer has not sealed yet and the class is
				// at MaxSlots — but MaxSlots 64 leaves 50 slots of
				// headroom, so any error is a real bug.
				panic(fmt.Sprintf("free-into-detached-class: alloc %d: %v", k, err))
			}
			held = append(held, r)
			w.Note("allocs", 1)
		}
	})
	w.Spawn("freer", func(t *T) {
		atB.SetHook(func(alloc.Point) { t.Yield() })
		for _, r := range preheld {
			atB.Free(r)
			w.Note("frees", 1)
		}
	})

	w.AtEnd(func() error {
		atA.SetHook(nil)
		atB.SetHook(nil)
		if w.notes["allocs"] != 6 || w.notes["frees"] != 8 {
			return fmt.Errorf("scenario incomplete: notes %v", w.notes)
		}
		st := a.Stats()
		w.Note("seals", int64(st.BlocksSealed))
		if st.BlocksSealed < 2 {
			return fmt.Errorf("freeing 8 slots with BlockSlots=4 sealed %d blocks, want >= 2", st.BlocksSealed)
		}
		live := make(map[alloc.Ref]bool, len(held))
		for _, r := range held {
			live[r] = true
		}
		if errs := a.Audit(live); len(errs) != 0 {
			return SortedErrors(errs)
		}
		// Drain and re-audit with nothing live: every slot must be free
		// exactly once.
		for _, r := range held {
			atA.Free(r)
		}
		return SortedErrors(a.Audit(nil))
	})
}

func init() {
	Register(Scenario{
		Name:  "free-into-detached-class",
		About: "block-pool allocator: sealed-block pushes race an allocator's pops and the class grow",
		Build: buildFreeIntoDetachedClass,
	})
}
