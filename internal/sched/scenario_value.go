package sched

import (
	"fmt"

	"wfrc/internal/alloc"
	"wfrc/internal/arena"
	"wfrc/internal/core"
	"wfrc/internal/ds/list"
	"wfrc/internal/value"
)

// --- value-free-vs-help -----------------------------------------------------

// buildValueFreeVsHelp races the variable-size value layer's free path
// against a reader decoding under its node guard.  A replacer churns one
// list key through block-backed payloads: every successful Replace
// retires the displaced node, and whichever thread wins the reclamation
// election (R4/F1 — possibly the reader, via helping) runs the node-free
// hook and releases the payload's alloc slot on ITS thread handle.
// Meanwhile the reader decodes the payload inside GetWith's guard; the
// guard must hold the blocks alive, so a torn or recycled payload
// (non-uniform bytes, wrong length) is a use-after-free in the hook
// ordering.  The end audit checks slot conservation against the final
// live words AND the scheme's own refcount/announcement hygiene.
func buildValueFreeVsHelp(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 12, LinksPerNode: 1, ValsPerNode: 2, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2})
	vs := value.MustNew(value.Config{
		Threads: 2,
		Classes: []value.Class{{MaxPayload: 16, InitialSlots: 8, MaxSlots: 64}},
	})
	// Same hook shape as the server store: free the ref word's blocks on
	// the winner's thread and clear the slot so a recycled node can never
	// carry a stale ref into a second free.
	s.SetNodeFreeHook(func(threadID int, h arena.Handle) {
		if vw := ar.Val(h, 1); value.IsRef(vw) {
			vs.Free(threadID, vw)
			ar.SetVal(h, 1, 0)
			w.Note("hook-frees", 1)
		}
	})
	tW, tR := mustRegister(s), mustRegister(s)
	l := list.MustNew(s)

	const key = 7
	// 12-byte payloads are over InlineMax, so every round is block-backed;
	// uniform bytes make a recycled slot show up as a torn read.
	fill := func(b byte) []byte {
		p := make([]byte, 12)
		for i := range p {
			p[i] = b
		}
		return p
	}
	w0, err := vs.Alloc(0, fill(0xA0))
	if err != nil {
		panic(err)
	}
	if _, err := l.Replace(tW, key, w0); err != nil {
		panic(err)
	}

	w.Spawn("replacer", func(t *T) {
		t.Instrument(tW)
		vs.SetHook(0, func(alloc.Point) { t.Yield() })
		for r := 1; r <= 3; r++ {
			vw, err := vs.Alloc(0, fill(0xA0+byte(r)))
			if err != nil {
				panic(fmt.Sprintf("value-free-vs-help: alloc round %d: %v", r, err))
			}
			existed, err := l.Replace(tW, key, vw)
			if err != nil {
				panic(fmt.Sprintf("value-free-vs-help: replace round %d: %v", r, err))
			}
			if !existed {
				panic("value-free-vs-help: key vanished (no deleter exists)")
			}
			w.Note("replaces", 1)
		}
	})
	w.Spawn("reader", func(t *T) {
		t.Instrument(tR)
		vs.SetHook(1, func(alloc.Point) { t.Yield() })
		for i := 0; i < 3; i++ {
			ok := l.GetWith(tR, key, func(vw uint64) {
				if !value.IsRef(vw) {
					panic(fmt.Sprintf("value-free-vs-help: read non-ref word %#x", vw))
				}
				buf := vs.AppendPayload(nil, vw)
				if len(buf) != 12 {
					panic(fmt.Sprintf("value-free-vs-help: payload length %d, want 12 (header clobbered under guard)", len(buf)))
				}
				for _, b := range buf {
					if b != buf[0] {
						panic(fmt.Sprintf("value-free-vs-help: torn payload % x (blocks recycled under guard)", buf))
					}
				}
				if buf[0] < 0xA0 || buf[0] > 0xA3 {
					panic(fmt.Sprintf("value-free-vs-help: payload byte %#x is no round's fill", buf[0]))
				}
			})
			if !ok {
				// Legal: Replace marks the old node and then swings prev to
				// the new one, so a reader landing between the two CASes
				// sees the key absent (and, by unlinking the marked node
				// itself, keeps it absent until Replace re-inserts).
				w.Note("read-misses", 1)
			}
			w.Note("reads", 1)
		}
	})

	w.AtEnd(func() error {
		for _, ct := range []*core.Thread{tW, tR} {
			ct.SetHook(nil)
		}
		vs.SetHook(0, nil)
		vs.SetHook(1, nil)
		// Unregister drains announcement state, so the last retired nodes
		// reach the hook before the conservation audits below.
		for _, ct := range []*core.Thread{tW, tR} {
			ct.Unregister()
		}
		noteCoreStats(w, tW, tR)
		if w.notes["replaces"] != 3 || w.notes["reads"] != 3 {
			return fmt.Errorf("incomplete run: %d replaces, %d reads (want 3 each)",
				w.notes["replaces"], w.notes["reads"])
		}
		// Exactly one node is displaced per Replace and each carried a
		// block ref; the final node's word stays live.
		if w.notes["hook-frees"] != 3 {
			return fmt.Errorf("node-free hook released %d value words, want 3 (one per displaced node)",
				w.notes["hook-frees"])
		}
		live := map[uint64]bool{}
		l.Range(func(_, vw uint64) {
			if value.IsRef(vw) {
				live[vw] = true
			}
		})
		errs := append(vs.Audit(live), s.Audit(nil)...)
		return SortedErrors(errs)
	})
}

func init() {
	Register(Scenario{
		Name:  "value-free-vs-help",
		About: "block-backed values: Replace retires nodes whose free hook releases alloc slots while a reader decodes under guard",
		Build: buildValueFreeVsHelp,
	})
}
