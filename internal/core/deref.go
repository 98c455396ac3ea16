package core

import (
	"runtime"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// AnnScanBound is the wait-freedom bound on D1 announcement-slot probes
// for n registered threads (the Lemma 2 analogue): a row has n slots and
// at most n-1 helpers can hold busy pins on it at any instant; a pin can
// only be created while the row's owner has a matching announcement
// posted, which it does not while scanning, so at most n-1 pre-existing
// pins can move under the scan and 2n probes always cover a free slot.
func AnnScanBound(n int) int { return 2 * n }

// DeRefLink dereferences link l and returns its value with a guarded
// reference on the target node (paper Figure 4, lines D1–D10).  The
// returned Ptr may carry a data-structure deletion mark; the reference
// applies to its Handle.  A nil-handle result carries no reference.
//
// The operation is wait-free: the slot scan in D1 is capped at
// AnnScanBound probes (at most NR_THREADS-1 helpers can hold busy claims
// on this thread's row at any instant), and the remainder is
// straight-line code.  On the deferred variant the guard is taken
// through the thread's pin table instead (see deferred.go); the
// wait-freedom bound is unchanged.
func (t *Thread) DeRefLink(l mm.LinkID) mm.Ptr {
	s := t.s
	if s.deferred {
		if s.forceAnnounce {
			return t.deRefAnnounced(l)
		}
		// Open-coded pin-cache hit (see deferred.go): the slot has
		// published the handle since before the link read, so the loaded
		// value is already guarded — no store, no revalidation, and no
		// second call frame on the variant's hottest path.
		node := s.ar.LoadLink(l)
		h := node.Handle()
		if h == arena.Nil {
			t.fastNilDeRefs++
			return node
		}
		b := (int(h) & pinSetMask) * pinWays
		if t.pinCache[b].h == h {
			t.pinCache[b].refs++
			t.fastDeRefs++
			return node
		}
		if t.pinCache[b+1].h == h {
			t.pinCache[b+1].refs++
			t.fastDeRefs++
			return node
		}
		return t.deRefDeferredSlow(l, node, h, b)
	}
	return t.deRefCounted(l)
}

// noteDeRefFast is NoteDeRef(0) with the bucket math constant-folded
// (bits.Len64(0) == 0): zero probes never move DeRefSteps or the max.
func (t *Thread) noteDeRefFast() {
	t.stats.DeRefs++
	t.stats.DeRefHist.Buckets[0]++
}

// announce is lines D1–D2 of both announced dereferences (deRefCounted
// and the deferred variant's deRefAnnounced): choose a slot of row with
// no pending helper CAS and advertise it in the row's index.
//
// D1: at most NR_THREADS-1 helpers can hold busy pins on this row at any
// instant, so a free slot is found within AnnScanBound probes; more
// probes than that means the wait-freedom bound is broken (a wedged
// helper, or a scheme bug).  The violation is surfaced through the
// scheme's audit counter and per-thread stats rather than silently
// spinning, and the over-bound scan yields the processor so a wedged run
// degrades instead of burning a core.
//
// D2 stores only when the index moves.  The owner is the index's only
// writer outside Register/Unregister, so a store of the value already
// there changes nothing an H2 read can see, and D3 is still a
// sequentially consistent store ahead of D4.  The scan starts at slot 0,
// which is busy only while a helper holds a pin, so the skipped store is
// the common case: it saves a fenced write per dereference and leaves
// the line shared with every helper's H2 read.
func (t *Thread) announce(row *annRow) (*annSlot, uint64) {
	s := t.s
	bound := uint64(AnnScanBound(s.n))
	var probes uint64
	i := 0
	for {
		t.at(PD1)
		probes++
		if row.slots[i].busy.Load() == 0 {
			break
		}
		if probes == bound {
			t.stats.AnnScanViolations++
			s.annScanViolations.Add(1)
		}
		if probes >= bound {
			runtime.Gosched()
		}
		if i++; i == s.n {
			i = 0
		}
	}
	if row.index.Load() != int64(i) {
		row.index.Store(int64(i)) // D2
	}
	return &row.slots[i], probes
}

// deRefCounted is the paper's D1–D10 with the optimistic FAA guard —
// the immediate scheme's dereference, and the deferred variant's helper
// dereference (H5 must hand over a counted reference, because pins are
// thread-local and cannot be transferred through an announcement cell).
func (t *Thread) deRefCounted(l mm.LinkID) mm.Ptr {
	s := t.s
	slot, probes := t.announce(&s.ann[t.id]) // D1–D2
	slot.readAddr.Store(encodeLink(l))       // D3
	t.at(PD3)
	node := s.ar.LoadLink(l) // D4
	t.at(PD4)
	if node.Handle() != arena.Nil { // D5
		s.ar.Ref(node.Handle()).Add(2)
	}
	t.at(PD6)
	n1 := slot.readAddr.Swap(0) // D6
	if n1 != encodeLink(l) {    // D7: a helper answered
		if node.Handle() != arena.Nil {
			t.ReleaseRef(node.Handle()) // D8
		}
		node = mm.Ptr(n1) // D9
		t.stats.HelpsReceived++
	}
	t.stats.NoteDeRef(probes)
	return node // D10
}

// ReleaseRef drops one guarded reference to node h (paper Figure 4,
// lines R1–R4).  When the last reference disappears, the winner of the
// CAS(mm_ref,0,1) election releases the references held by the node's own
// link cells and returns the node to the free-list.  The paper's
// recursive call in line R3 is implemented with an explicit worklist so
// long release cascades cannot overflow the stack.
func (t *Thread) ReleaseRef(h arena.Handle) {
	if h == arena.Nil {
		return
	}
	if t.s.deferred {
		// Open-coded unpin hit — dropping a pin guard is the deferred
		// variant's common release and must stay call-free: a local
		// counter decrement, no shared access (see deferred.go).
		b := (int(h) & pinSetMask) * pinWays
		if t.pinCache[b].h == h && t.pinCache[b].refs > 0 {
			t.pinCache[b].refs--
			return
		}
		if t.pinCache[b+1].h == h && t.pinCache[b+1].refs > 0 {
			t.pinCache[b+1].refs--
			return
		}
		t.deferCountedDec(h)
		return
	}
	s := t.s
	stack := t.relStack[:0]
	stack = append(stack, h)
	for len(stack) > 0 {
		t.at(PR1)
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ref := s.ar.Ref(n)
		ref.Add(-2) // R1
		t.at(PR2)
		if ref.Load() == 0 && ref.CompareAndSwap(0, 1) { // R2
			// Telemetry: the election win is the immediate variant's
			// retire instant — from here n is garbage until freeNode
			// returns it to the free structures moments later.
			s.NoteRetired(n)
			// R3: this thread now exclusively owns n.  Clear its link
			// cells with plain stores (including poison markers — see
			// the data structures' chain-breaking rule) and queue the
			// targets for release.
			s.ar.LinkRange(n, func(id mm.LinkID) {
				p := s.ar.LoadLink(id)
				if p != arena.NilPtr {
					s.ar.StoreLink(id, arena.NilPtr)
					if p.Handle() != arena.Nil {
						stack = append(stack, p.Handle())
					}
				}
			})
			t.freeNode(n) // R4
		}
	}
	t.relStack = stack[:0]
}

// HelpDeRef fulfils the link updater's obligation (paper Figure 4, lines
// H1–H8): after changing link l, scan every thread's announcement and
// answer any pending dereference of l with a fresh guarded value.
func (t *Thread) HelpDeRef(l mm.LinkID) {
	s := t.s
	t.stats.HelpScans++
	for id := 0; id < s.n; id++ { // H1
		row := &s.ann[id]
		index := row.index.Load() // H2
		if index < 0 || index >= int64(s.n) {
			continue
		}
		t.at(PH2)
		slot := &row.slots[index]
		if slot.readAddr.Load() != encodeLink(l) { // H3
			continue
		}
		slot.busy.Add(1) // H4
		func() {
			// H8 runs via defer: if the hook or the helper dereference
			// panics, the pin must still be released — a slot pinned
			// forever would wedge the announcer's row (and, before the
			// D1 scan was bounded, the announcer itself).
			defer slot.busy.Add(-1) // H8
			t.at(PH4)
			// H5: always the counted dereference — the answer hands a
			// reference across threads, which a pin cannot do.
			node := t.deRefCounted(l)
			t.at(PH6)
			if !slot.readAddr.CompareAndSwap(encodeLink(l), uint64(node)) { // H6
				if node.Handle() != arena.Nil {
					t.ReleaseRef(node.Handle()) // H7
				}
			} else {
				t.stats.HelpsGiven++
				if fn := s.helpTracer.Load(); fn != nil {
					(*fn)(HelpEvent{
						Helper: t.id, Helpee: id, Slot: int(index), Link: l,
						HelperTag: s.tags[t.id].Load(), HelpeeTag: s.tags[id].Load(),
					})
				}
			}
		}()
	}
}

// FixRef adjusts the reference count of h by fix half-references
// (mm_ref units) and returns h, mirroring the paper's FixRef helper.
// User code duplicating a guarded reference calls FixRef(h, 2), i.e.
// Copy.
func (t *Thread) FixRef(h arena.Handle, fix int64) arena.Handle {
	t.s.ar.Ref(h).Add(fix)
	return h
}
