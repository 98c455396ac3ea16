package core

import (
	"runtime"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// This file implements the deferred variant of the scheme
// (Config.Deferred, registered as "waitfree-deferred").  The paper's
// algorithms charge two shared fetch-and-adds on every DeRefLink/
// ReleaseRef pair; following the deferred-reference-counting idea of
// Anderson/Blelloch/Wei (protect, then deferred eject) and the classic
// zero-count-table idiom, this variant takes the dereference guard
// through a thread-local *pin table* instead of the shared count, and
// defers only the reclamation of a node whose count reaches zero, which
// waits in a thread-local *zero-count table* (ZCT):
//
//   - DeRefLink (fast path): read the link, publish the target handle in
//     one of the thread's PinSlots pin slots, re-read the link.  If the
//     value is unchanged the pin is a valid guard (see the safety
//     argument below); otherwise the pin is cleared and the operation
//     falls back to the announced path.  One bounded attempt keeps the
//     operation wait-free.
//   - DeRefLink (announced path): identical to the paper's D1–D10 except
//     that line D5 publishes a pin instead of FAA(mm_ref,+2); when the
//     pin table is full it falls back to the counted FAA.  The helping
//     protocol is untouched: helpers always hand over *counted*
//     references (H5 runs the counted dereference), because pins are
//     thread-local and cannot be transferred through an announcement
//     cell.
//   - ReleaseRef: if the thread holds a live pin guard on the handle,
//     drop it — a thread-local counter decrement, no shared access at
//     all (the publication itself is sticky; see the pin-table comment
//     below).  Otherwise the reference is counted and its FAA(mm_ref,−2)
//     is applied at once; a node whose count reaches zero is pushed on
//     the thread's ZCT instead of being reclaimed on the spot.
//   - Drain (ZCT overflow, explicit Flush, AllocNode's out-of-memory
//     rule, the memory-pressure answer, Unregister): re-check count==0
//     for each candidate, scan every thread's pin row, and only then run
//     the paper's CAS(mm_ref,0,1) reclamation election, routing winners
//     through the usual CleanUpNode/FreeNode path (the dead node's own
//     link references are released the same way, so the cascade
//     re-enters the ZCT).
//
// # Safety
//
// Counted references — links, FixRef copies, helper answers and the
// full-pin-table fallback — reach mm_ref at once, exactly as on the
// immediate scheme; pin guards never touch it.  A node observed at 0
// therefore has no incoming link and no counted guard, and a pin is the
// only thing that can still protect it.
//
// The pin guard is the hazard-pointer handshake under Go's sequentially
// consistent atomics.  Fast path: the pin is published before the
// revalidation read; a successful revalidation means the link still held
// the node (count ≥ 2 from the link itself) *after* the pin was visible,
// so any decrement sequence that later zeroes the count happens after
// the publish, and the ZCT drain — which scans the pin tables only after
// reading count==0 — must observe the pin and keep the node.  Announced
// path: if no helper answered by D6, the pin (published before the D6
// swap) precedes any link updater's ReleaseRef of the old target — the
// same ordering the paper's Lemma 3 gives the optimistic FAA — so again
// the pin is visible before the count can reach zero.  Re-linking a
// ZCT-resident node requires an existing guard on it (counted, making
// the claim CAS fail, or pinned, making the scan keep it), which closes
// the ABA window between the pin scan and the election CAS.

// The pin table is a *sticky* 2-way set-associative cache keyed by
// handle.  The shared row is written only by its owner, so the thread
// keeps a plain-memory mirror (t.pinCache: handle + local guard count
// per slot); the handle picks its set, making every lookup O(1).
// Releasing a guard only decrements the local count — the publication
// stays in place — so a re-dereference of a cached handle needs no
// store at all: the slot has advertised the handle continuously since
// its original publish, the node cannot have been reclaimed in between
// (the ZCT drain keeps any published handle), and therefore no
// revalidation read is needed either.  Only a *fresh* publish pays the
// sequentially-consistent store and the revalidate.  Stale publications
// are evicted on set conflict, dropped one at a time when they block the
// owner's own ZCT drain (pinnedBySelf), and purged wholesale by every
// flush (see flushDeferred), so quiescence audits still see an empty
// table.  The overflow drain purges nothing, which keeps the cache warm.
//
// The local guard count makes releases fungible: a thread holding both
// a pin guard and a counted reference on the same node may release them
// in either order — whichever Release runs first consumes the pin
// (local decrement), the other applies the counted decrement.  The
// count ends the same either way.
const (
	pinWays    = 2
	pinSetMask = PinSlots/pinWays - 1
)

// pinAcquire takes one pin guard on h: a cache hit bumps the slot's
// local count (fresh=false, no shared access); otherwise h is published
// over a free or released slot of its set (fresh=true, caller must
// revalidate).  Returns j=-1 when both ways hold live guards for other
// handles — the caller falls back to a counted guard.
func (t *Thread) pinAcquire(h arena.Handle) (j int, fresh bool) {
	b := (int(h) & pinSetMask) * pinWays
	for k := b; k < b+pinWays; k++ {
		if t.pinCache[k].h == h {
			t.pinCache[k].refs++
			return k, false
		}
	}
	return t.pinPublish(h, b), true
}

// pinPublish installs a fresh publication of h in set base b (evicting a
// released entry if needed), or returns -1 when both ways hold live
// guards.  The caller owns the revalidation that makes a fresh pin safe.
func (t *Thread) pinPublish(h arena.Handle, b int) int {
	for k := b; k < b+pinWays; k++ {
		if t.pinCache[k].refs == 0 {
			row := &t.s.pins[t.id]
			if t.pinCache[k].h == arena.Nil {
				// live rises before the slot becomes non-zero, so a
				// scanner reading live==0 never misses a publication.
				row.live.Add(1)
			}
			t.pinCache[k].h = h
			t.pinCache[k].refs = 1
			row.slot[k].Store(uint64(h))
			return k
		}
	}
	return -1
}

// pinRelease drops one guard from slot j, leaving the publication in
// place (sticky).
func (t *Thread) pinRelease(j int) { t.pinCache[j].refs-- }

// unpin drops one guard on h if the thread holds a live one, reporting
// whether it did.
func (t *Thread) unpin(h arena.Handle) bool {
	b := (int(h) & pinSetMask) * pinWays
	for k := b; k < b+pinWays; k++ {
		if t.pinCache[k].h == h && t.pinCache[k].refs > 0 {
			t.pinCache[k].refs--
			return true
		}
	}
	return false
}

// purgePins clears every released (refs==0) publication from the
// thread's row so the nodes become reclaimable; live guards stay.
func (t *Thread) purgePins() {
	row := &t.s.pins[t.id]
	cleared := int64(0)
	for j := range t.pinCache {
		if t.pinCache[j].h != arena.Nil && t.pinCache[j].refs == 0 {
			t.pinCache[j].h = arena.Nil
			row.slot[j].Store(0)
			cleared++
		}
	}
	if cleared > 0 {
		row.live.Add(-cleared) // after the clears: live over-states, never under
	}
}

// pinnedBySelf resolves the drain's own-row check locally: if this
// thread holds a live guard on h it reports true (keep the candidate);
// a released sticky publication of h is evicted on the way (clearing it
// makes the candidate reclaimable — the overflow drain purges nothing
// else and would keep it until the next flush), and the mirror makes the shared-row scan
// unnecessary for the own row entirely.
func (t *Thread) pinnedBySelf(h arena.Handle) bool {
	b := (int(h) & pinSetMask) * pinWays
	for k := b; k < b+pinWays; k++ {
		if t.pinCache[k].h == h {
			if t.pinCache[k].refs > 0 {
				return true
			}
			t.pinCache[k].h = arena.Nil
			row := &t.s.pins[t.id]
			row.slot[k].Store(0)
			row.live.Add(-1)
			return false
		}
	}
	return false
}

// pinnedByOther reports whether any thread's pin row other than self's
// publishes h.  Called by the ZCT drain after observing mm_ref==0; the
// count-zero/pin-publish ordering argument above makes a clean scan
// sufficient to reclaim.  The drain covers its own row with
// pinnedBySelf, which reads the plain-memory mirror instead.
func (s *Scheme) pinnedByOther(self int, h arena.Handle) bool {
	w := uint64(h)
	for i := range s.pins {
		row := &s.pins[i]
		if i == self || row.live.Load() == 0 { // empty rows are safe to skip (see pinRow)
			continue
		}
		for j := 0; j < PinSlots; j++ {
			if row.slot[j].Load() == w {
				return true
			}
		}
	}
	return false
}

// releaseDeferred is ReleaseRef on the deferred variant: drop a pin
// guard if the thread holds a live one on h, else apply a counted
// decrement.  ReleaseRef open-codes the pin hit; internal callers use
// this full form.
func (t *Thread) releaseDeferred(h arena.Handle) {
	if t.unpin(h) {
		return
	}
	t.deferCountedDec(h)
}

// deferCountedDec applies one counted 2-unit decrement to h and, if an
// allocator has raised the out-of-memory broadcast, answers it.
func (t *Thread) deferCountedDec(h arena.Handle) {
	t.stats.DeferredDecs++
	t.applyDec(h)
	if t.s.memPressure.Load() != 0 && !t.inFlush {
		// An allocator ran the arena dry: answer the broadcast with a
		// flush so our ZCT candidates and released sticky pins become
		// free nodes (see Scheme.memPressure).  The magazine goes with
		// them: nodes parked there, including the ones this flush just
		// freed, are out of the starving thread's reach until they are
		// on a shared list.
		t.s.memPressure.Store(0)
		t.flushDeferred()
		t.spillMagazine()
	}
}

// applyDec applies one 2-unit decrement to h; a node that reaches zero
// becomes a ZCT reclaim candidate.
func (t *Thread) applyDec(h arena.Handle) {
	t.at(PFL1)
	if t.s.ar.Ref(h).Add(-2) == 0 {
		t.zctPush(h)
	}
}

// zctDrainThreshold bounds how many zero-count candidates a thread may
// park before draining them inline (the classic ZCT's scan on
// overflow).  With the pin table it bounds each thread's reclamation
// slack at zctDrainThreshold + PinSlots nodes.
const zctDrainThreshold = 64

// zctPush records h as a reclaim candidate.  Duplicates are tolerated
// rather than scanned for (the drain's Load()!=0 check drops entries the
// CAS(0,1) election already claimed, and the election itself admits only
// one reclaimer), so a push is a plain append.  A table that grows past
// zctDrainThreshold outside a flush is drained on the spot.
func (t *Thread) zctPush(h arena.Handle) {
	// Telemetry: entering the ZCT is the deferred variant's retire
	// instant (idempotent for duplicate pushes).
	t.s.NoteRetired(h)
	t.zct = append(t.zct, h)
	if len(t.zct) >= zctDrainThreshold && !t.inFlush {
		t.inFlush = true
		t.drainZCT()
		t.inFlush = false
	}
}

// Flush clears this thread's released pins and reclaims its zero-count
// nodes that no pin protects.  It is a no-op on the immediate scheme.
// Callers that need a quiescent count picture (tests, audits) flush
// every thread; Unregister does it automatically.
func (t *Thread) Flush() {
	if t.s.deferred {
		t.flushDeferred()
	}
}

// flushDeferred clears the thread's released sticky publications, so
// every node it no longer guards is reclaimable, adopts orphaned
// candidates, then drains the ZCT until a pass frees nothing, returning
// how many nodes were reclaimed.  Reclaiming a node releases its
// outgoing link references, which can push fresh candidates, so the
// loop cascades exactly like the paper's recursive R3; it terminates
// because at most Nodes reclamations exist.
func (t *Thread) flushDeferred() (freed int) {
	if t.inFlush {
		return 0
	}
	t.inFlush = true
	defer func() { t.inFlush = false }()
	t.stats.DeferredFlushes++
	t.purgePins()
	t.adoptOrphans()
	for {
		n := t.drainZCT()
		freed += n
		if n == 0 {
			return freed
		}
	}
}

// drainZCT retires the thread's zero-count candidates: a node still at
// count zero and pinned by no thread wins the paper's CAS(mm_ref,0,1)
// reclamation election and goes through the CleanUpNode/FreeNode path.
// Candidates that were resurrected (count != 0: re-linked, copied, or
// claimed by another flusher) are dropped — whoever re-zeroes them
// re-enters a ZCT — and candidates a peer still pins are kept for the
// next drain.
func (t *Thread) drainZCT() (freed int) {
	if len(t.zct) == 0 {
		return 0
	}
	pending := t.zct
	t.zct = nil // reclamation below may push fresh candidates
	for _, h := range pending {
		ref := t.s.ar.Ref(h)
		if ref.Load() != 0 {
			// Resurrected (re-linked or copied back to life) or already
			// claimed by another flusher.  Either way the node left the
			// retired state as far as this table is concerned: cancel
			// the retire stamp (no-op if the claimer's freeNode got
			// there first), recording its ZCT residency as the lag.
			t.s.NoteReclaimed(h)
			continue
		}
		if t.pinnedBySelf(h) || t.s.pinnedByOther(t.id, h) {
			t.zct = append(t.zct, h)
			continue
		}
		t.at(PZ1)
		if ref.CompareAndSwap(0, 1) {
			t.reclaimDeferred(h)
			freed++
		}
	}
	return freed
}

// reclaimDeferred is the deferred variant's R3/R4: the election winner
// exclusively owns n, clears its link cells with plain stores, releases
// the link references they held (a target that reaches zero joins the
// ZCT), and returns the node to the free-list.
func (t *Thread) reclaimDeferred(n arena.Handle) {
	s := t.s
	s.ar.LinkRange(n, func(id mm.LinkID) {
		p := s.ar.LoadLink(id)
		if p != arena.NilPtr {
			s.ar.StoreLink(id, arena.NilPtr)
			if p.Handle() != arena.Nil {
				t.applyDec(p.Handle())
			}
		}
	})
	t.freeNode(n)
}

// adoptOrphans folds the scheme's orphaned ZCT entries (left by
// unregistered threads whose candidates were still pinned) into this
// thread's table.
func (t *Thread) adoptOrphans() {
	for _, h := range t.s.orphans.AdoptInto(nil) {
		t.zctPush(h)
	}
}

// retireDeferred drains the thread's deferred state ahead of
// unregistration: live pin guards are promoted to counted references
// (+2 per guard) so references the caller still holds remain visible to
// the count audit, sticky cache entries are cleared, then the ZCT is
// flushed.  Candidates a peer still pins are retried briefly and
// finally handed to the scheme's orphan list; pins are short-lived, so
// in practice the list stays empty.
func (t *Thread) retireDeferred() {
	row := &t.s.pins[t.id]
	cleared := int64(0)
	for j := range t.pinCache {
		if h := t.pinCache[j].h; h != arena.Nil {
			if n := t.pinCache[j].refs; n > 0 {
				t.s.ar.Ref(h).Add(2 * int64(n))
			}
			t.pinCache[j] = pinEntry{}
			row.slot[j].Store(0)
			cleared++
		}
	}
	if cleared > 0 {
		row.live.Add(-cleared)
	}
	t.flushDeferred()
	for i := 0; len(t.zct) > 0 && i < 128; i++ {
		runtime.Gosched()
		t.flushDeferred()
	}
	if len(t.zct) > 0 {
		t.s.orphans.Park(t.zct)
		t.zct = nil
	}
}

// deRefDeferredSlow continues DeRefLink's deferred fast path after a
// pin-cache miss: publish a fresh pin in set b and revalidate the link,
// falling back to the announced path (deRefAnnounced) when the link
// moved under the pin or both ways of the set hold live guards.  node is
// the link value DeRefLink loaded and h its (non-nil) handle.
func (t *Thread) deRefDeferredSlow(l mm.LinkID, node mm.Ptr, h arena.Handle, b int) mm.Ptr {
	if j := t.pinPublish(h, b); j >= 0 {
		t.at(PP2)
		if t.s.ar.LoadLink(l) == node {
			t.fastDeRefs++
			return node
		}
		t.pinRelease(j)
	}
	return t.deRefAnnounced(l)
}

// deRefAnnounced is the paper's D1–D10 with the D5 guard taken as a pin
// (counted FAA only when the pin table is full).  D1–D2 are the
// immediate scheme's own (announce), and the helper answer protocol is
// identical to deRefCounted's — the bench -validate Lemma-2 gate and the
// chaos step-budget checker therefore count violations in the same units
// on both variants.
func (t *Thread) deRefAnnounced(l mm.LinkID) mm.Ptr {
	s := t.s
	slot, probes := t.announce(&s.ann[t.id]) // D1–D2
	slot.readAddr.Store(encodeLink(l))       // D3
	t.at(PD3)
	node := s.ar.LoadLink(l) // D4
	t.at(PD4)
	pinIdx := -1
	if h := node.Handle(); h != arena.Nil { // D5: pin instead of FAA(+2)
		if pinIdx, _ = t.pinAcquire(h); pinIdx < 0 {
			s.ar.Ref(h).Add(2)
		}
	}
	t.at(PD6)
	n1 := slot.readAddr.Swap(0) // D6
	if n1 != encodeLink(l) {    // D7: a helper answered with a counted ref
		if node.Handle() != arena.Nil {
			if pinIdx >= 0 { // D8: drop our own guard on the stale read
				t.pinRelease(pinIdx)
			} else {
				t.releaseDeferred(node.Handle())
			}
		}
		node = mm.Ptr(n1) // D9
		t.stats.HelpsReceived++
	}
	t.stats.NoteDeRef(probes)
	return node // D10
}

// TestingSetDeferredForceAnnounce makes every DeRefLink of the deferred
// variant take the announced path, so schedule-exploration tests can
// drive the D3–D6 announcement window against flushes deterministically.
// Test hook only; never enable in production.
func (s *Scheme) TestingSetDeferredForceAnnounce(on bool) { s.forceAnnounce = on }

// DeferredPending returns how many reclaim candidates wait in the
// thread's ZCT (audit/test helper; owner-thread data, call at quiescence
// or from the owning goroutine).
func (t *Thread) DeferredPending() int { return len(t.zct) }
