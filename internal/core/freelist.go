package core

import (
	"errors"
	"runtime"
	"time"

	"wfrc/internal/arena"
)

// ErrOutOfMemory is returned by AllocNode when the bounded-retry
// detection rule (paper footnote 4) concludes the arena is exhausted.
var ErrOutOfMemory = errors.New("core: arena out of nodes")

// oomBroadcastRounds bounds how many times an exhausted allocator
// broadcasts memory pressure and yields before returning
// ErrOutOfMemory, giving every peer a chance to answer with a purging
// flush (see Scheme.memPressure).
const oomBroadcastRounds = 64

// oomSleepStep is the sleep increment of the second half of the
// broadcast rounds (see oomYield): round k of that half sleeps
// k·oomSleepStep, about 10 ms over all of them.
const oomSleepStep = 20 * time.Microsecond

// oomYield gives peers the chance to answer broadcast round `round`.
// The first half of the rounds only yield the processor, which is
// enough for peers that are running.  A peer whose OS thread the kernel
// has descheduled cannot answer until it runs again, and no number of
// Gosched calls on this thread brings that about on an oversubscribed
// host; so the second half sleeps for a growing interval.  The wait
// stays bounded, and only an allocator that found the arena empty and
// its own ZCT dry ever pays it.
func oomYield(round int) {
	if round <= oomBroadcastRounds/2 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(round-oomBroadcastRounds/2) * oomSleepStep)
}

// AllocNode removes a node from the free-list and returns it with one
// guarded reference (paper Figure 5, lines A1–A18).
//
// Wait-freedom comes from the helping protocol: every FreeNode and every
// allocator's first successful free-list CAS offers a node to the thread
// selected by helpCurrent, which is advanced round-robin with every
// attempt, so a continuously CAS-losing allocator is eventually handed a
// node through its annAlloc cell (paper Lemma 9).
//
// The footnote-4 exhaustion verdict gains escapes on the deferred
// variant only, ordered by cost: first the thread flushes its own ZCT
// (reusing memory it already owns), then it broadcasts memPressure so
// peers surrender theirs, and only then reports ErrOutOfMemory.  Each
// escape re-arms the step budget because each is paid for by reclaimed
// nodes or bounded by oomBroadcastRounds, so the call stays bounded.
//
// In front of all that sits the slot's magazine (magRow): a hit returns
// the most recently freed node and touches no list head, cursor or
// grant cell, only the node's own mm_ref.  Only a miss runs Figure 5,
// so every list-head CAS failure a starving allocator suffers is still
// caused by a peer's successful Figure-5 step, which still helps
// (A11–A16, F1–F3): Lemma 9 is untouched.
func (t *Thread) AllocNode() (arena.Handle, error) {
	s := t.s
	helped := false                // A1
	helpID := s.helpCurrent.Load() // A2
	var steps uint64
	broadcasts := 0
	for { // A3
		// Magazine first, on every iteration and not only on entry: this
		// call's own releases (A18, the deferred flush below) can win a
		// reclaim election and park the node there, and the footnote-4
		// verdict must never be reached with a node in hand.
		if node, ok := t.magPop(); ok {
			t.stats.NoteAlloc(steps + 1)
			return node, nil
		}
		t.at(PA3)
		steps++
		if steps > uint64(s.lim) {
			// Footnote-4 rule, deferred amendment: zero-count nodes in
			// the ZCT are reclaimable memory, so the deferred variant
			// flushes its own ZCT before declaring exhaustion and
			// retries with a fresh budget whenever the flush actually
			// freed nodes.  Each retry is paid for by at least one
			// reclaimed node, so the loop stays bounded (at most Nodes
			// extra rounds over the whole run).
			if s.deferred {
				if freed := t.flushDeferred(); freed > 0 {
					steps = 0 // budget re-armed; paid for by freed nodes
					continue
				}
				// Nothing left in our own ZCT or the arena, but peers
				// may hold reclaimable slack in theirs (which only they
				// can flush).  Broadcast memory pressure and yield a
				// bounded number of times before declaring exhaustion;
				// each round re-arms the budget, so the whole call stays
				// bounded by oomBroadcastRounds·lim extra steps.
				if broadcasts < oomBroadcastRounds {
					broadcasts++
					s.memPressure.Store(1)
					oomYield(broadcasts)
					steps = 0
					continue
				}
			}
			t.stats.NoteAlloc(steps)
			return arena.Nil, ErrOutOfMemory
		}
		// A4: adopt a node another thread granted us.
		if s.annAlloc[t.id].Load() != 0 {
			granted := arena.Handle(s.annAlloc[t.id].Swap(0))
			if granted != arena.Nil {
				t.stats.AllocHelped++
				t.stats.NoteAlloc(steps)
				return t.FixRef(granted, -1), nil
			}
			continue
		}
		current := s.currentFreeList.Load() // A5
		t.at(PA5)
		node := arena.Handle(s.freeList[current].Load()) // A6
		if node == arena.Nil {                           // A7
			s.currentFreeList.CompareAndSwap(current, (current+1)%int64(2*s.n))
			continue
		}
		s.ar.Ref(node).Add(2) // A9: guard node so mm_next stays frozen
		t.at(PA9)
		next := s.ar.Next(node).Load()
		if s.freeList[current].CompareAndSwap(uint64(node), next) { // A10
			if !helped && s.annAlloc[helpID].Load() == 0 { // A11
				t.at(PA12)
				if s.annAlloc[helpID].CompareAndSwap(0, uint64(node)) { // A12
					helped = true                                               // A13
					s.helpCurrent.CompareAndSwap(helpID, (helpID+1)%int64(s.n)) // A14
					continue                                                    // A15
				}
			}
			s.helpCurrent.CompareAndSwap(helpID, (helpID+1)%int64(s.n)) // A16
			t.stats.NoteAlloc(steps)
			return t.FixRef(node, -1), nil // A17
		}
		t.stats.CASFailures++
		t.ReleaseRef(node) // A18
	}
}

// freeNode returns node to the free structures (paper Figure 5, lines
// F1–F10).  It is called exclusively by the reclamation winner inside
// ReleaseRef; user code must never call it directly (paper §3.2).
//
// Erratum note (see package comment): the node arrives with mm_ref==1;
// before offering it through annAlloc we raise the count to 3 so the
// helped allocator's FixRef(-1) lands on the specified post-allocation
// value of 2, matching the A9/A12 insertion path.
func (t *Thread) freeNode(node arena.Handle) {
	s := t.s
	// The winner owns node exclusively here — run the free hook (value
	// payload reclamation) before any other thread can see the node.
	if fn := s.nodeFreeHook.Load(); fn != nil {
		(*fn)(t.id, node)
	}
	// Telemetry: node's memory is returning to the free structures —
	// the reclaim edge of the retire→free lag (mm.LifecycleSink).
	s.NoteReclaimed(node)
	// Magazine: keep the node for this slot's next AllocNode.  It rests
	// at mm_ref==1 like a free-list node, so a stale D5/D8 pair on it
	// nets to zero and can never win the R2 election (odd count).
	if m := &s.mag[t.id]; m.n < s.magDepth {
		m.node[m.n] = node
		m.n++
		t.stats.FreeLocal++
		t.stats.NoteFree(1)
		return
	}
	t.stats.NoteFree(t.freeShared(node))
}

// magPop takes the most recently freed node off the slot's magazine and
// returns it allocated: mm_ref 1 → 2, the value A17 and A4 leave.
func (t *Thread) magPop() (arena.Handle, bool) {
	m := &t.s.mag[t.id]
	if m.n == 0 {
		return arena.Nil, false
	}
	m.n--
	t.stats.AllocLocal++
	return t.FixRef(m.node[m.n], 1), true
}

// spillMagazine empties the slot's magazine onto the free-lists, for
// Unregister and for a memory-pressure answer.  The nodes were counted as frees when they were parked;
// only the insertion attempts are recorded here.
func (t *Thread) spillMagazine() {
	m := &t.s.mag[t.id]
	for m.n > 0 {
		m.n--
		steps := t.freeShared(m.node[m.n])
		t.stats.FreeSteps += steps
		t.stats.FreeMaxSteps = max(t.stats.FreeMaxSteps, steps)
	}
}

// freeShared is lines F1–F10: it offers node (mm_ref==1, exclusively
// owned) to the thread under the help cursor, else inserts it into one
// of this thread's two free-lists, and returns the attempts taken.
func (t *Thread) freeShared(node arena.Handle) (steps uint64) {
	s := t.s
	helpID := s.helpCurrent.Load()                              // F1
	s.helpCurrent.CompareAndSwap(helpID, (helpID+1)%int64(s.n)) // F2
	t.at(PF3)
	// The F3 offer is best-effort helping; when the target cell is
	// observed occupied, skip it with one load instead of paying the
	// erratum's +2/CAS/-2 round trip just to have the CAS decline.
	if s.annAlloc[helpID].Load() == 0 {
		s.ar.Ref(node).Add(2)                                   // erratum: hand over at mm_ref==3, as line A12 does
		if s.annAlloc[helpID].CompareAndSwap(0, uint64(node)) { // F3
			return 1
		}
		s.ar.Ref(node).Add(-2) // offer declined; back to the free-list value 1
	}
	// F4–F6: pick whichever of this thread's two list heads the
	// allocators are not working on.
	current := s.currentFreeList.Load()
	var index int64
	if current <= int64(t.id) || current > int64(s.n+t.id) {
		index = int64(s.n + t.id)
	} else {
		index = int64(t.id)
	}
	for { // F7
		t.at(PF7)
		steps++
		head := s.freeList[index].Load()
		s.ar.Next(node).Store(head) // F8
		t.at(PF9)
		if s.freeList[index].CompareAndSwap(head, uint64(node)) { // F9
			break
		}
		t.stats.CASFailures++
		index = (index + int64(s.n)) % int64(2*s.n) // F10
	}
	return steps
}

// Alloc implements mm.Thread.
func (t *Thread) Alloc() (arena.Handle, error) { return t.AllocNode() }

// Release implements mm.Thread.
func (t *Thread) Release(h arena.Handle) { t.ReleaseRef(h) }

// Copy implements mm.Thread: it duplicates a guarded reference the
// thread already holds (the paper's FixRef(node, 2)).
//
// On the deferred variant the duplicate is taken as a pin guard when the
// set has room: Copy's precondition — the thread already holds a guard
// on h — makes a fresh publication safe without revalidation (a pin
// guard on h would be a cache hit, so a miss means the existing guard is
// counted and holds the count ≥ 2 until its release, which happens after
// this publish).  Only a full set pays the shared FAA.
func (t *Thread) Copy(h arena.Handle) {
	if t.s.deferred && h != arena.Nil {
		if j, _ := t.pinAcquire(h); j >= 0 {
			return
		}
	}
	t.FixRef(h, 2)
}
