package core

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// FreeNodes walks the scheme's free structures (all 2·NR_THREADS
// free-lists, every annAlloc cell and every slot's magazine) and returns
// each node found with its multiplicity.  It must only be called at
// quiescence; it is the scheme-side input to arena.AuditRC.
func (s *Scheme) FreeNodes() map[arena.Handle]int {
	heads := make([]arena.Handle, len(s.freeList))
	for i := range s.freeList {
		heads[i] = arena.Handle(s.freeList[i].Load())
	}
	free := mm.WalkFree(s.ar, heads...)
	for i := range s.annAlloc {
		if h := arena.Handle(s.annAlloc[i].Load()); h != arena.Nil {
			// Granted nodes sit at mm_ref==3 (handover convention); for
			// audit purposes they are free but carry the grant's extra
			// weight.  Normalize by accounting them as free with the
			// extra 2 verified here.
			free[h]++
		}
	}
	// Magazine nodes are free at the free-list value mm_ref==1, whether
	// or not the slot's thread is still registered.
	for i := range s.mag {
		for _, h := range s.mag[i].node[:s.mag[i].n] {
			free[h]++
		}
	}
	return free
}

// Audit verifies the reference-counting invariants at quiescence,
// returning any violations.  extraRefs lists references legitimately held
// by the caller (e.g. handles a test has not released).
func (s *Scheme) Audit(extraRefs map[arena.Handle]int) []error {
	free := s.FreeNodes()
	// Nodes parked in annAlloc carry mm_ref==3 rather than the free-list
	// value 1; temporarily normalize them so the generic audit applies,
	// restoring afterwards.
	var granted []arena.Handle
	for i := range s.annAlloc {
		if h := arena.Handle(s.annAlloc[i].Load()); h != arena.Nil {
			granted = append(granted, h)
		}
	}
	for _, h := range granted {
		s.ar.Ref(h).Add(-2)
	}
	errs := s.ar.AuditRC(free, extraRefs)
	for _, h := range granted {
		s.ar.Ref(h).Add(2)
	}
	if v := s.annScanViolations.Load(); v > 0 {
		errs = append(errs, fmt.Errorf(
			"core: %d DeRefLink slot scans exceeded the wait-freedom bound AnnScanBound(%d)=%d",
			v, s.n, AnnScanBound(s.n)))
	}
	errs = append(errs, s.AuditAnnRows()...)
	if s.deferred {
		errs = append(errs, s.auditDeferred()...)
	}
	return errs
}

// auditDeferred checks the deferred variant's quiescence invariants: no
// pin published (every dereference guard was released or promoted at
// Unregister) and no orphaned ZCT entry left unadopted (a nonzero
// orphan list at quiescence means a reclaim candidate was stranded
// pinned — a wedged protocol, since pins must be gone by now).
func (s *Scheme) auditDeferred() []error {
	var errs []error
	for i := range s.pins {
		for j := 0; j < PinSlots; j++ {
			if w := s.pins[i].slot[j].Load(); w != 0 {
				errs = append(errs, fmt.Errorf(
					"core: pin slot [%d][%d] still publishes node %d at quiescence (leaked pin)", i, j, w))
			}
		}
	}
	if n := s.orphans.Len(); n > 0 {
		errs = append(errs, fmt.Errorf(
			"core: %d orphaned ZCT entr(ies) unreclaimed at quiescence", n))
	}
	return errs
}

// AuditAnnRows verifies the announcement-row hygiene invariants at
// quiescence:
//
//  1. no slot holds a busy pin — every H4 pin was released by H8, so no
//     wedged helper is left restricting future D1 scans;
//  2. no slot holds a live announcement — every D3 publish was swapped
//     out by D6;
//  3. every row whose thread slot is not currently registered has
//     announcement index -1, the lifecycle rule that makes the deref.go
//     H2 guard skip rows of departed or never-registered threads.
//
// Invariant 3 is exactly what the annRow.index=-1 fix established (the
// zero value 0 is a valid slot index); the schedule explorer's standing
// injected-bug scenario reverts that fix via TestingSetLegacyAnnIndex
// and relies on this audit to flag the regression.
func (s *Scheme) AuditAnnRows() []error {
	var errs []error
	for id := 0; id < s.n; id++ {
		idx := s.ann[id].index.Load()
		if !s.reg.InUse(id) && idx != -1 {
			errs = append(errs, fmt.Errorf(
				"core: unregistered row %d advertises announcement slot %d, want -1 (H2 hygiene: helpers will scan a dead row)",
				id, idx))
		}
		if idx < -1 || idx >= int64(s.n) {
			errs = append(errs, fmt.Errorf("core: row %d has out-of-range announcement index %d", id, idx))
		}
		for j := range s.ann[id].slots {
			if b := s.ann[id].slots[j].busy.Load(); b != 0 {
				errs = append(errs, fmt.Errorf(
					"core: slot [%d][%d] busy=%d at quiescence, want 0 (leaked H4 pin)", id, j, b))
			}
			if v := s.ann[id].slots[j].readAddr.Load(); v&annEncodeBit != 0 {
				errs = append(errs, fmt.Errorf(
					"core: slot [%d][%d] still holds a live announcement %#x at quiescence", id, j, v))
			}
		}
	}
	return errs
}

// AnnRowLive reports whether any announcement slot of row id currently
// holds a live (encoded, un-answered) announcement.  A registered
// thread that returned from its last DeRefLink leaves none (D6 swaps
// the announcement out), so a live cell on a supposedly idle row means
// its goroutine died inside D3..D6 — the per-slot reuse audit of
// internal/slotpool keys off this.
func (s *Scheme) AnnRowLive(id int) bool {
	for j := range s.ann[id].slots {
		if s.ann[id].slots[j].readAddr.Load()&annEncodeBit != 0 {
			return true
		}
	}
	return false
}

// AnnScanViolations returns how many DeRefLink calls have exceeded the
// D1 scan bound since the scheme was created.  Zero is the wait-freedom
// guarantee; tests that deliberately wedge helpers can read and reset
// the counter with ResetAnnScanViolations.
func (s *Scheme) AnnScanViolations() uint64 { return s.annScanViolations.Load() }

// ResetAnnScanViolations clears the scan-violation counter, for harness
// scenarios that deliberately break the bound and then verify recovery.
func (s *Scheme) ResetAnnScanViolations() { s.annScanViolations.Store(0) }
