// Package alloc implements a concurrent, growable, constant-time block
// allocator in the style of Blelloch & Wei ("Concurrent Fixed-Size
// Allocation and Free in Constant Time", arXiv:2008.04296), adapted to
// this repository's wait-free helping idiom.  DESIGN.md §12 is the full
// design document: size-class table, the constant-time argument mapped
// onto Blelloch–Wei's lemmas, and every deviation from their model.
//
// Allocator is a size-classed object allocator.  Each class owns a
// growable store of word segments carved into blocks of BlockSlots free
// slots; each thread caches one block it allocates from and one it frees
// into, so the hot paths touch no shared memory at all.  Blocks travel
// to and from per-class shared pools — 2·P Treiber stacks with the
// core's Lemma-9-style grant helping — in O(1) handoffs.  The only
// non-constant-time event is a segment attach, off the hot path and paid
// for by the segment's slots.  The value layer (internal/value) is its
// one client; the node arena the schemes run on is fixed and does not
// use it.
//
// Wait-freedom accounting matches the chaos package's budgets: each
// operation counts its shared-memory steps, re-arms across segment
// attaches (growth pays for itself), and tests assert the high-waters
// stay within AllocStepBound/FreeStepBound.
package alloc
