package alloc

import "sync/atomic"

// item is the unit exchanged through a sharedPool: one block of free
// slots, described by a chain head (or first handle, +1 so the zero
// item is empty) and a slot count.  A block here is Blelloch–Wei's
// "block": a bag of BlockSlots free slots that travels between
// per-thread caches and the shared pool as a single O(1) handoff.
type item struct {
	a uint32 // chain head + 1 (object pools) or first handle (node pools)
	b uint32 // slot count
}

// poolNode wraps an item for the Treiber shard stacks.  Every push
// allocates a fresh node: the Go GC guarantees a node's address cannot
// be recycled while any thread still holds a stale head pointer to it,
// which is what makes the plain-pointer CAS pop ABA-safe.  This is the
// host-runtime substitute for the tagged pointers Blelloch–Wei assume
// (DESIGN.md §12, deviations).
type poolNode struct {
	it   item
	next *poolNode
}

// padPtr is a cache-line padded block-stack head, so neighbouring
// shards do not false-share.
type padPtr struct {
	v atomic.Pointer[poolNode]
	_ [7]uint64
}

// popStats carries the per-call accounting and instrumentation through
// the shared-pool operations back into the caller's Stats.
type popStats struct {
	steps   uint64
	casFail uint64
	granted bool
	gave    bool
	hook    func(Point)
}

func (st *popStats) at(p Point) {
	if st.hook != nil {
		st.hook(p)
	}
}

// sharedPool is the contended middle layer of the allocator: 2·P
// Treiber stacks of blocks plus the Lemma-9-style helping scheme the
// wait-free core's free-lists use — a rotating cursor selects one
// thread per successful pop to receive a block through its grant cell,
// so a thread that keeps losing pop CASes is eventually handed a block
// without winning one.  2·P stacks over P threads gives pushers the
// paper's F10 guarantee of a low-contention list to retreat to.
type sharedPool struct {
	n      int
	shards []padPtr // 2n block stacks
	grants []padPtr // n grant cells, one per thread
	cursor atomic.Int64
}

func newSharedPool(threads int) *sharedPool {
	return &sharedPool{
		n:      threads,
		shards: make([]padPtr, 2*threads),
		grants: make([]padPtr, threads),
	}
}

// push offers a full block to the shard stacks, starting at the
// caller's home shard and rotating on CAS failure (every failure means
// a concurrent push or pop succeeded on that shard — system progress,
// the same argument as free-list insertion lines F7–F10).
func (s *sharedPool) push(tid int, it item, st *popStats) {
	nd := &poolNode{it: it}
	idx := tid % (2 * s.n)
	for {
		st.steps++
		st.at(PSealCAS)
		head := s.shards[idx].v.Load()
		nd.next = head
		if s.shards[idx].v.CompareAndSwap(head, nd) {
			return
		}
		st.casFail++
		idx = (idx + 1) % (2 * s.n)
	}
}

// pop takes one block from the pool.  It returns false only when a full
// sweep of the shards observed every stack empty — the caller's signal
// to attach a segment.  While blocks exist, a popper either wins a CAS
// itself or is eventually served through its grant cell: every winner
// whose call has not yet helped re-donates its first win to the cursor
// thread's grant cell and pops again (lines A11–A15 transplanted).
func (s *sharedPool) pop(tid int, st *popStats) (item, bool) {
	helped := false
	helpID := s.cursor.Load()
	for {
		if nd := s.grants[tid].v.Swap(nil); nd != nil {
			st.granted = true
			return nd.it, true
		}
		empty := true
		for i := 0; i < 2*s.n; i++ {
			idx := (tid + i) % (2 * s.n)
			head := s.shards[idx].v.Load()
			if head == nil {
				continue
			}
			empty = false
			st.steps++
			st.at(PPopCAS)
			if !s.shards[idx].v.CompareAndSwap(head, head.next) {
				st.casFail++
				continue
			}
			if !helped && s.grants[helpID].v.Load() == nil {
				st.at(PGrant)
				if s.grants[helpID].v.CompareAndSwap(nil, &poolNode{it: head.it}) {
					helped = true
					st.gave = true
					s.cursor.CompareAndSwap(helpID, (helpID+1)%int64(s.n))
					continue
				}
			}
			s.cursor.CompareAndSwap(helpID, (helpID+1)%int64(s.n))
			return head.it, true
		}
		if empty {
			// The shards are dry, but a donated block may be stranded in
			// the grant cell of a thread that is not allocating.  Steal
			// one before declaring emptiness: Swap makes the steal atomic
			// (the owner simply misses a grant it never observed), and a
			// steal only happens when the alternative is a segment attach
			// or an out-of-memory verdict.
			for i := 0; i < s.n; i++ {
				if nd := s.grants[(tid+i)%s.n].v.Swap(nil); nd != nil {
					st.granted = true
					return nd.it, true
				}
			}
			return item{}, false
		}
	}
}

// blocks returns every block currently parked in a shard stack or a
// grant cell, non-destructively; for quiescent audits only.
func (s *sharedPool) blocks() []item {
	var out []item
	for i := range s.shards {
		for nd := s.shards[i].v.Load(); nd != nil; nd = nd.next {
			out = append(out, nd.it)
		}
	}
	for i := range s.grants {
		if nd := s.grants[i].v.Load(); nd != nil {
			out = append(out, nd.it)
		}
	}
	return out
}
