package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// ErrOutOfMemory is returned by Alloc when the class's shared pool is
// empty and its capacity ceiling (MaxSlots) forbids attaching another
// segment.
var ErrOutOfMemory = errors.New("alloc: class out of slots and at capacity ceiling")

// Ref identifies an allocated object: the size class in the high half
// and the class-local slot index in the low 32 bits, biased so the zero
// Ref is never valid.
type Ref uint64

// NilRef is the invalid zero Ref.
const NilRef Ref = 0

func makeRef(class int, slot uint32) Ref { return Ref(uint64(class+1)<<32 | uint64(slot)) }

// Class returns the size-class index of r.
func (r Ref) Class() int { return int(r>>32) - 1 }

// Slot returns the class-local slot index of r.
func (r Ref) Slot() uint32 { return uint32(r) }

// IsNil reports whether r is the invalid zero Ref.
func (r Ref) IsNil() bool { return r == NilRef }

// ClassConfig sizes one size class of an Allocator.
type ClassConfig struct {
	// SlotWords is the object size in 8-byte words (min 1).  While a
	// slot is free, its word 0 carries the intra-block free chain, so
	// objects must not rely on word 0 surviving a Free/Alloc cycle.
	SlotWords int
	// BlockSlots is the block size B: the number of slots that travel
	// between a thread cache and the shared pool as one unit.  Larger
	// blocks amortize shared-pool traffic over more operations; the
	// per-op worst case is unchanged (block handoff is O(1) regardless).
	BlockSlots int
	// InitialSlots is the capacity carved at construction; it is rounded
	// up to a whole number of blocks and then to the next power of two,
	// which also becomes the segment size for growth.
	InitialSlots int
	// MaxSlots caps the class's total capacity across all segments.
	// Zero (or <= InitialSlots) pins the class at its initial segment.
	MaxSlots int
}

// Config sizes an Allocator.
type Config struct {
	// Threads is the number of Thread handles that will operate on the
	// allocator (the paper's NR_THREADS / Blelloch–Wei's P).
	Threads int
	// Classes lists the size classes; Alloc and Free address them by
	// index.
	Classes []ClassConfig
}

// class is one size class: a growable store of word segments plus the
// shared block pool over it.
type class struct {
	slotWords  int
	blockSlots int

	segShift uint // log2 slots per segment
	segs     []atomic.Pointer[[]uint64]
	nSegs    atomic.Int64

	pool *sharedPool
}

func (c *class) segSlots() int { return 1 << c.segShift }

// Allocator is a size-classed concurrent allocator in the style of
// Blelloch & Wei: per-thread block caches over shared block pools, with
// segment attach as the only non-constant-time event.  See doc.go and
// DESIGN.md §12 for the full model.
type Allocator struct {
	n       int
	classes []*class

	mu      sync.Mutex
	threads []*Thread
}

// New builds an allocator and carves every class's initial segment into
// blocks on the shared pools.
func New(cfg Config) (*Allocator, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("alloc: Threads must be positive, got %d", cfg.Threads)
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("alloc: at least one class required")
	}
	a := &Allocator{n: cfg.Threads}
	for ci, cc := range cfg.Classes {
		if cc.SlotWords < 1 {
			return nil, fmt.Errorf("alloc: class %d SlotWords %d < 1", ci, cc.SlotWords)
		}
		if cc.BlockSlots < 1 {
			return nil, fmt.Errorf("alloc: class %d BlockSlots %d < 1", ci, cc.BlockSlots)
		}
		if cc.InitialSlots < cc.BlockSlots {
			return nil, fmt.Errorf("alloc: class %d InitialSlots %d below one block (%d)", ci, cc.InitialSlots, cc.BlockSlots)
		}
		c := &class{slotWords: cc.SlotWords, blockSlots: cc.BlockSlots, pool: newSharedPool(cfg.Threads)}
		// Round the initial capacity to whole blocks, then to a power of
		// two: that span is also the growth granularity, and the
		// power-of-two segment size keeps slot->segment resolution a
		// shift (no division on the hot path).
		slots := (cc.InitialSlots + cc.BlockSlots - 1) / cc.BlockSlots * cc.BlockSlots
		c.segShift = uint(bits.Len(uint(slots - 1)))
		maxSegs := 1
		if cc.MaxSlots > c.segSlots() {
			maxSegs += (cc.MaxSlots - c.segSlots()) / c.segSlots()
		}
		if uint64(maxSegs)<<c.segShift > 1<<32 {
			return nil, fmt.Errorf("alloc: class %d capacity exceeds 32-bit slot space", ci)
		}
		c.segs = make([]atomic.Pointer[[]uint64], maxSegs)
		var st popStats
		c.attachSegment(0, &st)
		a.classes = append(a.classes, c)
	}
	return a, nil
}

// MustNew is New but panics on configuration errors; for tests.
func MustNew(cfg Config) *Allocator {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// attachSegment builds segment idx's word store, carves it into blocks
// and pushes all of them; the caller must own slot idx exclusively (the
// CAS winner in grow, or construction for idx 0).
func (c *class) attachSegment(idx int, st *popStats) {
	seg := make([]uint64, c.segSlots()*c.slotWords)
	c.segs[idx].Store(&seg)
	if idx == 0 {
		c.nSegs.Store(1)
	} else {
		c.nSegs.CompareAndSwap(int64(idx), int64(idx)+1)
	}
	base := uint32(idx) << c.segShift
	for b := 0; b < c.segSlots()/c.blockSlots; b++ {
		first := base + uint32(b*c.blockSlots)
		c.chainBlock(first)
		c.pool.push(0, item{a: first + 1, b: uint32(c.blockSlots)}, st)
	}
}

// chainBlock links slots [first, first+B) into a free chain through
// their word 0 (stored as next-slot+1; 0 terminates).
func (c *class) chainBlock(first uint32) {
	for i := 0; i < c.blockSlots; i++ {
		slot := first + uint32(i)
		next := uint64(0)
		if i < c.blockSlots-1 {
			next = uint64(slot) + 2 // (slot+1)+1 bias
		}
		(*c.segs[slot>>c.segShift].Load())[(slot&(uint32(c.segSlots())-1))*uint32(c.slotWords)] = next
	}
}

// grow attaches one fresh segment through the lock-free registry and
// carves it.  A CAS loser helps publish and reports retry=true so the
// caller re-sweeps the pool the winner just filled; at the capacity
// ceiling it reports ErrOutOfMemory.
func (c *class) grow(st *popStats) (retry bool, err error) {
	for {
		ns := c.nSegs.Load()
		if int(ns) < len(c.segs) && c.segs[ns].Load() != nil {
			c.nSegs.CompareAndSwap(ns, ns+1)
			continue
		}
		if int(ns) >= len(c.segs) {
			return false, ErrOutOfMemory
		}
		st.at(PGrow)
		seg := make([]uint64, c.segSlots()*c.slotWords)
		if c.segs[ns].CompareAndSwap(nil, &seg) {
			c.nSegs.CompareAndSwap(ns, ns+1)
			st.at(PCarve)
			base := uint32(ns) << c.segShift
			for b := 0; b < c.segSlots()/c.blockSlots; b++ {
				first := base + uint32(b*c.blockSlots)
				c.chainBlock(first)
				c.pool.push(0, item{a: first + 1, b: uint32(c.blockSlots)}, st)
			}
			return true, nil
		}
		// Lost the attach; the winner is pushing its blocks right now.
		c.nSegs.CompareAndSwap(ns, ns+1)
		return true, nil
	}
}

// word returns the index of slot's word 0 within its segment, and the
// segment store.
func (c *class) slotWordsOf(slot uint32) []uint64 {
	seg := *c.segs[slot>>c.segShift].Load()
	off := (slot & (uint32(c.segSlots()) - 1)) * uint32(c.slotWords)
	return seg[off : off+uint32(c.slotWords)]
}

// Thread returns the calling thread's handle.  id must be unique in
// [0, Threads); each Thread is single-goroutine (its block caches are
// deliberately unsynchronized — that is where the constant-time hot
// path comes from).
func (a *Allocator) Thread(id int) *Thread {
	if id < 0 || id >= a.n {
		panic(fmt.Sprintf("alloc: thread id %d out of range [0,%d)", id, a.n))
	}
	t := &Thread{a: a, id: id, tc: make([]threadClass, len(a.classes))}
	a.mu.Lock()
	a.threads = append(a.threads, t)
	a.mu.Unlock()
	return t
}

// threadClass is one thread's private cache for one class: the block it
// allocates from and the block it frees into.  Keeping them separate is
// Blelloch–Wei's trick for making both paths O(1): Alloc never touches
// a block another thread may push, Free never steals the allocation
// block's chain.
type threadClass struct {
	alloc item // block being consumed
	free  item // block being filled
}

// Thread is one thread's session with the allocator.  Not safe for
// concurrent use by multiple goroutines.
type Thread struct {
	a     *Allocator
	id    int
	tc    []threadClass
	hook  func(Point)
	stats Stats
}

// SetHook installs fn at every instrumentation point of this thread's
// operations (nil removes it); the deterministic scheduler routes these
// to yield points.
func (t *Thread) SetHook(fn func(Point)) { t.hook = fn }

func (t *Thread) at(p Point) {
	if t.hook != nil {
		t.hook(p)
	}
}

// Stats returns a copy of the thread's counters.
func (t *Thread) Stats() Stats { return t.stats }

// Alloc takes one free slot from size class ci.  The hot path — a pop
// from the thread's cached block — is branch-plus-two-loads; refilling
// the cache costs one shared-pool block handoff; only an empty shared
// pool triggers a segment attach, whose cost is amortized over the
// segment's every slot (the step counter is re-armed after a grow, the
// same budget discipline as the core's footnote-4 path).
func (t *Thread) Alloc(ci int) (Ref, error) {
	c := t.a.classes[ci]
	tc := &t.tc[ci]
	t.at(PCache)
	steps := uint64(1)
	defer func() {
		t.stats.AllocOps++
		if steps > t.stats.AllocStepsMax {
			t.stats.AllocStepsMax = steps
		}
	}()
	for tc.alloc.b == 0 {
		if tc.free.b > 0 {
			// Recycle our own frees before touching shared state.
			tc.alloc, tc.free = tc.free, item{}
			break
		}
		st := popStats{hook: t.hook}
		it, ok := c.pool.pop(t.id, &st)
		t.stats.fold(&st)
		steps += st.steps
		if ok {
			tc.alloc = it
			break
		}
		if _, err := c.grow(&st); err != nil {
			t.stats.fold(&st)
			return NilRef, err
		}
		t.stats.fold(&st)
		// A grow (ours or a racing winner's) refilled the pool; the
		// budget is re-armed because the new segment pays for it.
		steps = 1
	}
	t.stats.CacheHits++
	slot := tc.alloc.a - 1
	w := c.slotWordsOf(slot)
	tc.alloc.a = uint32(w[0])
	tc.alloc.b--
	w[0] = 0
	return makeRef(ci, slot), nil
}

// Free returns r's slot to the allocator.  The slot joins the thread's
// current freeing block — not necessarily the block it was carved with;
// blocks are bags of slots, not address ranges — and a filled block is
// sealed and pushed to the shared pool in one O(1) handoff.
func (t *Thread) Free(r Ref) {
	ci := r.Class()
	c := t.a.classes[ci]
	tc := &t.tc[ci]
	t.at(PFreeChain)
	steps := uint64(1)
	slot := r.Slot()
	c.slotWordsOf(slot)[0] = uint64(tc.free.a)
	tc.free.a = slot + 1
	tc.free.b++
	if int(tc.free.b) == c.blockSlots {
		st := popStats{hook: t.hook}
		c.pool.push(t.id, tc.free, &st)
		t.stats.fold(&st)
		t.stats.BlocksSealed++
		steps += st.steps
		tc.free = item{}
	}
	t.stats.FreeOps++
	if steps > t.stats.FreeStepsMax {
		t.stats.FreeStepsMax = steps
	}
}

// Words exposes r's payload (SlotWords 8-byte words).  Word 0 is
// clobbered while the slot is free.
func (a *Allocator) Words(r Ref) []uint64 {
	return a.classes[r.Class()].slotWordsOf(r.Slot())
}

// Slots returns class ci's currently attached slot capacity.
func (a *Allocator) Slots(ci int) int {
	c := a.classes[ci]
	return int(c.nSegs.Load()) << c.segShift
}

// MaxSlots returns class ci's capacity ceiling.
func (a *Allocator) MaxSlots(ci int) int {
	c := a.classes[ci]
	return len(c.segs) << c.segShift
}

// SegmentsAttached returns how many segments class ci holds.
func (a *Allocator) SegmentsAttached(ci int) int { return int(a.classes[ci].nSegs.Load()) }

// Classes returns the number of size classes, so observability code can
// sweep SegmentsAttached/Slots over all of them.
func (a *Allocator) Classes() int { return len(a.classes) }

// Stats merges every registered thread's counters.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out Stats
	for _, t := range a.threads {
		out.merge(t.stats)
	}
	return out
}

// Audit verifies slot conservation at quiescence: every slot of every
// attached segment is either live (present in live, which maps each
// outstanding Ref to true) or free exactly once across the shared
// pools and every registered thread's caches — never both, never lost,
// never duplicated.  This is the allocator-level analogue of the
// arena's AuditRC and must only run while no operation is in flight.
func (a *Allocator) Audit(live map[Ref]bool) []error {
	var errs []error
	a.mu.Lock()
	threads := append([]*Thread(nil), a.threads...)
	a.mu.Unlock()
	for ci, c := range a.classes {
		total := int(c.nSegs.Load()) << c.segShift
		seen := make([]uint8, total)
		walk := func(where string, it item) {
			count := 0
			for cur := it.a; cur != 0; {
				slot := cur - 1
				if int(slot) >= total {
					errs = append(errs, fmt.Errorf("alloc: class %d %s chains out-of-range slot %d", ci, where, slot))
					return
				}
				seen[slot]++
				if seen[slot] > 1 {
					errs = append(errs, fmt.Errorf("alloc: class %d slot %d free more than once (via %s)", ci, slot, where))
					return
				}
				count++
				if count > c.blockSlots {
					errs = append(errs, fmt.Errorf("alloc: class %d %s block overruns BlockSlots=%d", ci, where, c.blockSlots))
					return
				}
				cur = uint32(c.slotWordsOf(slot)[0])
			}
			if count != int(it.b) {
				errs = append(errs, fmt.Errorf("alloc: class %d %s block declares %d slots, chains %d", ci, where, it.b, count))
			}
		}
		for _, it := range c.pool.blocks() {
			walk("shared pool", it)
		}
		for _, t := range threads {
			walk(fmt.Sprintf("thread %d alloc cache", t.id), t.tc[ci].alloc)
			walk(fmt.Sprintf("thread %d free cache", t.id), t.tc[ci].free)
		}
		for slot := 0; slot < total; slot++ {
			isLive := live[makeRef(ci, uint32(slot))]
			switch {
			case isLive && seen[slot] > 0:
				errs = append(errs, fmt.Errorf("alloc: class %d slot %d both live and free", ci, slot))
			case !isLive && seen[slot] == 0:
				errs = append(errs, fmt.Errorf("alloc: class %d slot %d leaked (neither live nor free)", ci, slot))
			}
		}
	}
	return errs
}
