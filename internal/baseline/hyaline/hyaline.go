// Package hyaline implements Hyaline-style snapshot-free memory
// reclamation (Nikolaev & Ravindran, "Universal Wait-Free Memory
// Reclamation" / "Snapshot-Free, Transparent, and Robust Memory
// Reclamation", PAPERS.md) as a modern baseline for the benchmark
// matrix.
//
// Unlike hazard pointers (per-object snapshots) and epochs (global
// quiescence), Hyaline distributes retired nodes to the threads that
// might still hold them: each registered thread owns one *slot* with a
// retirement list, retiring threads append whole *batches* of unlinked
// nodes to every active slot's list, and each reader processes its own
// list when it leaves its operation, decrementing a per-batch reference
// counter.  The batch is freed by whoever drops the counter to zero —
// reclamation cost is shared between retirers and readers and no global
// scan ever happens.
//
// Robustness comes from birth eras (Nikolaev's Hyaline-S / IBR
// tagging): every node is stamped with the global era at allocation,
// every reader publishes the era it is accessing (refreshed with a
// validation loop on each dereference), and a retiring thread skips
// slots whose published access era predates the batch's oldest birth
// era — a stalled reader therefore blocks only the batches born before
// it stalled, not all reclamation (the property the oversubscription
// matrix cells measure; contrast with the epoch baseline, where one
// stalled thread blocks everything).
//
// The repo's usage model (one mm.Thread per goroutine, BeginOp/EndOp
// brackets, guarded references not surviving EndOp) maps onto the
// degenerate one-slot-per-thread instance of the algorithm: a slot's
// reference count is 0 or 1 (only its owner enters), the slot list is
// processed solely by its owner at leave, and insertion is a Treiber
// push whose ABA is benign because the compared head word pairs the
// handle with the reference bit.
package hyaline

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// ErrOutOfMemory is returned by Alloc when no node can be obtained even
// after forced batch retirement.
var ErrOutOfMemory = errors.New("hyaline: arena out of nodes")

// refsBias initializes every batch's reference counter far above any
// possible slot count, so readers that process their lists before the
// retirer's final adjustment lands can never drive the counter to zero
// prematurely.  The adjustment subtracts the bias and adds the true
// insertion count; only then can the counter reach zero.
const refsBias = int64(1) << 30

// Point labels the algorithm steps at which a thread's hook (SetHook)
// is invoked; the deterministic scheduler yields there to explore
// interleavings of retire against a concurrent reader.
type Point int

const (
	// PEnter fires in BeginOp after the slot's reference is published.
	PEnter Point = iota
	// PDeRefEra fires in DeRef between publishing the access era and
	// loading the link — the window the validation loop re-checks.
	PDeRefEra
	// PLeave fires in EndOp before the detach CAS on the slot head.
	PLeave
	// PTraverse fires before each batch-reference decrement in the
	// leave traversal.
	PTraverse
	// PRetireScan fires in a batch retire before the active-slot
	// snapshot.
	PRetireScan
	// PInsert fires before each slot-list insertion CAS.
	PInsert
	// PAdjust fires before the batch's reference-counter adjustment.
	PAdjust
	// PFree fires before a batch free.
	PFree

	// NumPoints is the number of hook points.
	NumPoints
)

var pointNames = [...]string{
	PEnter: "PEnter", PDeRefEra: "PDeRefEra", PLeave: "PLeave",
	PTraverse: "PTraverse", PRetireScan: "PRetireScan",
	PInsert: "PInsert", PAdjust: "PAdjust", PFree: "PFree",
}

// String names the hook point.
func (p Point) String() string {
	if p >= 0 && int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Config parameterizes the scheme.
type Config struct {
	// Threads is the maximum number of concurrently registered threads.
	Threads int
	// RetireThreshold is the batch size that triggers a global retire.
	// Zero selects a default.  Regardless of the threshold, a batch is
	// only dispatched once it holds at least one node per active slot
	// plus the reference-carrier node, so retirement always covers
	// every reader that could hold a batch member.
	RetireThreshold int
	// AllocRetryLimit bounds the allocation loop.  Zero selects a
	// default.
	AllocRetryLimit int
}

// slotCell is one thread's slot: the packed (references<<32 | list
// head handle) word and the published access era, padded so slots never
// share a cache line.
type slotCell struct {
	head atomic.Uint64
	era  atomic.Uint64
	_    [6]uint64
}

// Scheme is the Hyaline memory manager.  It implements mm.Scheme and
// the optional mm.Robust capability.
type Scheme struct {
	ar        *arena.Arena
	n         int
	threshold int
	lim       int

	// era is the global era clock; it ticks on every batch retire, and
	// birth/access stamps taken from it drive the robustness skip rule.
	era atomic.Uint64

	slots []slotCell

	free         mm.FreeStack
	reg          mm.Registry
	mm.Lifecycle // retire/reclaim telemetry (mm.LifecycleSource)

	// outstanding counts allocated-not-yet-freed nodes; unreclaimed
	// counts retired-not-yet-freed nodes (the robustness metric).
	outstanding atomic.Int64
	unreclaimed atomic.Int64

	// Per-node side state, indexed by handle.  lnext chains a slot's
	// retirement list, bnext chains the nodes of one batch, blink points
	// every batch member at its reference-carrier node, birth holds the
	// allocation-time era, and brefs is the batch reference counter
	// (meaningful on carrier nodes only).
	lnext []atomic.Uint64
	bnext []atomic.Uint64
	blink []atomic.Uint64
	birth []atomic.Uint64
	brefs []atomic.Int64

	// limbo holds retired nodes orphaned by Unregister before their
	// batch could be dispatched; retiring threads adopt them.
	limbo mm.Limbo
}

// New creates a Hyaline scheme over ar with all nodes free.
func New(ar *arena.Arena, cfg Config) (*Scheme, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("hyaline: Threads must be positive, got %d", cfg.Threads)
	}
	threshold := cfg.RetireThreshold
	if threshold == 0 {
		threshold = 64
	}
	lim := cfg.AllocRetryLimit
	if lim == 0 {
		// Retirement is deferred until batches dispatch and readers
		// leave, so transient exhaustion is as common as under epochs.
		lim = 256*cfg.Threads + 1024
	}
	cap := ar.Nodes() + 1
	s := &Scheme{
		ar: ar, n: cfg.Threads, threshold: threshold, lim: lim,
		slots: make([]slotCell, cfg.Threads),
		lnext: make([]atomic.Uint64, cap),
		bnext: make([]atomic.Uint64, cap),
		blink: make([]atomic.Uint64, cap),
		birth: make([]atomic.Uint64, cap),
		brefs: make([]atomic.Int64, cap),
	}
	s.era.Store(1)
	s.reg.Init("hyaline", cfg.Threads)
	s.free.Init(ar)
	return s, nil
}

// MustNew is New but panics on error.
func MustNew(ar *arena.Arena, cfg Config) *Scheme {
	s, err := New(ar, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements mm.Scheme.
func (s *Scheme) Name() string { return "hyaline" }

// Arena implements mm.Scheme.
func (s *Scheme) Arena() *arena.Arena { return s.ar }

// Threads implements mm.Scheme.
func (s *Scheme) Threads() int { return s.n }

// Register implements mm.Scheme.
func (s *Scheme) Register() (mm.Thread, error) {
	t, err := s.RegisterHyaline()
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RegisterHyaline is Register returning the concrete type, for tests
// and the deterministic scheduler.
func (s *Scheme) RegisterHyaline() (*Thread, error) {
	id, err := s.reg.Acquire()
	if err != nil {
		return nil, err
	}
	t := &Thread{s: s, id: id}
	t.PlainLinks = mm.MakePlainLinks(s.ar, &t.stats)
	return t, nil
}

// UnreclaimedNodes implements the optional mm.Robust capability: the
// number of retired nodes not yet returned to the free list, including
// nodes still accumulating in per-thread batches.  The oversubscription
// matrix cells record it to show the stalled-reader bound.
func (s *Scheme) UnreclaimedNodes() int { return int(s.unreclaimed.Load()) }

// FreeNodes walks the free-list for tests; quiescence only.
func (s *Scheme) FreeNodes() map[arena.Handle]int { return s.free.Walk() }

// Era returns the global era clock, for tests.
func (s *Scheme) Era() uint64 { return s.era.Load() }

// Audit checks conservation at quiescence: every slot inactive with an
// empty retirement list, no orphaned retirements, every retired node
// reclaimed, and the free list well formed and accounting for exactly
// the unallocated capacity.  extraRefs is accepted for signature parity
// with the reference-counting audits and ignored — Hyaline holds no
// per-node counts to reconcile.
func (s *Scheme) Audit(extraRefs map[arena.Handle]int) []error {
	_ = extraRefs
	var errs []error
	for i := range s.slots {
		v := s.slots[i].head.Load()
		if v>>32 != 0 {
			errs = append(errs, fmt.Errorf("hyaline audit: slot %d still active (refs=%d)", i, v>>32))
		}
		if h := arena.Handle(v & 0xffffffff); h != arena.Nil {
			errs = append(errs, fmt.Errorf("hyaline audit: slot %d retirement list not empty (head=%d)", i, h))
		}
	}
	if n := s.limbo.Len(); n != 0 {
		errs = append(errs, fmt.Errorf("hyaline audit: %d orphaned retirement(s) in limbo", n))
	}
	if n := s.unreclaimed.Load(); n != 0 {
		errs = append(errs, fmt.Errorf("hyaline audit: %d retired node(s) unreclaimed at quiescence", n))
	}
	free := s.FreeNodes()
	for h, c := range free {
		if c > 1 {
			errs = append(errs, fmt.Errorf("hyaline audit: node %d on the free list %d times", h, c))
		}
	}
	if got, want := int64(len(free))+s.outstanding.Load(), int64(s.ar.Nodes()); got != want {
		errs = append(errs, fmt.Errorf(
			"hyaline audit: conservation broken: %d free + %d outstanding = %d, want %d nodes",
			len(free), s.outstanding.Load(), got, want))
	}
	return errs
}

// Thread is a per-goroutine context.  It implements mm.Thread and the
// optional mm.Flusher and mm.BatchRetirer capabilities.
type Thread struct {
	mm.PlainLinks // the slot reference guards nodes, so links are plain
	s             *Scheme
	id            int
	stats         mm.OpStats
	batch         []arena.Handle // retired nodes awaiting batch dispatch
	hook          func(Point)
}

// ID implements mm.Thread.
func (t *Thread) ID() int { return t.id }

// Stats implements mm.Thread.
func (t *Thread) Stats() *mm.OpStats { return &t.stats }

// SetHook installs fn at every algorithm Point this thread passes; nil
// removes it.  Owner goroutine only — the deterministic scheduler's
// yield injection.
func (t *Thread) SetHook(fn func(Point)) { t.hook = fn }

func (t *Thread) at(p Point) {
	if t.hook != nil {
		t.hook(p)
	}
}

// BeginOp implements mm.Thread: publish the access era, then the slot
// reference (era first, so a retirer that observes the reference also
// observes an era; DeRef's validation loop refreshes it upward).
func (t *Thread) BeginOp() {
	sl := &t.s.slots[t.id]
	sl.era.Store(t.s.era.Load())
	sl.head.Store(1 << 32)
	t.at(PEnter)
}

// EndOp implements mm.Thread: detach the slot's retirement list with
// the leave CAS, then traverse it, dropping one reference from each
// listed node's batch.  The traversal is safe without other protection:
// every listed node was inserted while this slot held its reference, so
// each node's batch retains at least the reference this traversal
// drops, and a node's list successor is read before its batch reference
// is dropped.
func (t *Thread) EndOp() {
	sl := &t.s.slots[t.id]
	t.at(PLeave)
	for {
		v := sl.head.Load()
		if sl.head.CompareAndSwap(v, 0) {
			t.traverse(arena.Handle(v & 0xffffffff))
			return
		}
		t.stats.CASFailures++
	}
}

func (t *Thread) traverse(h arena.Handle) {
	for h != arena.Nil {
		next := arena.Handle(t.s.lnext[h].Load())
		carrier := arena.Handle(t.s.blink[h].Load())
		t.at(PTraverse)
		if t.s.brefs[carrier].Add(-1) == 0 {
			t.freeBatch(carrier)
		}
		h = next
	}
}

// DeRef implements mm.Thread: the era-validated load.  Publish the
// current era, load the link, and retry unless the era is unchanged —
// on success every node the thread can now hold has a birth era at or
// below the published access era, which is exactly the invariant the
// retire-side skip rule consumes.
func (t *Thread) DeRef(l mm.LinkID) mm.Ptr {
	sl := &t.s.slots[t.id]
	var steps uint64
	for {
		steps++
		e := t.s.era.Load()
		if sl.era.Load() != e {
			sl.era.Store(e)
		}
		t.at(PDeRefEra)
		p := t.s.ar.LoadLink(l)
		if t.s.era.Load() == e {
			t.stats.NoteDeRef(steps)
			return p
		}
	}
}

// Release implements mm.Thread (no-op: the slot reference guards
// everything until EndOp).
func (t *Thread) Release(arena.Handle) {}

// Copy implements mm.Thread (no-op).
func (t *Thread) Copy(arena.Handle) {}

// Alloc implements mm.Thread: pop a free node and stamp its birth era.
// On exhaustion it forces a dispatch of the accumulated batch (and
// adopts orphans) before retrying, bounded by the retry limit.
//
// When the allocating thread is inside an op, its published access era
// is raised to the node's birth era before the node is handed out.  The
// slot era was published at BeginOp, so it predates the birth of any
// node allocated mid-op; without the raise, a concurrent retirer whose
// batch contains the node would era-skip this very slot and free the
// node while its allocator still holds it (an inserter mid-publication,
// say).  DeRef maintains the same "slot era covers every held node"
// invariant for nodes obtained through links; this is the allocation
// side of it.
func (t *Thread) Alloc() (arena.Handle, error) {
	// On an empty free list push reclamation forward: our own batch may
	// dispatch (freeing immediately if no reader is active), and other
	// readers need CPU time to leave and drain their lists.
	h, steps := t.s.free.PopRetry(t.s.lim, func() { t.dispatchBatch() })
	t.stats.NoteAlloc(steps)
	if h == arena.Nil {
		return arena.Nil, ErrOutOfMemory
	}
	e := t.s.era.Load()
	sl := &t.s.slots[t.id]
	if sl.era.Load() < e {
		sl.era.Store(e)
	}
	t.s.birth[h].Store(e)
	t.s.outstanding.Add(1)
	return h, nil
}

// Retire implements mm.Thread: accumulate h into the thread's batch and
// dispatch once the batch is large enough.
func (t *Thread) Retire(h arena.Handle) { t.RetireBatch([]arena.Handle{h}) }

// RetireBatch implements the optional mm.BatchRetirer capability: the
// whole slice is retired as one batch (modulo the minimum-size rule).
func (t *Thread) RetireBatch(hs []arena.Handle) {
	for _, h := range hs {
		if h == arena.Nil {
			continue
		}
		t.stats.Retired++
		t.s.unreclaimed.Add(1)
		// Telemetry: Retire is this scheme's retire instant — the node
		// floats in the batch and then in slot lists until its counter
		// hits zero.
		t.s.NoteRetired(h)
		t.batch = append(t.batch, h)
	}
	if len(t.batch) >= t.s.threshold {
		t.dispatchBatch()
	}
}

// adoptLimbo folds orphaned retirements into this thread's batch.
func (t *Thread) adoptLimbo() { t.batch = t.s.limbo.AdoptInto(t.batch) }

// dispatchBatch attempts the global retire of the accumulated batch:
// tick the era clock, snapshot the active slots that could hold a batch
// member (skipping slots whose published access era predates the
// batch's oldest birth — they provably hold none, the robustness rule),
// insert one batch node into each such slot's retirement list, and
// adjust the batch reference counter by insertions minus the bias.
// Whoever brings the counter to zero — the adjustment itself when no
// reader holds a reference — frees the whole batch.
//
// Returns false when the batch is too small to cover the active slots
// plus the reference carrier; the caller keeps accumulating (the batch
// grows toward threads+1, which always suffices).
func (t *Thread) dispatchBatch() bool {
	t.adoptLimbo()
	if len(t.batch) == 0 {
		return true
	}
	minBirth := ^uint64(0)
	for _, h := range t.batch {
		if b := t.s.birth[h].Load(); b < minBirth {
			minBirth = b
		}
	}
	t.at(PRetireScan)
	var targets []int
	for i := range t.s.slots {
		v := t.s.slots[i].head.Load()
		if v>>32 == 0 {
			continue // inactive: its owner began after these nodes were unlinked
		}
		if t.s.slots[i].era.Load() < minBirth {
			continue // era skip: entered before any batch node was born
		}
		targets = append(targets, i)
	}
	if len(targets) > 0 && len(t.batch) < len(targets)+1 {
		return false
	}
	t.s.era.Add(1)
	t.stats.Scans++

	// Chain the batch and publish the carrier before any insertion makes
	// a member reachable from a slot list.
	carrier := t.batch[0]
	for idx, h := range t.batch {
		t.s.blink[h].Store(uint64(carrier))
		next := uint64(0)
		if idx+1 < len(t.batch) {
			next = uint64(t.batch[idx+1])
		}
		t.s.bnext[h].Store(next)
	}
	t.s.brefs[carrier].Store(refsBias)

	inserted := int64(0)
	next := 1 // batch[0] is the carrier; insert from batch[1:]
	for _, i := range targets {
		sl := &t.s.slots[i]
		nd := t.batch[next]
		for {
			v := sl.head.Load()
			if v>>32 == 0 {
				break // the reader left since the snapshot: skip safely
			}
			t.s.lnext[nd].Store(v & 0xffffffff)
			t.at(PInsert)
			if sl.head.CompareAndSwap(v, v>>32<<32|uint64(nd)) {
				inserted++
				next++
				break
			}
			t.stats.CASFailures++
		}
	}
	t.at(PAdjust)
	if t.s.brefs[carrier].Add(inserted-refsBias) == 0 {
		t.freeBatch(carrier)
	}
	t.batch = t.batch[:0]
	return true
}

// freeBatch reclaims every node of the batch whose carrier is c: scrub
// links, return to the free list.  Exactly one thread reaches a batch's
// zero count, so the chain walk is exclusive; each node's chain
// successor is read before the node is pushed (a pushed node's side
// state is immediately reusable).
func (t *Thread) freeBatch(c arena.Handle) {
	t.at(PFree)
	for h := c; h != arena.Nil; {
		nh := arena.Handle(t.s.bnext[h].Load())
		mm.ScrubLinks(t.s.ar, h)
		t.s.unreclaimed.Add(-1)
		t.s.outstanding.Add(-1)
		t.s.NoteReclaimed(h)
		t.stats.NoteFree(1)
		t.s.free.Push(h)
		h = nh
	}
}

// Flush implements the optional mm.Flusher capability: adopt orphans
// and dispatch the accumulated batch.  At quiescence (no slot active)
// the dispatch frees everything immediately, so a Flush-then-Audit
// sequence sees a fully reclaimed arena.
func (t *Thread) Flush() {
	t.dispatchBatch()
}

// Unregister implements mm.Thread: dispatch the remaining batch, or
// park it in limbo for other threads to adopt when active readers make
// the batch undispatchable, then release the slot.
func (t *Thread) Unregister() {
	if !t.dispatchBatch() {
		t.s.limbo.Park(t.batch)
		t.batch = t.batch[:0]
	}
	t.s.reg.Release(t.id)
}
