// Package epoch implements three-epoch quiescence-based reclamation
// (Fraser-style EBR), a modern baseline for the benchmark suite.
// Dereference is a plain load inside a pinned epoch, so per-read cost is
// minimal; the price is that one stalled thread blocks all reclamation —
// the progress property the paper's wait-free scheme is designed to avoid.
package epoch

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// ErrOutOfMemory is returned by Alloc when no node can be obtained even
// after attempted epoch advances.
var ErrOutOfMemory = errors.New("epoch: arena out of nodes")

// Config parameterizes the scheme.
type Config struct {
	// Threads is the maximum number of concurrently registered threads.
	Threads int
	// RetireThreshold is the per-bucket retire count that triggers an
	// epoch-advance attempt.  Zero selects a default.
	RetireThreshold int
	// AllocRetryLimit bounds the allocation loop.  Zero selects a default.
	AllocRetryLimit int
}

// Scheme is the epoch-based memory manager.  It implements mm.Scheme.
type Scheme struct {
	ar        *arena.Arena
	n         int
	threshold int
	lim       int

	epoch atomic.Uint64
	// pins[i] holds (observedEpoch<<1 | active) for thread i.
	pins []mm.PadU64

	free         mm.FreeStack
	reg          mm.Registry
	mm.Lifecycle // retire/reclaim telemetry (mm.LifecycleSource)

	// limbo is epoch-tagged, unlike the shared mm.Limbo: an orphan may be
	// freed only two epochs after it was parked.
	limboMu sync.Mutex
	limbo   []limboEntry
}

type limboEntry struct {
	epoch uint64
	h     arena.Handle
}

// New creates an epoch scheme over ar with all nodes free.
func New(ar *arena.Arena, cfg Config) (*Scheme, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("epoch: Threads must be positive, got %d", cfg.Threads)
	}
	threshold := cfg.RetireThreshold
	if threshold == 0 {
		threshold = 64
	}
	lim := cfg.AllocRetryLimit
	if lim == 0 {
		// Epoch reclamation retains every node retired in the last two
		// epochs, so transient exhaustion is common under load; the bound
		// is generous and each empty retry yields the processor.
		lim = 256*cfg.Threads + 1024
	}
	s := &Scheme{
		ar: ar, n: cfg.Threads, threshold: threshold, lim: lim,
		pins: make([]mm.PadU64, cfg.Threads),
	}
	// Start at epoch 2 so "retireEpoch+2 <= now" arithmetic never wraps
	// below zero in the limbo drain.
	s.epoch.Store(2)
	s.reg.Init("epoch", cfg.Threads)
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
func (s *Scheme) Name() string { return "epoch" }

// Arena implements mm.Scheme.
func (s *Scheme) Arena() *arena.Arena { return s.ar }

// Threads implements mm.Scheme.
func (s *Scheme) Threads() int { return s.n }

// Register implements mm.Scheme.
func (s *Scheme) Register() (mm.Thread, error) {
	id, err := s.reg.Acquire()
	if err != nil {
		return nil, err
	}
	t := &Thread{s: s, id: id, lastSeen: s.epoch.Load()}
	t.PlainLinks = mm.MakePlainLinks(s.ar, &t.stats)
	return t, nil
}

// tryAdvance increments the global epoch if every active thread has
// observed the current one.  Returns the (possibly advanced) epoch.
func (s *Scheme) tryAdvance() uint64 {
	e := s.epoch.Load()
	for i := 0; i < s.n; i++ {
		pin := s.pins[i].Load()
		if pin&1 == 1 && pin>>1 != e {
			return e // a straggler pins an older epoch
		}
	}
	s.epoch.CompareAndSwap(e, e+1)
	return s.epoch.Load()
}

// drainLimbo frees orphaned retirements that are two or more epochs old.
func (s *Scheme) drainLimbo(now uint64) {
	s.limboMu.Lock()
	kept := s.limbo[:0]
	var free []arena.Handle
	for _, le := range s.limbo {
		if le.epoch+2 <= now {
			free = append(free, le.h)
		} else {
			kept = append(kept, le)
		}
	}
	s.limbo = kept
	s.limboMu.Unlock()
	for _, h := range free {
		s.scrubAndFree(h)
	}
}

func (s *Scheme) scrubAndFree(h arena.Handle) {
	mm.ScrubLinks(s.ar, h)
	// Telemetry: every epoch-safe free funnels through here — the reclaim
	// edge of the retire→free lag.
	s.NoteReclaimed(h)
	s.free.Push(h)
}

// FreeNodes walks the free-list for tests; quiescence only.
func (s *Scheme) FreeNodes() map[arena.Handle]int { return s.free.Walk() }

// Thread is a per-goroutine context.  It implements mm.Thread.
type Thread struct {
	mm.PlainLinks // the epoch pin guards nodes, so links are plain
	s             *Scheme
	id            int
	stats         mm.OpStats
	lastSeen      uint64 // epoch whose bucket assignments are current
	retired       [3][]arena.Handle
}

// ID implements mm.Thread.
func (t *Thread) ID() int { return t.id }

// Stats implements mm.Thread.
func (t *Thread) Stats() *mm.OpStats { return &t.stats }

// BeginOp implements mm.Thread: pin the current epoch.
func (t *Thread) BeginOp() {
	for {
		e := t.s.epoch.Load()
		t.s.pins[t.id].Store(e<<1 | 1)
		// Re-check so the pinned epoch is the one concurrent advancers
		// see; a stale pin is safe but can stall reclamation.
		if t.s.epoch.Load() == e {
			t.observe(e)
			return
		}
	}
}

// EndOp implements mm.Thread: unpin.
func (t *Thread) EndOp() {
	t.s.pins[t.id].Store(0)
}

// observe frees buckets made safe by epoch progress since lastSeen.
func (t *Thread) observe(e uint64) {
	switch {
	case e == t.lastSeen:
		return
	case e >= t.lastSeen+3:
		// Everything this thread retired is at least two epochs old.
		for i := range t.retired {
			t.flushBucket(i)
		}
	default:
		for ep := t.lastSeen + 1; ep <= e; ep++ {
			t.flushBucket(int((ep + 1) % 3))
		}
	}
	t.lastSeen = e
}

func (t *Thread) flushBucket(i int) {
	if len(t.retired[i]) == 0 {
		return
	}
	t.stats.Scans++
	for _, h := range t.retired[i] {
		t.s.scrubAndFree(h)
	}
	t.retired[i] = t.retired[i][:0]
}

// DeRef implements mm.Thread: a plain load, valid only within a pinned
// epoch.
func (t *Thread) DeRef(l mm.LinkID) mm.Ptr {
	t.stats.NoteDeRef(1)
	return t.s.ar.LoadLink(l)
}

// Release implements mm.Thread (no-op: the epoch pin guards everything).
func (t *Thread) Release(arena.Handle) {}

// Copy implements mm.Thread (no-op).
func (t *Thread) Copy(arena.Handle) {}

// Alloc implements mm.Thread.
func (t *Thread) Alloc() (arena.Handle, error) {
	h, steps := t.s.free.PopRetry(t.s.lim, func() {
		// Free-list empty: push reclamation forward.  An advance can
		// require up to three epoch steps before our oldest bucket frees,
		// and other threads must get CPU time to unpin stale epochs.
		now := t.s.tryAdvance()
		t.observe(now)
		t.s.drainLimbo(now)
	})
	t.stats.NoteAlloc(steps)
	if h == arena.Nil {
		return arena.Nil, ErrOutOfMemory
	}
	return h, nil
}

// Retire implements mm.Thread.
func (t *Thread) Retire(h arena.Handle) {
	if h == arena.Nil {
		return
	}
	now := t.s.epoch.Load()
	t.observe(now)
	// Telemetry: Retire is this scheme's retire instant — the node floats
	// in its epoch bucket until two global advances prove it unreachable.
	t.s.NoteRetired(h)
	b := int(now % 3)
	t.retired[b] = append(t.retired[b], h)
	t.stats.Retired++
	if len(t.retired[b]) >= t.s.threshold {
		adv := t.s.tryAdvance()
		t.observe(adv)
		t.s.drainLimbo(adv)
	}
}

// Unregister implements mm.Thread: park unfreed retirements in the limbo
// list tagged with their retire epochs.
func (t *Thread) Unregister() {
	t.s.pins[t.id].Store(0)
	now := t.s.epoch.Load()
	t.s.limboMu.Lock()
	for i := range t.retired {
		for _, h := range t.retired[i] {
			// Conservative: treat every parked node as retired "now".
			t.s.limbo = append(t.s.limbo, limboEntry{epoch: now, h: h})
		}
		t.retired[i] = nil
	}
	t.s.limboMu.Unlock()
	t.s.reg.Release(t.id)
}
