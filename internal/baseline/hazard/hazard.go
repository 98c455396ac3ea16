// Package hazard implements Michael's hazard-pointer safe memory
// reclamation (PODC 2002 / TPDS 2004), one of the related-work schemes
// the paper positions itself against: it guarantees only a fixed number
// of protected references per thread, whereas reference counting admits
// an arbitrary number of references including from within the structure.
//
// It is included as a benchmark baseline and to demonstrate that the
// internal/ds data structures are written against the scheme-neutral
// mm interface.
package hazard

import (
	"errors"
	"fmt"
	"sync/atomic"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// ErrOutOfMemory is returned by Alloc when no node can be obtained even
// after reclamation scans.
var ErrOutOfMemory = errors.New("hazard: arena out of nodes")

// Config parameterizes the scheme.
type Config struct {
	// Threads is the maximum number of concurrently registered threads.
	Threads int
	// SlotsPerThread is K, the number of hazard pointers per thread.
	// The data structures in this repository need at most 6 simultaneous
	// protections; the default is 8.
	SlotsPerThread int
	// RetireThreshold is the retire-list length that triggers a scan.
	// Zero selects 2*K*Threads, Michael's recommendation.
	RetireThreshold int
	// AllocRetryLimit bounds the allocation loop. Zero selects a default.
	AllocRetryLimit int
}

// Scheme is the hazard-pointer memory manager.  It implements mm.Scheme.
type Scheme struct {
	ar        *arena.Arena
	n, k      int
	threshold int
	lim       int

	hp []mm.PadU64 // n*k hazard cells holding raw Handles

	free         mm.FreeStack
	reg          mm.Registry
	limbo        mm.Limbo // retirements orphaned by Unregister
	mm.Lifecycle          // retire/reclaim telemetry (mm.LifecycleSource)
}

// New creates a hazard-pointer scheme over ar with all nodes free.
func New(ar *arena.Arena, cfg Config) (*Scheme, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("hazard: Threads must be positive, got %d", cfg.Threads)
	}
	k := cfg.SlotsPerThread
	if k == 0 {
		k = 8
	}
	if k < 0 {
		return nil, fmt.Errorf("hazard: negative SlotsPerThread %d", k)
	}
	threshold := cfg.RetireThreshold
	if threshold == 0 {
		threshold = 2 * k * cfg.Threads
	}
	lim := cfg.AllocRetryLimit
	if lim == 0 {
		lim = 64*cfg.Threads + 256
	}
	s := &Scheme{
		ar: ar, n: cfg.Threads, k: k, threshold: threshold, lim: lim,
		hp: make([]mm.PadU64, cfg.Threads*k),
	}
	s.reg.Init("hazard", cfg.Threads)
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
func (s *Scheme) Name() string { return "hazard" }

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
	t := &Thread{
		s:       s,
		id:      id,
		held:    make([]arena.Handle, s.k),
		retired: make([]arena.Handle, 0, s.threshold+s.k),
	}
	t.PlainLinks = mm.MakePlainLinks(s.ar, &t.stats)
	return t, nil
}

// FreeNodes walks the free-list for tests; quiescence only.
func (s *Scheme) FreeNodes() map[arena.Handle]int { return s.free.Walk() }

// Thread is a per-goroutine context.  It implements mm.Thread.
type Thread struct {
	mm.PlainLinks // hazard pointers have no per-link obligations
	s             *Scheme
	id            int
	stats         mm.OpStats
	held          []arena.Handle // held[i] is the handle slot i protects (0 free)
	retired       []arena.Handle
}

// ID implements mm.Thread.
func (t *Thread) ID() int { return t.id }

// Stats implements mm.Thread.
func (t *Thread) Stats() *mm.OpStats { return &t.stats }

// BeginOp implements mm.Thread (no-op).
func (t *Thread) BeginOp() {}

// EndOp implements mm.Thread (no-op).
func (t *Thread) EndOp() {}

func (t *Thread) slot(i int) *atomic.Uint64 { return &t.s.hp[t.id*t.s.k+i].Uint64 }

func (t *Thread) claim(h arena.Handle) int {
	for i, held := range t.held {
		if held == arena.Nil {
			t.slot(i).Store(uint64(h))
			t.held[i] = h
			return i
		}
	}
	panic(fmt.Sprintf("hazard: thread %d exceeded %d hazard slots", t.id, t.s.k))
}

// DeRef implements mm.Thread: publish a hazard pointer and re-validate
// the link (Michael's protocol).  Lock-free, not wait-free.
func (t *Thread) DeRef(l mm.LinkID) mm.Ptr {
	var steps uint64
	i := -1
	for {
		steps++
		p := t.s.ar.LoadLink(l)
		h := p.Handle()
		if h == arena.Nil {
			if i >= 0 {
				t.slot(i).Store(0)
				t.held[i] = arena.Nil
			}
			t.stats.NoteDeRef(steps)
			return p
		}
		if i < 0 {
			i = t.claim(h)
		} else {
			t.slot(i).Store(uint64(h))
			t.held[i] = h
		}
		if t.s.ar.LoadLink(l) == p {
			t.stats.NoteDeRef(steps)
			return p
		}
	}
}

// Release implements mm.Thread: clear the hazard slot protecting h.
func (t *Thread) Release(h arena.Handle) {
	if h == arena.Nil {
		return
	}
	for i, held := range t.held {
		if held == h {
			t.slot(i).Store(0)
			t.held[i] = arena.Nil
			return
		}
	}
	panic(fmt.Sprintf("hazard: thread %d released unprotected node %d", t.id, h))
}

// Copy implements mm.Thread: protect h with an additional slot.  The
// existing protection makes re-validation unnecessary.
func (t *Thread) Copy(h arena.Handle) { t.claim(h) }

// Alloc implements mm.Thread.  The fresh node is protected by a hazard
// slot so the uniform Alloc/publish/Release pattern of the refcounting
// user model works unchanged.
func (t *Thread) Alloc() (arena.Handle, error) {
	h, steps := t.s.free.PopRetry(t.s.lim, func() {
		// Free-list empty: reclaim our own retirements and any orphans,
		// and let other threads run so their hazards clear.
		t.adoptLimbo()
		t.scan()
	})
	t.stats.NoteAlloc(steps)
	if h == arena.Nil {
		return arena.Nil, ErrOutOfMemory
	}
	t.claim(h)
	return h, nil
}

// Retire implements mm.Thread: the node is queued until no hazard
// pointer protects it.
func (t *Thread) Retire(h arena.Handle) {
	if h == arena.Nil {
		return
	}
	// Telemetry: Retire is this scheme's retire instant — the node floats
	// on the retire list until a scan proves no hazard protects it.
	t.s.NoteRetired(h)
	t.retired = append(t.retired, h)
	t.stats.Retired++
	if len(t.retired) >= t.s.threshold {
		t.scan()
	}
}

// scan frees every retired node no hazard pointer protects (Michael's
// Scan).  Cost is O(#hp + #retired); amortized constant per retire.
func (t *Thread) scan() {
	t.stats.Scans++
	protected := make(map[arena.Handle]struct{}, len(t.s.hp))
	for i := range t.s.hp {
		if h := arena.Handle(t.s.hp[i].Load()); h != arena.Nil {
			protected[h] = struct{}{}
		}
	}
	kept := t.retired[:0]
	for _, h := range t.retired {
		if _, ok := protected[h]; ok {
			kept = append(kept, h)
			continue
		}
		// Scrub the node before reuse so stale links cannot leak into the
		// next owner.
		mm.ScrubLinks(t.s.ar, h)
		t.s.NoteReclaimed(h)
		t.s.free.Push(h)
	}
	t.retired = kept
}

// adoptLimbo takes over retirements orphaned by unregistered threads.
func (t *Thread) adoptLimbo() { t.retired = t.s.limbo.AdoptInto(t.retired) }

// Unregister implements mm.Thread: clear this thread's hazard slots,
// reclaim what it can, and park the rest in the scheme-wide limbo list
// for other threads to adopt.
func (t *Thread) Unregister() {
	for i := range t.held {
		t.slot(i).Store(0)
		t.held[i] = arena.Nil
	}
	t.scan()
	t.s.limbo.Park(t.retired)
	t.retired = nil
	t.s.reg.Release(t.id)
}
