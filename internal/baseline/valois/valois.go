// Package valois implements the lock-free reference-counting memory
// management of Valois (PhD thesis, 1995) with the corrections of
// Michael and Scott (TR 1995): the "default lock-free memory management
// scheme" that the paper's evaluation compares the wait-free scheme
// against.
//
// DeRef optimistically increments the target's reference count and
// re-validates the link afterwards; if the link changed, the increment is
// rolled back and the whole dereference retried.  The number of retries
// is unbounded (the scheme is lock-free, not wait-free) — exactly the gap
// the wait-free scheme closes, and the quantity experiment E2 measures.
//
// Allocation uses a single shared free-list head updated by CAS, with the
// reference count guarding mm_next from the remove-reinsert (ABA) hazard
// as described in the paper's §3.1 discussion of Valois's approach.
package valois

import (
	"errors"
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// ErrOutOfMemory is returned by Alloc when the retry bound concludes the
// arena is exhausted.
var ErrOutOfMemory = errors.New("valois: arena out of nodes")

// Config parameterizes the scheme.
type Config struct {
	// Threads is the maximum number of concurrently registered threads.
	Threads int
	// AllocRetryLimit bounds the allocation loop before Alloc reports
	// out-of-memory.  Zero selects a default.
	AllocRetryLimit int
}

// Scheme is the lock-free reference-counting baseline.  It implements
// mm.Scheme.
type Scheme struct {
	ar  *arena.Arena
	n   int
	lim int

	head mm.PadU64 // single free-list head holding a raw Handle

	reg          mm.Registry
	mm.Lifecycle // retire/reclaim telemetry (mm.LifecycleSource)
}

// New creates a Valois-style scheme over ar, chaining all nodes onto the
// single free-list.
func New(ar *arena.Arena, cfg Config) (*Scheme, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("valois: Threads must be positive, got %d", cfg.Threads)
	}
	lim := cfg.AllocRetryLimit
	if lim == 0 {
		lim = 16*cfg.Threads*cfg.Threads + 64*cfg.Threads + 256
	}
	s := &Scheme{ar: ar, n: cfg.Threads, lim: lim}
	s.reg.Init("valois", cfg.Threads)
	s.head.Store(uint64(mm.ChainFree(ar)))
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
func (s *Scheme) Name() string { return "valois-rc" }

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
	return &Thread{s: s, id: id, relStack: make([]arena.Handle, 0, 64)}, nil
}

// FreeNodes walks the free-list for auditing; quiescence only.
func (s *Scheme) FreeNodes() map[arena.Handle]int {
	return mm.WalkFree(s.ar, arena.Handle(s.head.Load()))
}

// Audit verifies the reference-counting invariants at quiescence.
func (s *Scheme) Audit(extraRefs map[arena.Handle]int) []error {
	return s.ar.AuditRC(s.FreeNodes(), extraRefs)
}

// Thread is a per-goroutine context.  It implements mm.Thread.
type Thread struct {
	s        *Scheme
	id       int
	stats    mm.OpStats
	relStack []arena.Handle
	hook     func() // test/experiment-only; see SetHook
}

// SetHook installs a callback invoked inside DeRef between the
// optimistic reference-count increment and the link revalidation — the
// window where a preemption plus a concurrent link update forces a
// retry.  Tests and the E2 experiment use it to drive the adversarial
// schedule deterministically; production code leaves it nil.
func (t *Thread) SetHook(h func()) { t.hook = h }

// ID implements mm.Thread.
func (t *Thread) ID() int { return t.id }

// Stats implements mm.Thread.
func (t *Thread) Stats() *mm.OpStats { return &t.stats }

// Unregister implements mm.Thread.
func (t *Thread) Unregister() { t.s.reg.Release(t.id) }

// BeginOp implements mm.Thread (no-op).
func (t *Thread) BeginOp() {}

// EndOp implements mm.Thread (no-op).
func (t *Thread) EndOp() {}

// Retire implements mm.Thread (no-op: reference counting reclaims).
func (t *Thread) Retire(arena.Handle) {}

// DeRef implements mm.Thread: Valois's optimistic increment-and-validate
// loop.  Unbounded under contention.
func (t *Thread) DeRef(l mm.LinkID) mm.Ptr {
	var steps uint64
	for {
		steps++
		p := t.s.ar.LoadLink(l)
		if p.Handle() == arena.Nil {
			t.stats.NoteDeRef(steps)
			return p
		}
		t.s.ar.Ref(p.Handle()).Add(2)
		if t.hook != nil {
			t.hook()
		}
		if t.s.ar.LoadLink(l) == p {
			t.stats.NoteDeRef(steps)
			return p
		}
		// Link moved underneath us: roll back and retry.
		t.release(p.Handle())
	}
}

// Release implements mm.Thread.
func (t *Thread) Release(h arena.Handle) { t.release(h) }

// Copy implements mm.Thread.
func (t *Thread) Copy(h arena.Handle) { t.s.ar.Ref(h).Add(2) }

func (t *Thread) release(h arena.Handle) {
	if h == arena.Nil {
		return
	}
	ar := t.s.ar
	stack := t.relStack[:0]
	stack = append(stack, h)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ref := ar.Ref(n)
		ref.Add(-2)
		if ref.Load() == 0 && ref.CompareAndSwap(0, 1) {
			// Telemetry: the election win is this scheme's retire instant.
			t.s.NoteRetired(n)
			ar.LinkRange(n, func(id mm.LinkID) {
				p := ar.LoadLink(id)
				if p != arena.NilPtr {
					ar.StoreLink(id, arena.NilPtr)
					if p.Handle() != arena.Nil {
						stack = append(stack, p.Handle())
					}
				}
			})
			t.freeNode(n)
		}
	}
	t.relStack = stack[:0]
}

// Alloc implements mm.Thread: pop from the single shared free-list, with
// the reference count freezing mm_next across the head CAS.
func (t *Thread) Alloc() (arena.Handle, error) {
	s := t.s
	var steps uint64
	for {
		steps++
		if steps > uint64(s.lim) {
			t.stats.NoteAlloc(steps)
			return arena.Nil, ErrOutOfMemory
		}
		h := arena.Handle(s.head.Load())
		if h == arena.Nil {
			// Single list: emptiness is either exhaustion or a transient
			// state while other threads hold nodes mid-free; retry up to
			// the bound.
			continue
		}
		s.ar.Ref(h).Add(2)
		next := s.ar.Next(h).Load()
		if s.head.CompareAndSwap(uint64(h), next) {
			t.stats.NoteAlloc(steps)
			s.ar.Ref(h).Add(-1)
			return h, nil
		}
		t.stats.CASFailures++
		t.release(h)
	}
}

func (t *Thread) freeNode(h arena.Handle) {
	s := t.s
	// Telemetry: h's memory returns to the free-list here — the reclaim
	// edge of the retire→free lag.
	s.NoteReclaimed(h)
	var steps uint64
	for {
		steps++
		old := s.head.Load()
		s.ar.Next(h).Store(old)
		if s.head.CompareAndSwap(old, uint64(h)) {
			t.stats.NoteFree(steps)
			return
		}
		t.stats.CASFailures++
	}
}

// Load implements mm.Thread.
func (t *Thread) Load(l mm.LinkID) mm.Ptr { return t.s.ar.LoadLink(l) }

// CASLink implements mm.Thread: plain CAS plus reference transfer; no
// helping obligation in this scheme.
func (t *Thread) CASLink(l mm.LinkID, old, new mm.Ptr) bool {
	if h := new.Handle(); h != arena.Nil {
		t.s.ar.Ref(h).Add(2)
	}
	if t.s.ar.CASLinkRaw(l, old, new) {
		if h := old.Handle(); h != arena.Nil {
			t.release(h)
		}
		return true
	}
	t.stats.CASFailures++
	if h := new.Handle(); h != arena.Nil {
		t.release(h)
	}
	return false
}

// StoreLink implements mm.Thread.
func (t *Thread) StoreLink(l mm.LinkID, p mm.Ptr) {
	if h := p.Handle(); h != arena.Nil {
		t.s.ar.Ref(h).Add(2)
	}
	t.s.ar.StoreLink(l, p)
}
