// Package lockrc implements reference counting protected by a single
// global mutex — the blocking strawman the paper's introduction argues
// against (subject to convoying, priority inversion and unbounded
// worst-case latency).  It exists as the benchmark floor for experiments
// E1/E4/E6.
package lockrc

import (
	"errors"
	"fmt"
	"sync"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// ErrOutOfMemory is returned by Alloc when the free-list is empty.
var ErrOutOfMemory = errors.New("lockrc: arena out of nodes")

// Config parameterizes the scheme.
type Config struct {
	// Threads is the maximum number of concurrently registered threads.
	Threads int
}

// Scheme is the lock-based reference-counting baseline.  It implements
// mm.Scheme.
type Scheme struct {
	ar *arena.Arena
	n  int

	mu   sync.Mutex
	free arena.Handle // free-list head, guarded by mu

	reg          mm.Registry
	mm.Lifecycle // retire/reclaim telemetry (mm.LifecycleSource)
}

// New creates a lock-based scheme over ar with all nodes free.
func New(ar *arena.Arena, cfg Config) (*Scheme, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("lockrc: Threads must be positive, got %d", cfg.Threads)
	}
	s := &Scheme{ar: ar, n: cfg.Threads, free: mm.ChainFree(ar)}
	s.reg.Init("lockrc", cfg.Threads)
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
func (s *Scheme) Name() string { return "lock-rc" }

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
	return &Thread{s: s, id: id}, nil
}

// FreeNodes walks the free-list for auditing; quiescence only.
func (s *Scheme) FreeNodes() map[arena.Handle]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mm.WalkFree(s.ar, s.free)
}

// Audit verifies the reference-counting invariants at quiescence.
func (s *Scheme) Audit(extraRefs map[arena.Handle]int) []error {
	return s.ar.AuditRC(s.FreeNodes(), extraRefs)
}

// Thread is a per-goroutine context.  It implements mm.Thread.
type Thread struct {
	s     *Scheme
	id    int
	stats mm.OpStats
}

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

// DeRef implements mm.Thread: under the global lock the read-increment
// pair is trivially atomic.
func (t *Thread) DeRef(l mm.LinkID) mm.Ptr {
	t.s.mu.Lock()
	p := t.s.ar.LoadLink(l)
	if p.Handle() != arena.Nil {
		t.s.ar.Ref(p.Handle()).Add(2)
	}
	t.s.mu.Unlock()
	t.stats.NoteDeRef(1)
	return p
}

// Release implements mm.Thread.
func (t *Thread) Release(h arena.Handle) {
	if h == arena.Nil {
		return
	}
	t.s.mu.Lock()
	t.releaseLocked(h)
	t.s.mu.Unlock()
}

func (t *Thread) releaseLocked(h arena.Handle) {
	ar := t.s.ar
	stack := []arena.Handle{h}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ref := ar.Ref(n)
		if ref.Add(-2) == 0 {
			ref.Store(1)
			// Telemetry: under the global lock retire and reclaim are
			// adjacent; the near-zero lag is this scheme's baseline.
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
			t.s.NoteReclaimed(n)
			ar.Next(n).Store(uint64(t.s.free))
			t.s.free = n
			t.stats.NoteFree(1)
		}
	}
}

// Copy implements mm.Thread.
func (t *Thread) Copy(h arena.Handle) {
	t.s.mu.Lock()
	t.s.ar.Ref(h).Add(2)
	t.s.mu.Unlock()
}

// Alloc implements mm.Thread.
func (t *Thread) Alloc() (arena.Handle, error) {
	t.s.mu.Lock()
	h := t.s.free
	if h == arena.Nil {
		t.s.mu.Unlock()
		t.stats.NoteAlloc(1)
		return arena.Nil, ErrOutOfMemory
	}
	t.s.free = arena.Handle(t.s.ar.Next(h).Load())
	t.s.ar.Ref(h).Store(2)
	t.s.mu.Unlock()
	t.stats.NoteAlloc(1)
	return h, nil
}

// Load implements mm.Thread.
func (t *Thread) Load(l mm.LinkID) mm.Ptr { return t.s.ar.LoadLink(l) }

// CASLink implements mm.Thread.
func (t *Thread) CASLink(l mm.LinkID, old, new mm.Ptr) bool {
	t.s.mu.Lock()
	if t.s.ar.LoadLink(l) != old {
		t.s.mu.Unlock()
		t.stats.CASFailures++
		return false
	}
	t.s.ar.StoreLink(l, new)
	if h := new.Handle(); h != arena.Nil {
		t.s.ar.Ref(h).Add(2)
	}
	if h := old.Handle(); h != arena.Nil {
		t.releaseLocked(h)
	}
	t.s.mu.Unlock()
	return true
}

// StoreLink implements mm.Thread.
func (t *Thread) StoreLink(l mm.LinkID, p mm.Ptr) {
	t.s.mu.Lock()
	if h := p.Handle(); h != arena.Nil {
		t.s.ar.Ref(h).Add(2)
	}
	t.s.ar.StoreLink(l, p)
	t.s.mu.Unlock()
}
