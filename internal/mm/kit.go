package mm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/arena"
)

// The reclamation seam: what every scheme needs around its algorithm
// and none of them decides differently.  A scheme is its protect /
// retire / eject rules (Anderson–Blelloch–Wei, PAPERS.md); thread-slot
// registration, the free stack, lifecycle telemetry and the hand-off of
// retirements a departing thread could not finish are plumbing, and
// live here once.  Nothing in this file branches on its caller.
// DESIGN.md §5 ("Reclamation seam") maps each piece to the paper line
// it serves.

// PadU64 is a cache-line padded atomic word for contended global cells
// (free-list heads, announcement cells) so neighbours do not false-share.
type PadU64 struct {
	atomic.Uint64
	_ [7]uint64
}

// PadI64 is a cache-line padded atomic integer.
type PadI64 struct {
	atomic.Int64
	_ [7]uint64
}

// Registry hands out the NR_THREADS thread slots of one scheme.
type Registry struct {
	scheme string
	mu     sync.Mutex
	used   []bool
}

// Init sizes the registry for n slots; scheme prefixes its errors.
func (r *Registry) Init(scheme string, n int) {
	r.scheme, r.used = scheme, make([]bool, n)
}

// Acquire binds the lowest free slot, or reports that all are taken.
func (r *Registry) Acquire() (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, used := range r.used {
		if !used {
			r.used[id] = true
			return id, nil
		}
	}
	return -1, fmt.Errorf("%s: all %d thread slots in use", r.scheme, len(r.used))
}

// Release returns slot id; its thread must already have given up every
// per-slot resource, because the next Acquire may hand the slot out.
func (r *Registry) Release(id int) {
	r.mu.Lock()
	r.used[id] = false
	r.mu.Unlock()
}

// InUse reports whether slot id is currently bound to a thread.
func (r *Registry) InUse(id int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used[id]
}

// Lifecycle is the one LifecycleSource implementation: schemes embed it
// and call NoteRetired / NoteReclaimed at their own retire and free
// seams.  With no sink attached a note costs one atomic pointer load.
type Lifecycle struct {
	sink atomic.Pointer[LifecycleSink]
}

// SetLifecycleSink implements LifecycleSource.  A nil sink detaches.
func (l *Lifecycle) SetLifecycleSink(sink LifecycleSink) {
	if sink == nil {
		l.sink.Store(nil)
		return
	}
	l.sink.Store(&sink)
}

// NoteRetired forwards h's retire transition to the attached sink.
func (l *Lifecycle) NoteRetired(h Handle) {
	if sp := l.sink.Load(); sp != nil {
		(*sp).NoteRetired(h)
	}
}

// NoteReclaimed forwards h's reclaim transition to the attached sink.
func (l *Lifecycle) NoteReclaimed(h Handle) {
	if sp := l.sink.Load(); sp != nil {
		(*sp).NoteReclaimed(h)
	}
}

// ChainFree links all of ar's nodes through mm_next, 1 → 2 → … → Nodes
// → nil, as the paper initializes freeList[0], and returns the chain's
// first node (Nil for an empty arena).
func ChainFree(ar *arena.Arena) Handle {
	nodes := ar.Nodes()
	if nodes == 0 {
		return arena.Nil
	}
	for h := 1; h < nodes; h++ {
		ar.Next(Handle(h)).Store(uint64(h + 1))
	}
	ar.Next(Handle(nodes)).Store(0)
	return 1
}

// WalkFree follows mm_next from each head and returns every node met
// with its multiplicity.  Quiescence only; a node met more than Nodes
// times ends that list's walk (a corrupted, cyclic list would otherwise
// never end).
func WalkFree(ar *arena.Arena, heads ...Handle) map[Handle]int {
	free := make(map[Handle]int)
	for _, head := range heads {
		for h := head; h != arena.Nil; h = Handle(ar.Next(h).Load()) {
			free[h]++
			if free[h] > ar.Nodes() {
				break
			}
		}
	}
	return free
}

// ScrubLinks nils every link cell of h, so a recycled node cannot leak
// stale links into its next owner.
func ScrubLinks(ar *arena.Arena, h Handle) {
	ar.LinkRange(h, func(id LinkID) { ar.StoreLink(id, arena.NilPtr) })
}

// FreeStack is a Treiber stack of free nodes threaded through mm_next.
// The head word packs the top handle (low 32 bits) with an ABA tag
// (high 32 bits) bumped on every update: schemes that protect readers
// (hazards, epochs, eras) do not protect the allocator's own pop/push
// race, so the tag has to.
type FreeStack struct {
	ar   *arena.Arena
	head atomic.Uint64
}

// Init puts all of ar's nodes on the stack.
func (f *FreeStack) Init(ar *arena.Arena) {
	f.ar = ar
	f.head.Store(uint64(ChainFree(ar)))
}

// Pop removes the top node, or returns Nil when the stack is empty.
func (f *FreeStack) Pop() Handle {
	for {
		v := f.head.Load()
		h := Handle(v & 0xffffffff)
		if h == arena.Nil {
			return arena.Nil
		}
		next := f.ar.Next(h).Load() & 0xffffffff
		tag := v>>32 + 1
		if f.head.CompareAndSwap(v, next|tag<<32) {
			return h
		}
	}
}

// Push returns h to the stack.
func (f *FreeStack) Push(h Handle) {
	for {
		v := f.head.Load()
		f.ar.Next(h).Store(v & 0xffffffff)
		tag := v>>32 + 1
		if f.head.CompareAndSwap(v, uint64(h)|tag<<32) {
			return
		}
	}
}

// Walk returns every node on the stack with its multiplicity;
// quiescence only.
func (f *FreeStack) Walk() map[Handle]int {
	return WalkFree(f.ar, Handle(f.head.Load()&0xffffffff))
}

// waitForPeers cedes the CPU long enough for a descheduled peer to run.
// A wait that only yields takes ~no time when the other runnable
// goroutines sit on another P, so a retry budget counted in yields alone
// can elapse inside one OS time slice of the thread whose pin, hazard,
// retire list or ZCT holds the memory; a sleep cannot be skipped
// and hands that thread the CPU.
func waitForPeers() { time.Sleep(50 * time.Microsecond) }

// PopRetry is the paper's footnote-4 exhaustion rule for schemes whose
// retired nodes float outside the free stack: pop, and on an empty stack
// run the caller's reclaim step, back off, and try again, at most lim
// times.  It returns the node (Nil once the budget is spent, which the
// caller reports as out of memory) and the tries used.
func (f *FreeStack) PopRetry(lim int, reclaim func()) (Handle, uint64) {
	for steps := uint64(1); steps <= uint64(lim); steps++ {
		if h := f.Pop(); h != arena.Nil {
			return h, steps
		}
		reclaim()
		if steps%16 == 0 {
			waitForPeers()
		} else {
			runtime.Gosched()
		}
	}
	return arena.Nil, uint64(lim) + 1
}

// Limbo holds retirements orphaned by Unregister — nodes their thread
// retired but could not yet free — until a surviving thread adopts them
// into its own retire list.
type Limbo struct {
	mu sync.Mutex
	hs []Handle
	n  atomic.Int64 // mirrors len(hs) so AdoptInto and Len skip the lock
}

// Park hands hs over to whichever thread adopts next.
func (l *Limbo) Park(hs []Handle) {
	if len(hs) == 0 {
		return
	}
	l.mu.Lock()
	l.hs = append(l.hs, hs...)
	l.n.Store(int64(len(l.hs)))
	l.mu.Unlock()
}

// AdoptInto moves every parked handle onto dst and returns it.  The
// common empty case is one atomic load.
func (l *Limbo) AdoptInto(dst []Handle) []Handle {
	if l.n.Load() == 0 {
		return dst
	}
	l.mu.Lock()
	dst = append(dst, l.hs...)
	l.hs = l.hs[:0]
	l.n.Store(0)
	l.mu.Unlock()
	return dst
}

// Len returns the number of parked handles.
func (l *Limbo) Len() int { return int(l.n.Load()) }

// PlainLinks implements the link third of Thread (Load, CASLink,
// StoreLink) for schemes whose links carry no obligation — protection
// lives in hazards, pins or eras, so a link update is the bare arena
// operation.  Schemes embed it in their Thread.
type PlainLinks struct {
	ar    *arena.Arena
	fails *uint64 // the embedding thread's OpStats.CASFailures
}

// MakePlainLinks returns plain link operations on ar that count failed
// CASes into stats.
func MakePlainLinks(ar *arena.Arena, stats *OpStats) PlainLinks {
	return PlainLinks{ar: ar, fails: &stats.CASFailures}
}

// Load implements Thread.
func (p *PlainLinks) Load(l LinkID) Ptr { return p.ar.LoadLink(l) }

// CASLink implements Thread: a plain CAS.
func (p *PlainLinks) CASLink(l LinkID, old, new Ptr) bool {
	if p.ar.CASLinkRaw(l, old, new) {
		return true
	}
	*p.fails++
	return false
}

// StoreLink implements Thread.
func (p *PlainLinks) StoreLink(l LinkID, v Ptr) { p.ar.StoreLink(l, v) }
