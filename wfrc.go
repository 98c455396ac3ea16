// Package wfrc is a Go implementation of the wait-free reference
// counting and memory management scheme of Sundell (IPPS 2005,
// Chalmers TR 2004-10), together with the baselines it is evaluated
// against and lock-free data structures built on the scheme-neutral
// memory-management interface.
//
// # Model
//
// All managed memory lives in a preallocated Arena of fixed-size nodes;
// a node is identified by a Handle and holds link cells (mutable
// pointers to other nodes), value words and the scheme's bookkeeping
// fields (mm_ref, mm_next).  The arena satisfies the paper's assumption
// that a reclaimed node's reference-count field stays accessible forever.
//
// A memory-management Scheme decides when nodes are reclaimed.  Each
// goroutine registers with the scheme, obtaining a Thread context with a
// fixed slot id, and performs all operations through it:
//
//	ar := wfrc.MustNewArena(wfrc.ArenaConfig{Nodes: 1 << 16, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 8})
//	s := wfrc.MustNewWaitFree(ar, wfrc.SchemeConfig{Threads: 8})
//	t, _ := s.Register()
//	defer t.Unregister()
//
//	h, _ := t.Alloc()                   // one guarded reference
//	root := ar.NewRoot()                // a root link cell
//	t.StoreLink(root, wfrc.MakePtr(h, false))
//	t.Release(h)
//
//	p := t.DeRef(root)                  // guarded dereference
//	// ... use p.Handle() ...
//	t.Release(p.Handle())
//
// The same Thread interface is implemented by the wait-free scheme and
// by four baselines (Valois-style lock-free reference counting, hazard
// pointers, epoch-based reclamation and a lock-based scheme), so data
// structures written against it — the provided Stack, Queue, List and
// PQueue — run unchanged over every scheme.
//
// # Wait-freedom
//
// On the wait-free scheme every operation (DeRef, Release, CASLink,
// Alloc, the internal free) completes in a bounded number of its own
// steps regardless of what other threads do, which is the property
// real-time systems need.  See DESIGN.md §4 for the test or benchmark
// that holds each of the paper's claims, and benchmark/README.md for
// how the repository is measured.
package wfrc

import (
	"wfrc/internal/arena"
	"wfrc/internal/baseline/epoch"
	"wfrc/internal/baseline/hazard"
	"wfrc/internal/baseline/lockrc"
	"wfrc/internal/baseline/valois"
	"wfrc/internal/core"
	"wfrc/internal/ds/hashmap"
	"wfrc/internal/ds/list"
	"wfrc/internal/ds/pqueue"
	"wfrc/internal/ds/queue"
	"wfrc/internal/ds/stack"
	"wfrc/internal/mm"
	"wfrc/internal/universal"
)

// Handle identifies a node in an Arena; 0 is the nil node.
type Handle = arena.Handle

// Nil is the zero Handle.
const Nil = arena.Nil

// Ptr is a link-cell value: a Handle plus a deletion mark.
type Ptr = arena.Ptr

// NilPtr is the nil-handle, unmarked Ptr.
const NilPtr = arena.NilPtr

// MakePtr builds a Ptr from a handle and mark.
func MakePtr(h Handle, marked bool) Ptr { return arena.MakePtr(h, marked) }

// LinkID identifies a link cell.
type LinkID = arena.LinkID

// Arena is the fixed, type-stable node pool all schemes manage.
type Arena = arena.Arena

// ArenaConfig sizes an Arena.
type ArenaConfig = arena.Config

// NewArena creates an arena.
func NewArena(cfg ArenaConfig) (*Arena, error) { return arena.New(cfg) }

// MustNewArena is NewArena but panics on error.
func MustNewArena(cfg ArenaConfig) *Arena { return arena.MustNew(cfg) }

// Scheme is a memory-management scheme bound to an arena.
type Scheme = mm.Scheme

// Thread is a per-goroutine context for memory-management operations.
type Thread = mm.Thread

// OpStats counts the primitive work a thread performed.
type OpStats = mm.OpStats

// SchemeConfig parameterizes scheme construction.
type SchemeConfig struct {
	// Threads is the maximum number of concurrently registered threads
	// (the paper's NR_THREADS).
	Threads int
	// AllocRetryLimit overrides the out-of-memory detection bound where
	// the scheme has one (0 keeps the default).
	AllocRetryLimit int
	// HazardSlots sets hazard pointers per thread for NewHazard (0 keeps
	// the default of 8).
	HazardSlots int
	// Deferred selects the wait-free scheme's deferred variant
	// ("waitfree-deferred"): dereference guards go through a per-thread
	// pin table instead of the two shared fetch-and-adds of the
	// DeRef/Release hot path, and a node whose count reaches zero waits
	// in a per-thread zero-count table (ZCT) until a drain finds no pin
	// on it.
	Deferred bool
}

// NewWaitFree creates the paper's wait-free reference-counting scheme
// (or its deferred-decrement variant when cfg.Deferred is set).
func NewWaitFree(ar *Arena, cfg SchemeConfig) (Scheme, error) {
	return core.New(ar, core.Config{
		Threads:         cfg.Threads,
		AllocRetryLimit: cfg.AllocRetryLimit,
		Deferred:        cfg.Deferred,
	})
}

// MustNewWaitFree is NewWaitFree but panics on error.
func MustNewWaitFree(ar *Arena, cfg SchemeConfig) Scheme {
	s, err := NewWaitFree(ar, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// NewValois creates the lock-free reference-counting baseline
// (Valois / Michael–Scott).
func NewValois(ar *Arena, cfg SchemeConfig) (Scheme, error) {
	return valois.New(ar, valois.Config{Threads: cfg.Threads, AllocRetryLimit: cfg.AllocRetryLimit})
}

// NewHazard creates the hazard-pointer baseline (Michael).
func NewHazard(ar *Arena, cfg SchemeConfig) (Scheme, error) {
	return hazard.New(ar, hazard.Config{
		Threads:         cfg.Threads,
		SlotsPerThread:  cfg.HazardSlots,
		AllocRetryLimit: cfg.AllocRetryLimit,
	})
}

// NewEpoch creates the epoch-based-reclamation baseline.
func NewEpoch(ar *Arena, cfg SchemeConfig) (Scheme, error) {
	return epoch.New(ar, epoch.Config{Threads: cfg.Threads, AllocRetryLimit: cfg.AllocRetryLimit})
}

// NewLockRC creates the mutex-protected reference-counting strawman.
func NewLockRC(ar *Arena, cfg SchemeConfig) (Scheme, error) {
	return lockrc.New(ar, lockrc.Config{Threads: cfg.Threads})
}

// Stack is a lock-free Treiber stack of uint64 values.
type Stack = stack.Stack

// NewStack creates a stack on s; the arena needs ≥1 link and ≥1 value
// word per node.
func NewStack(s Scheme) (*Stack, error) { return stack.New(s) }

// Queue is a lock-free Michael–Scott FIFO queue of uint64 values.
type Queue = queue.Queue

// NewQueue creates a queue on s, allocating its dummy node with t; the
// arena needs ≥1 link and ≥1 value word per node.
func NewQueue(s Scheme, t Thread) (*Queue, error) { return queue.New(s, t) }

// List is a lock-free Harris–Michael sorted map from uint64 to uint64.
type List = list.List

// NewList creates a list on s; the arena needs ≥1 link and ≥2 value
// words per node.
func NewList(s Scheme) (*List, error) { return list.New(s) }

// PQueue is a lock-free skiplist min-priority queue.
type PQueue = pqueue.PQueue

// PQueueConfig parameterizes a PQueue.
type PQueueConfig = pqueue.Config

// NewPQueue creates a priority queue on s; the arena needs ≥MaxLevel
// links and ≥3 value words per node, and with hazard-pointer management
// each thread needs about 2·MaxLevel+8 hazard slots.
func NewPQueue(s Scheme, cfg PQueueConfig) (*PQueue, error) { return pqueue.New(s, cfg) }

// HashMap is a lock-free fixed-size hash index from uint64 to uint64; its
// buckets are one contiguous range of the arena's root links.
type HashMap = hashmap.Map

// HashMapConfig parameterizes a HashMap.
type HashMapConfig = hashmap.Config

// NewHashMap creates a hash map on s; the arena needs ≥1 link and ≥2
// value words per node and at least Buckets root links.
func NewHashMap(s Scheme, cfg HashMapConfig) (*HashMap, error) { return hashmap.New(s, cfg) }

// Universal is a wait-free linearizable shared object built with
// Herlihy's universal construction over the memory manager's log;
// see internal/universal for the algorithm.  Requires a
// reference-counting scheme (wait-free, Valois or lock-based).
type Universal = universal.Object

// ApplyFunc is a Universal object's deterministic sequential
// specification.
type ApplyFunc = universal.ApplyFunc

// NewUniversal creates a wait-free shared object with the given
// sequential behaviour and initial state; the arena needs ≥1 link and
// ≥2 value words per node plus 1+NR_THREADS root links.
func NewUniversal(s Scheme, t Thread, apply ApplyFunc, init uint64) (*Universal, error) {
	return universal.New(s, t, apply, init)
}
