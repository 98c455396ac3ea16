// Package mm defines the scheme-independent interface to concurrent
// memory management that the data structures in internal/ds are written
// against.
//
// The interface follows the user model of Sundell's wait-free
// reference-counting paper (§3.2 "Usage for dynamic data structures"),
// which in turn is compatible with Valois/Detlefs-style lock-free
// reference counting, so the same data-structure code runs unchanged on
// the wait-free scheme, the Valois baseline, hazard pointers and epoch
// reclamation:
//
//   - Alloc gives the calling thread one guarded reference to a fresh node.
//   - DeRef gives the calling thread a guarded reference to the node a
//     link currently points to.
//   - Release drops one guarded reference.
//   - Copy duplicates a guarded reference the thread already holds.
//   - CASLink is the paper's CompareAndSwapLink (Figure 6): on success the
//     link's reference moves from the old target to the new one and any
//     pending dereference announcements on the link are helped.
//   - Retire declares that a node has been unlinked from the structure and
//     must eventually be reclaimed.  For reference-counting schemes this
//     is a no-op (dropping the last reference reclaims); for hazard
//     pointers and epochs it feeds the retire lists.
//
// Threads are explicit: each goroutine that touches a managed structure
// registers once and performs all operations through its Thread context.
//
// Capacity is a property of the scheme's arena, not of this interface:
// the arena is fixed at construction (README "Capacity model").
package mm

import "wfrc/internal/arena"

// Handle aliases arena.Handle: a node identifier, 0 = nil.
type Handle = arena.Handle

// Ptr aliases arena.Ptr: a link-cell value (handle + deletion mark).
type Ptr = arena.Ptr

// LinkID aliases arena.LinkID: a link-cell identifier.
type LinkID = arena.LinkID

// Scheme is a memory-management scheme bound to an arena.
type Scheme interface {
	// Name identifies the scheme in benchmark output.
	Name() string
	// Arena returns the node arena the scheme manages.
	Arena() *arena.Arena
	// Register binds the calling goroutine to a free thread slot.  The
	// returned Thread must be used by a single goroutine at a time and
	// returned with Unregister when done.  Register returns an error if
	// all thread slots are taken.
	Register() (Thread, error)
	// Threads returns the maximum number of concurrently registered
	// threads (the paper's NR_THREADS).
	Threads() int
}

// Thread is a per-goroutine context for memory-management operations.
type Thread interface {
	// ID returns the thread slot index in [0, Threads).
	ID() int

	// Alloc returns a fresh node carrying one guarded reference, or an
	// error if the scheme detected memory exhaustion.
	//
	// Call Alloc outside BeginOp/EndOp whenever possible: under
	// epoch-based reclamation an allocator that waits for memory while
	// pinned blocks the epoch advance that would free memory, turning
	// transient exhaustion into livelock.  The allocation paths of all
	// schemes are safe without a pinned epoch.
	Alloc() (Handle, error)

	// DeRef dereferences a link, returning its current value with a
	// guarded reference on the target node.  A nil-handle Ptr carries no
	// reference and needs no Release.
	DeRef(l LinkID) Ptr

	// Release drops a guarded reference to h previously obtained from
	// Alloc, DeRef or Copy.  Release(Nil) is a no-op.
	Release(h Handle)

	// Copy adds one guarded reference to h, which the thread must already
	// hold a guarded reference to.
	Copy(h Handle)

	// CASLink atomically replaces the value of link l from old to new,
	// returning whether it succeeded.  On success the scheme performs the
	// paper's post-CAS obligations (help pending dereferences, move the
	// link's reference).  The caller must hold guarded references on both
	// old's and new's nodes (when non-nil) across the call; those caller
	// references are unaffected.
	CASLink(l LinkID, old, new Ptr) bool

	// StoreLink writes p into link l without synchronization against
	// concurrent updaters.  Permitted only when the link's previous value
	// has a nil handle and no concurrent updates are possible (paper
	// §3.2), e.g. when initializing a freshly allocated node's links.
	// The scheme accounts a link reference to p's node.
	StoreLink(l LinkID, p Ptr)

	// Load reads link l without acquiring any reference.  The result may
	// be stale and must not be dereferenced; it is intended for
	// validation reads in data-structure search loops.
	Load(l LinkID) Ptr

	// Retire declares node h unlinked from the data structure.  The
	// caller's own guarded reference is unaffected (still needs Release).
	// No-op for reference-counting schemes.
	Retire(h Handle)

	// BeginOp and EndOp bracket one data-structure operation.  Epoch
	// reclamation pins the epoch between them; other schemes treat them
	// as no-ops.  Guarded references do not survive EndOp for schemes
	// where BeginOp/EndOp matter.
	BeginOp()
	EndOp()

	// Stats exposes the thread's operation counters.
	Stats() *OpStats

	// Unregister releases the thread slot.  The Thread must not be used
	// afterwards.
	Unregister()
}
