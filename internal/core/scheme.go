// Package core implements the paper's contribution: a wait-free
// reference-counting garbage-collection scheme (DeRefLink, ReleaseRef,
// HelpDeRef — Figure 4), the wait-free free-list (AllocNode, FreeNode —
// Figure 5) and the user-facing link operations (Figure 6), all built
// from single-word FAA/CAS/SWAP on an arena of type-stable nodes.
//
// # Announcement pool
//
// Every thread owns a row of NR_THREADS announcement slots.  DeRefLink
// announces the link it is about to dereference in a slot whose busy
// counter is zero, performs the optimistic read + FAA, then SWAPs the
// announcement away; a concurrent link updater that runs HelpDeRef may
// have answered through the same cell with a guarded recent value of the
// link, which the announcer then adopts.  The busy counters keep a slot
// from being reused for a new announcement while a helper still has a
// pending answer CAS for an old announcement of the same link — the ABA
// case the paper identifies.
//
// Announcement cells are 64-bit words holding either an encoded LinkID
// (bit 63 set) or a Ptr answer (bit 63 clear); the encodings are disjoint
// by construction, which is this implementation's analogue of the paper's
// Lemma 1.
//
// # Free-list
//
// Nodes are kept on 2·NR_THREADS separate free-lists.  All allocators
// work on the list selected by currentFreeList, rotating it when found
// empty; a freeing thread uses one of its two private heads (threadId or
// threadId+NR_THREADS), picking whichever the allocators are not
// currently working on.  Starving allocators are helped: each FreeNode
// and each first successful list-head CAS of an AllocNode offers a node
// to the thread selected by the round-robin helpCurrent cursor through
// the annAlloc announcement cells.
//
// # Magazine
//
// In front of the free-lists every thread slot keeps a small private
// LIFO of free nodes (magRow).  freeNode pushes there and AllocNode pops
// from there before either touches Figure 5, so a node freed by one
// operation is the node the next one allocates, still in cache, and the
// shared lists see only overflow and underflow traffic.  The depth is
// derived from the arena (magDepthFor): small arenas get 0, which is
// Figure 5 exactly.  See DESIGN.md §5.
//
// # Erratum
//
// The paper's line F3 inserts a freed node (mm_ref==1) directly into
// annAlloc, but the helped path A4 applies FixRef(-1), which only yields
// the specified post-allocation count for nodes inserted by line A12
// (mm_ref==3, after line A9's FAA(+2)).  We therefore raise the count by
// 2 before the F3 CAS and lower it back when the CAS fails, making both
// insertion paths hand over nodes at mm_ref==3.  This preserves every
// invariant used by the paper's proof and is, as far as we can tell, the
// intended reading.
package core

import (
	"fmt"
	"sync/atomic"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// annEncodeBit tags a 64-bit announcement cell value as an encoded
// LinkID rather than a Ptr answer (Lemma 1 analogue).
const annEncodeBit uint64 = 1 << 63

func encodeLink(l mm.LinkID) uint64 { return annEncodeBit | uint64(l) }

// annSlot is one announcement variable with its busy counter
// (annReadAddr[i][j] and annBusy[i][j] in the paper).
type annSlot struct {
	readAddr atomic.Uint64
	busy     atomic.Int64
	_        [6]uint64
}

// annRow is the announcement state of one thread.
type annRow struct {
	index atomic.Int64 // annIndex[threadId]
	slots []annSlot
	_     [6]uint64
}

// Config parameterizes a Scheme.
type Config struct {
	// Threads is NR_THREADS: the maximum number of concurrently
	// registered threads.
	Threads int
	// AllocRetryLimit bounds the allocation loop before AllocNode reports
	// out-of-memory (the paper's footnote-4 detection rule).  Zero
	// selects a default that is safely above the wait-freedom bound for
	// Threads participants.
	AllocRetryLimit int
	// Deferred selects the deferred variant ("waitfree-deferred"):
	// DeRefLink guards nodes through a per-thread pin table instead of an
	// immediate FAA on the shared count, a node whose count reaches zero
	// waits in a per-thread zero-count table (ZCT), and a drain reclaims
	// the zero-count candidates no pin protects.  See deferred.go.
	Deferred bool
}

// PinSlots is the per-thread pin-table capacity of the deferred variant.
// The table is a 2-way set-associative cache keyed by handle (pinWays,
// pinSetMask in deferred.go): a dereference whose set is full of live
// guards falls back to a counted (immediate FAA) guard, so the size
// affects performance, never correctness.  64 slots keep that fallback
// rare under the skiplist's ~2·(maxLevel+2) simultaneous guards.
const PinSlots = 64

// pinRow is one thread's pin table: published handles that protect nodes
// without touching their shared reference count.  Slots are written only
// by the owning thread but read by every flushing thread's ZCT scan, so
// the row is padded against false sharing with its neighbours.  live
// counts the non-empty slots; the owner increments it *before* a fresh
// publish and decrements *after* a clear, so a scanner reading live==0
// is guaranteed every slot reads 0 too and may skip the row
// (pinnedByOther uses this to skip threads with nothing published).
type pinRow struct {
	slot [PinSlots]atomic.Uint64 // raw Handles; 0 = empty
	live atomic.Int64            // non-empty slots (owner-maintained)
	_    [7]uint64
}

// magCap is the largest magazine depth; magDepthFor picks the depth a
// scheme actually uses.
const magCap = 8

// magDepthFor derives the per-slot magazine depth from the arena: the n
// rows together may withhold at most 1/32 of the nodes from a starving
// allocator's footnote-4 verdict, and beyond magCap the LIFO stops
// paying (the working set is already a cache line of handles).  Arenas
// under 32·n nodes get 0 — no magazine, Figure 5 exactly — which covers
// every schedule-exploration and hook-point test arena.
func magDepthFor(nodes, n int) int {
	return min(magCap, nodes/(32*n))
}

// magRow is one thread slot's magazine: free nodes resting at mm_ref==1,
// exactly like free-list nodes, but reachable only by the slot's owner.
// The row lives on the Scheme rather than the Thread so a slot that is
// re-registered (or whose goroutine crashed) keeps its nodes, and so the
// quiescent audit finds them while threads are still registered.  Plain
// fields: only the slot's current owner touches the row while it runs;
// hand-over to the next owner or to the auditor is ordered by whatever
// ordered the slot's hand-over (the registry, a WaitGroup).
type magRow struct {
	n    int
	node [magCap]arena.Handle
	_    [11]uint64
}

// pinEntry is one owner-private pin-cache slot: the published handle and
// the number of live local guards on it (refs==0 with h!=Nil marks a
// sticky cached publication).  8 bytes, so a 2-way set is 16 bytes at a
// 16-aligned offset of Thread and never straddles a cache line
// (TestPinSetLayout).
type pinEntry struct {
	h    arena.Handle
	refs uint32
}

// Scheme is the wait-free reference-counting memory manager.  It
// implements mm.Scheme.
type Scheme struct {
	ar  *arena.Arena
	n   int
	lim int

	ann []annRow

	currentFreeList atomic.Int64
	freeList        []mm.PadU64 // 2n heads holding raw Handles
	helpCurrent     atomic.Int64
	annAlloc        []mm.PadU64 // n cells holding raw Handles

	// mag is the per-slot magazine in front of the free-lists and
	// magDepth the depth in use (0 disables it); see magRow.
	mag      []magRow
	magDepth int

	reg mm.Registry

	// annScanViolations counts DeRefLink calls whose D1 slot scan
	// exceeded AnnScanBound — the audit-visible record of broken
	// wait-freedom (see Audit).
	annScanViolations atomic.Uint64

	// helpTracer, when set, observes every successful H6 answer CAS
	// (see SetHelpTracer).
	helpTracer atomic.Pointer[func(HelpEvent)]

	// nodeFreeHook, when set, runs at the top of freeNode, before the
	// node is offered to any other thread (see SetNodeFreeHook).
	nodeFreeHook atomic.Pointer[func(threadID int, h arena.Handle)]

	// Lifecycle implements mm.LifecycleSource: the attached sink receives
	// a NoteRetired the instant a node becomes garbage — the winner of the
	// zero-count CAS(0,1) reclaim election on the immediate variant, the
	// ZCT push on the deferred one — and a NoteReclaimed from freeNode when
	// the node's memory returns to the free lists.  A deferred-variant node
	// resurrected out of the ZCT (its count rose again before the drain)
	// reports NoteReclaimed at the failed election, cancelling the retire.
	// The sink must be wait-free and allocation-free (mm.LifecycleTracker
	// is).  The KV server attaches one tracker to its store's scheme; the
	// only cost when unset is one atomic pointer load per reclamation.  It
	// is deliberately separate from nodeFreeHook: the value layer owns that
	// hook (DESIGN.md §14), and telemetry must not displace it.
	mm.Lifecycle

	// tags holds one request tag per thread slot (see SetThreadTag).
	// The tags are opaque to the scheme; the observability layer stores
	// the active request-span ID of the goroutine currently operating
	// through each slot, and help events carry both parties' tags so a
	// help can be joined back to the requests it involved.
	tags []atomic.Uint64

	// legacyAnnIndex reverts the annRow.index lifecycle to its pre-fix
	// behaviour for schedule-exploration tests (see
	// TestingSetLegacyAnnIndex).  Never set in production.
	legacyAnnIndex atomic.Bool

	// deferred selects the deferred-decrement variant (Config.Deferred);
	// pins is its per-thread pin table (one row per thread slot).
	deferred bool
	pins     []pinRow

	// memPressure is the deferred variant's out-of-memory broadcast.  An
	// allocator that exhausted the free-lists and found nothing to
	// reclaim in its own ZCT raises the flag; every thread checks it
	// when applying a counted decrement and answers with a flush,
	// surrendering its ZCT candidates, released sticky pins and magazine
	// row.  Without the broadcast a thread's reclaimable memory is
	// reachable only through its own flush triggers, and on small arenas
	// the other threads' bounded slack alone can exhaust the free-lists
	// (footnote-4 amendment, see AllocNode).
	memPressure mm.PadI64

	// forceAnnounce makes the deferred variant's DeRefLink skip the
	// pin-and-revalidate fast path and always take the announced path,
	// so tests can drive the D3–D6 window deterministically (see
	// TestingSetDeferredForceAnnounce).  Never set in production.
	forceAnnounce bool

	// orphans holds ZCT entries a thread could not retire before
	// Unregister (a peer still held a pin on them); the next flushing
	// thread adopts them.
	orphans mm.Limbo
}

// HelpEvent describes one successfully answered dereference
// announcement: thread Helper, running HelpDeRef for link Link (paper
// Figure 4, lines H1–H8), won the H6 answer CAS into slot Slot of
// thread Helpee's announcement row.  The helpee's DeRefLink adopts the
// answer at line D7.
type HelpEvent struct {
	// Helper is the thread slot that provided the answer.
	Helper int
	// Helpee is the thread slot whose announcement was answered.
	Helpee int
	// Slot is the announcement slot index within the helpee's row (the
	// paper's annIndex value at the time of the help).
	Slot int
	// Link is the announced link that was dereferenced on the helpee's
	// behalf.
	Link mm.LinkID
	// HelperTag and HelpeeTag are the thread tags (SetThreadTag) of the
	// two parties as of the answer CAS — in the KV stack, the request
	// span IDs of the helper's and the helpee's in-flight requests (0 if
	// untagged).  They make "whose request paid for this help, and whose
	// request was rescued by it" a joinable question.
	HelperTag uint64
	HelpeeTag uint64
}

// SetHelpTracer installs fn to be invoked after every successful H6
// answer CAS, identifying who helped whom at which announcement slot.
// It may be installed or cleared (fn == nil) while threads run; fn must
// be safe for concurrent calls and cheap — it executes inside the
// helper's CompareAndSwapLink obligation, which Lemma 3's accounting
// already prices at O(NR_THREADS).  Production code leaves it unset:
// the only cost is then one atomic pointer load per help given.
func (s *Scheme) SetHelpTracer(fn func(HelpEvent)) {
	if fn == nil {
		s.helpTracer.Store(nil)
		return
	}
	s.helpTracer.Store(&fn)
}

// SetNodeFreeHook installs fn to be invoked by the reclamation winner
// at the top of freeNode — after the node's reference count reached
// zero and the winner took the CAS(0,1) reclaim election, but before
// the node is offered to any allocator through annAlloc or a free-list.
// At that point the winner holds the node exclusively: no guard, link
// or announcement row can still reach it (paper §3.2), so fn may read
// and clear the node's value words without synchronization.  The value
// layer uses this to free the size-classed payload blocks a node's
// value word references (DESIGN.md §14); fn must also clear any such
// word (arena.SetVal) so a later life of the node cannot double-free.
//
// fn receives the *winner's* thread slot (which is not necessarily the
// slot that removed the node from the data structure) and must be
// cheap and non-blocking: it executes inside ReleaseRef's R-line
// obligations on both the immediate and deferred reclamation paths.
func (s *Scheme) SetNodeFreeHook(fn func(threadID int, h arena.Handle)) {
	if fn == nil {
		s.nodeFreeHook.Store(nil)
		return
	}
	s.nodeFreeHook.Store(&fn)
}

// SetThreadTag associates an opaque tag with thread slot id, read back
// into HelpEvent.HelperTag/HelpeeTag when a help involving that slot is
// traced.  The KV server stores the active request-span ID here for the
// duration of each request (and clears it with tag 0 after), so a
// recorded help joins both participating requests.  One atomic store;
// safe to call concurrently with running threads.
func (s *Scheme) SetThreadTag(id int, tag uint64) {
	if id >= 0 && id < len(s.tags) {
		s.tags[id].Store(tag)
	}
}

// ThreadTag returns the tag last set for thread slot id (0 if none).
func (s *Scheme) ThreadTag(id int) uint64 {
	if id >= 0 && id < len(s.tags) {
		return s.tags[id].Load()
	}
	return 0
}

// New creates a wait-free reference-counting scheme over ar.  All of the
// arena's nodes start on free-list 0, chained through mm_next, exactly as
// the paper initializes freeList[0].
func New(ar *arena.Arena, cfg Config) (*Scheme, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("core: Threads must be positive, got %d", cfg.Threads)
	}
	n := cfg.Threads
	lim := cfg.AllocRetryLimit
	if lim == 0 {
		// Generously above the helping bound: every 2n-list sweep plus n
		// helping rounds fits many times over.
		lim = 16*n*n + 64*n + 256
	}
	s := &Scheme{
		ar:       ar,
		n:        n,
		lim:      lim,
		ann:      make([]annRow, n),
		freeList: make([]mm.PadU64, 2*n),
		annAlloc: make([]mm.PadU64, n),
		mag:      make([]magRow, n),
		magDepth: magDepthFor(ar.Nodes(), n),
		tags:     make([]atomic.Uint64, n),
		deferred: cfg.Deferred,
	}
	if cfg.Deferred {
		s.pins = make([]pinRow, n)
	}
	for i := range s.ann {
		s.ann[i].slots = make([]annSlot, n)
		// -1 marks "no announcement ever posted".  The zero value 0 is a
		// valid slot index, so leaving it would make helpers scan rows of
		// threads that never registered (the deref.go H2 guard would
		// never fire for them).
		s.ann[i].index.Store(-1)
	}
	s.freeList[0].Store(uint64(mm.ChainFree(ar)))
	s.reg.Init("core", n)
	return s, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(ar *arena.Arena, cfg Config) *Scheme {
	s, err := New(ar, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements mm.Scheme.
func (s *Scheme) Name() string {
	if s.deferred {
		return "waitfree-deferred"
	}
	return "waitfree-rc"
}

// Deferred reports whether the scheme runs the deferred-decrement
// variant.
func (s *Scheme) Deferred() bool { return s.deferred }

// Arena implements mm.Scheme.
func (s *Scheme) Arena() *arena.Arena { return s.ar }

// Threads implements mm.Scheme.
func (s *Scheme) Threads() int { return s.n }

// AllocRetryLimit returns the allocation retry bound in effect (the
// paper's footnote-4 out-of-memory detection rule), after defaulting.
func (s *Scheme) AllocRetryLimit() int { return s.lim }

// Register implements mm.Scheme.  It binds the caller to a free thread
// slot.
func (s *Scheme) Register() (mm.Thread, error) {
	t, err := s.RegisterCore()
	if err != nil {
		return nil, err
	}
	return t, nil
}

// RegisterCore is Register returning the concrete *Thread, giving access
// to scheme-specific operations (HelpDeRef, FixRef, test hooks).
func (s *Scheme) RegisterCore() (*Thread, error) {
	id, err := s.reg.Acquire()
	if err != nil {
		return nil, err
	}
	return &Thread{s: s, id: id, relStack: make([]arena.Handle, 0, 64)}, nil
}

func (s *Scheme) unregister(id int) {
	// Stop helpers from scanning the departed thread's row: its last
	// announcement index would otherwise stay valid-looking forever.
	if !s.legacyAnnIndex.Load() {
		s.ann[id].index.Store(-1)
	}
	s.reg.Release(id)
}

// TestingSetLegacyAnnIndex reverts the annRow.index lifecycle fix (the
// "zero value was a valid slot index" bug): rows that have never posted
// an announcement report index 0 — the pre-fix zero value — and
// Unregister leaves the departed thread's last announcement index in
// place, so helpers keep scanning rows of threads that never registered
// or are long gone.  The deterministic schedule explorer (internal/sched)
// uses it as the standing injected-bug target: AuditAnnRows reports the
// resulting H2-hygiene violation on every schedule that reaches
// quiescence with an unregistered row still advertising a slot.  Test
// hook only; never enable in production.  Call it while no thread is
// registering or unregistering: the flag itself is atomic, but the
// row sweep below reads each slot's in-use bit and index separately.
func (s *Scheme) TestingSetLegacyAnnIndex(on bool) {
	s.legacyAnnIndex.Store(on)
	for i := range s.ann {
		idx := s.ann[i].index.Load()
		if on && idx == -1 {
			s.ann[i].index.Store(0) // the pre-fix zero value
		}
		if !on && !s.reg.InUse(i) && idx != -1 {
			s.ann[i].index.Store(-1)
		}
	}
}

// AnnRowIndex returns thread row id's current announcement slot index
// (-1 = no announcement posted / row unregistered).  Audit and test
// helper; the value is racy while the row's owner runs.
func (s *Scheme) AnnRowIndex(id int) int64 { return s.ann[id].index.Load() }

// AnnSlotBusy returns the busy pin count of announcement slot j in row
// id.  Audit and test helper; at quiescence every count must be zero
// (each H4 pin is released by H8).
func (s *Scheme) AnnSlotBusy(id, j int) int64 { return s.ann[id].slots[j].busy.Load() }

// RegisteredThread reports whether thread slot id is currently bound to
// a registered thread.
func (s *Scheme) RegisteredThread(id int) bool { return s.reg.InUse(id) }

// Thread is a per-goroutine context on the wait-free scheme.  It
// implements mm.Thread.
type Thread struct {
	s        *Scheme
	id       int
	stats    mm.OpStats
	relStack []arena.Handle // reusable worklist for cascading releases
	hook     func(Point)    // test-only interleaving hook; nil in production

	// Deferred-variant state (unused on the immediate scheme).  All
	// fields are owner-private; only the pin row (in Scheme.pins, indexed
	// by id) is shared with other threads' ZCT scans.
	pinCache [PinSlots]pinEntry // owner-private mirror of the shared pin row
	zct      []arena.Handle     // zero-count table: reclaim candidates
	inFlush  bool               // reentrancy guard for flushDeferred

	// fastDeRefs counts pin-cache dereference hits not yet folded into
	// stats.  The fast path would otherwise pay three counter writes
	// (DeRefs, DeRefHist bucket 0, PinFastPaths) per dereference; it
	// pays one here and Stats folds the total into all three on read.
	fastDeRefs uint64
	// fastNilDeRefs is the same batching for nil-handle dereferences,
	// which take no guard and therefore fold into DeRefs and bucket 0
	// only — never PinFastPaths.
	fastNilDeRefs uint64
}

// ID implements mm.Thread.
func (t *Thread) ID() int { return t.id }

// Stats implements mm.Thread.  Pin-cache dereference hits are batched
// in a single counter on the hot path; fold them into the three stats
// they represent before handing the struct out.
func (t *Thread) Stats() *mm.OpStats {
	if n := t.fastDeRefs; n != 0 {
		t.fastDeRefs = 0
		t.stats.DeRefs += n
		t.stats.DeRefHist.Buckets[0] += n
		t.stats.PinFastPaths += n
	}
	if n := t.fastNilDeRefs; n != 0 {
		t.fastNilDeRefs = 0
		t.stats.DeRefs += n
		t.stats.DeRefHist.Buckets[0] += n
	}
	return &t.stats
}

// Unregister implements mm.Thread.  On the deferred variant the
// thread's pending state is retired first: leftover pins are promoted to
// counted references (so guards the caller still legitimately holds stay
// visible to the count audit once the pin row goes away) and the ZCT is
// drained — entries a peer still pins are handed to the scheme's orphan
// list for the next flusher to adopt.
// Last, the slot's magazine is spilled through F1–F10, so once every
// thread has unregistered every free node is on a Figure-5 structure
// again.
func (t *Thread) Unregister() {
	if t.s.deferred {
		t.retireDeferred()
	}
	t.spillMagazine()
	t.s.unregister(t.id)
}

// BeginOp implements mm.Thread (no-op: reference counts guard nodes).
func (t *Thread) BeginOp() {}

// EndOp implements mm.Thread (no-op).
func (t *Thread) EndOp() {}

// Retire implements mm.Thread (no-op: reclamation happens when the last
// reference is released).
func (t *Thread) Retire(arena.Handle) {}

// RetireBatch implements the optional mm.BatchRetirer capability.  For
// the reference-counting scheme retirement is a no-op per node, so the
// batch form exists only so callers can hold one code path across
// schemes with and without batch bookkeeping (Hyaline amortizes real
// work here).
func (t *Thread) RetireBatch(hs []arena.Handle) {
	for _, h := range hs {
		t.Retire(h)
	}
}

// SetHook installs a test-interleaving callback invoked at the labelled
// algorithm points.  Production code leaves it nil.
func (t *Thread) SetHook(h func(Point)) { t.hook = h }

// Point labels the algorithm lines at which tests may interleave.
type Point int

// Hook points, named after the paper's line numbers.  The first block
// marks the states between the algorithms' shared-memory accesses that
// the original chaos layer perturbs; the second block (PD1 onward) adds
// the per-iteration step boundaries of every loop, so a deterministic
// scheduler (internal/sched) regains control on each probe, retry and
// worklist item and no instrumented operation can spin outside its view.
const (
	PD3  Point = iota // announcement published, link not yet read
	PD4               // link read, mm_ref not yet increased
	PD6               // mm_ref increased, announcement not yet swapped out
	PH4               // busy count raised, helper dereference not yet run
	PH6               // helper dereference done, answer CAS not yet tried
	PA9               // free-list head read and mm_ref raised, CAS not yet tried
	PA12              // free-list CAS succeeded, help CAS not yet tried
	PF3               // help cursor advanced, annAlloc CAS not yet tried
	PF9               // mm_next written, free-list insertion CAS not yet tried
	PR2               // mm_ref decremented, reclamation CAS not yet tried

	PD1 // one D1 announcement-slot probe, busy counter not yet read
	PH2 // helper read a row's announcement index, cell not yet read
	PR1 // release worklist item popped, mm_ref not yet decremented
	PA3 // one allocation-loop iteration, annAlloc grant not yet read
	PA5 // currentFreeList read, list head not yet read
	PF7 // one free-list insertion attempt, head not yet read

	// Deferred-variant points (see deferred.go).
	PP2  // pin published, link revalidation read not yet performed
	PFL1 // a counted decrement applied to mm_ref, zero check not yet acted on
	PZ1  // ZCT pin scan found no pins, reclaim election CAS not yet tried

	// NumPoints is the number of hook points (for tables indexed by
	// Point).
	NumPoints
)

var pointNames = [...]string{
	PD3: "PD3", PD4: "PD4", PD6: "PD6", PH4: "PH4", PH6: "PH6",
	PA9: "PA9", PA12: "PA12", PF3: "PF3", PF9: "PF9", PR2: "PR2",
	PD1: "PD1", PH2: "PH2", PR1: "PR1", PA3: "PA3", PA5: "PA5", PF7: "PF7",
	PP2: "PP2", PFL1: "PFL1", PZ1: "PZ1",
}

// String returns the paper line label of the hook point.
func (p Point) String() string {
	if p >= 0 && int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

func (t *Thread) at(p Point) {
	if t.hook != nil {
		t.hook(p)
	}
}
