package mm

import (
	"sync/atomic"
	"time"

	"wfrc/internal/arena"
)

// Memory-lifecycle telemetry: the retire → reclaim half of the
// alloc → link → retire-eligible → zero-count → reclaimed pipeline.
//
// The paper's central claims are about memory, not throughput — Lemma 3
// bounds how many deleted-but-unreclaimed nodes can accumulate, and the
// robustness literature (Hyaline, Stamp-it) judges schemes by their
// reclamation lag under stalled readers.  LifecycleTracker turns both
// into measured quantities: every scheme reports the instant a node
// becomes garbage (NoteRetired — the zero-count election for the
// counting schemes, the Retire call for the deferred-reclamation ones)
// and the instant its memory returns to the free lists (NoteReclaimed),
// and the tracker derives a retire→free lag histogram, a live
// floating-garbage gauge, and its high-water mark.
//
// Wait-freedom discipline (same as OpStats/StepHist): each note is a
// constant number of the caller's own atomic steps — one timestamp
// read, one CAS or Swap on the node's stamp cell, up to three
// fetch-and-adds, one LatencyHist.Record, and a bounded (hwmCASBound)
// CAS-max attempt for the high-water mark that gives up rather than
// loop, so a contended update can at worst under-report the peak by a
// transient value.  No locks, no allocation; the AllocsPerRun guard in
// lifecycle_test.go pins the zero-alloc property.

// LifecycleSink receives a scheme's retire/reclaim transitions.  Both
// methods must be safe for concurrent use from every scheme thread and
// must stay wait-free and allocation-free — they run inside the
// schemes' reclamation hot paths.
type LifecycleSink interface {
	// NoteRetired marks the instant node h became garbage: retired but
	// not yet reclaimed (the Stamp-it "floating" state).  Idempotent —
	// only the first note per retire/reclaim cycle counts, so helping
	// threads racing on the same node cannot double-count.
	NoteRetired(h Handle)
	// NoteReclaimed marks the instant node h's memory returned to the
	// scheme's free lists.  A note for a node with no recorded retire
	// (or one whose retire was cancelled by resurrection) is dropped.
	NoteReclaimed(h Handle)
}

// LifecycleSource is the optional telemetry surface of a Scheme that
// can publish lifecycle transitions, discovered by type assertion like
// [Robust].  Setting a nil sink detaches the current one.
// wfrc-kv attaches one LifecycleTracker, to its store's one scheme, for
// the life of the server; benchmark/ attaches a fresh one per traced run.
type LifecycleSource interface {
	SetLifecycleSink(LifecycleSink)
}

// LifecycleTracker is a wait-free LifecycleSink over one arena: a side
// array of per-node retire stamps plus floating-garbage accounting and
// a log2 retire→free lag histogram.  Construct with NewLifecycleTracker
// sized for the arena's node count; all methods are safe for
// concurrent use.
type LifecycleTracker struct {
	base time.Time
	// stamp[h] is node h's retire instant in nanoseconds since base
	// (clamped ≥ 1 so 0 always means "not retired").  Claimed with
	// CAS(0, now) and released with Swap(0), so exactly one reclaim
	// pairs with each retire even when notes race.
	stamp []atomic.Int64

	retired   atomic.Uint64
	reclaimed atomic.Uint64
	floating  atomic.Int64
	hwm       atomic.Int64
	// dropped counts notes on handles beyond the stamp array (a tracker
	// sized below its arena) — exported so truncated coverage is
	// visible instead of silent.
	dropped atomic.Uint64

	lag LatencyHist
}

// NewLifecycleTracker returns a tracker covering handles 1..maxNodes
// (size it with the arena's Nodes).
func NewLifecycleTracker(maxNodes int) *LifecycleTracker {
	if maxNodes < 1 {
		maxNodes = 1
	}
	return &LifecycleTracker{
		base:  time.Now(),
		stamp: make([]atomic.Int64, maxNodes+1),
	}
}

// now returns nanoseconds since the tracker's base, clamped ≥ 1.
func (t *LifecycleTracker) now() int64 {
	ns := time.Since(t.base).Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	return ns
}

// NoteRetired implements LifecycleSink.  Wait-free, zero-alloc.
func (t *LifecycleTracker) NoteRetired(h Handle) {
	if h == arena.Nil || int(h) >= len(t.stamp) {
		if h != arena.Nil {
			t.dropped.Add(1)
		}
		return
	}
	if t.stamp[h].Load() != 0 {
		return // already retired this cycle; first note wins
	}
	// Raise floating before the stamp is visible: a NoteReclaimed of h can
	// pair with this retire the moment the CAS lands, and its decrement
	// must find the increment already there or the gauge dips below zero.
	f := t.floating.Add(1)
	if !t.stamp[h].CompareAndSwap(0, t.now()) {
		t.floating.Add(-1) // lost to a racing note of the same retire
		return
	}
	t.retired.Add(1)
	raiseTo(&t.hwm, f)
}

// NoteReclaimed implements LifecycleSink.  Wait-free, zero-alloc.
// Reclaiming a node with no recorded retire is a no-op, which doubles
// as the resurrection path: a deferred scheme whose zero-count node is
// re-referenced before the ZCT drain calls NoteReclaimed to cancel the
// retire (the recorded lag is then the node's ZCT residency).
func (t *LifecycleTracker) NoteReclaimed(h Handle) {
	if h == arena.Nil || int(h) >= len(t.stamp) {
		if h != arena.Nil {
			t.dropped.Add(1)
		}
		return
	}
	stamp := t.stamp[h].Swap(0)
	if stamp == 0 {
		return // never retired (RC schemes free live-path nodes too)
	}
	t.reclaimed.Add(1)
	t.floating.Add(-1)
	t.lag.Record(time.Duration(t.now() - stamp))
}

// LifecycleSnap is one tracker's derived summary: total transitions,
// the live floating-garbage gauge and its high-water mark, and the lag
// distribution.
type LifecycleSnap struct {
	Retired     uint64      `json:"retired"`
	Reclaimed   uint64      `json:"reclaimed"`
	Floating    int64       `json:"floating"`
	FloatingHWM int64       `json:"floating_hwm"`
	Dropped     uint64      `json:"dropped,omitempty"`
	Lag         LatencySnap `json:"lag"`
}

// Lag returns the tracker's retire→free lag histogram, for merging
// several trackers' counts (read it; recording is the tracker's).
func (t *LifecycleTracker) Lag() *LatencyHist { return &t.lag }

// Floating returns the live retired-but-unreclaimed gauge.
func (t *LifecycleTracker) Floating() int64 { return t.floating.Load() }

// FloatingHWM returns the floating-garbage high-water mark.
func (t *LifecycleTracker) FloatingHWM() int64 { return t.hwm.Load() }

// Snapshot derives the summary.  Safe concurrently with notes.
func (t *LifecycleTracker) Snapshot() LifecycleSnap {
	return LifecycleSnap{
		Retired:     t.retired.Load(),
		Reclaimed:   t.reclaimed.Load(),
		Floating:    t.floating.Load(),
		FloatingHWM: t.hwm.Load(),
		Dropped:     t.dropped.Load(),
		Lag:         t.lag.Snapshot(),
	}
}
