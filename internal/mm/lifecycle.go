package mm

import (
	"math/bits"
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
// fetch-and-adds, and a bounded (hwmCASBound) CAS-max attempt for the
// high-water mark that gives up rather than loop, so a contended update
// can at worst under-report the peak by a transient value.  No locks,
// no allocation; the AllocsPerRun guard in lifecycle_test.go pins the
// zero-alloc property.

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
// [Grower] and [Robust].  Setting a nil sink detaches the current one.
// wfrc-kv attaches one LifecycleTracker per shard for the life of the
// server; benchmark/ attaches a fresh one per traced run.
type LifecycleSource interface {
	SetLifecycleSink(LifecycleSink)
}

// LagHistBuckets is the bucket count of the reclamation-lag histogram:
// bucket i covers lags in [2^i, 2^(i+1)) nanoseconds, the last bucket
// is open-ended (2^39 ns ≈ 9 minutes).
const LagHistBuckets = 40

// hwmCASBound bounds the high-water-mark CAS-max attempt; see the
// wait-freedom note in the package comment above.
const hwmCASBound = 8

// LifecycleTracker is a wait-free LifecycleSink over one arena: a side
// array of per-node retire stamps plus floating-garbage accounting and
// a log2 retire→free lag histogram.  Construct with NewLifecycleTracker
// sized for the arena's capacity ceiling; all methods are safe for
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
	// dropped counts notes on handles beyond the stamp array (an arena
	// outgrowing the tracker's construction-time ceiling) — exported so
	// truncated coverage is visible instead of silent.
	dropped atomic.Uint64

	lagBuckets [LagHistBuckets]atomic.Uint64
	lagSumNS   atomic.Uint64
	lagMaxNS   atomic.Uint64
}

// NewLifecycleTracker returns a tracker covering handles 1..maxNodes
// (size it with the arena's MaxNodes so attached segments stay
// covered).
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
	// Bounded CAS-max: a lost race leaves the recorded peak at another
	// thread's (also current) value; after hwmCASBound failures give up
	// rather than loop — wait-freedom over exactness.
	for i := 0; i < hwmCASBound; i++ {
		cur := t.hwm.Load()
		if f <= cur || t.hwm.CompareAndSwap(cur, f) {
			return
		}
	}
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
	lag := t.now() - stamp
	if lag < 0 {
		lag = 0
	}
	b := bits.Len64(uint64(lag)) - 1
	if b < 0 {
		b = 0
	}
	if b >= LagHistBuckets {
		b = LagHistBuckets - 1
	}
	t.lagBuckets[b].Add(1)
	t.lagSumNS.Add(uint64(lag))
	for i := 0; i < hwmCASBound; i++ {
		cur := t.lagMaxNS.Load()
		if uint64(lag) <= cur || t.lagMaxNS.CompareAndSwap(cur, uint64(lag)) {
			return
		}
	}
}

// LagSnap summarizes the retire→free lag histogram.  Quantiles are
// bucket upper bounds (factor-of-two resolution); MaxNS is the exact
// observed maximum (modulo the bounded CAS-max race).
type LagSnap struct {
	Count uint64 `json:"count"`
	SumNS uint64 `json:"sum_ns"`
	P50NS uint64 `json:"p50_ns"`
	P99NS uint64 `json:"p99_ns"`
	MaxNS uint64 `json:"max_ns"`
}

// LifecycleSnap is one tracker's derived summary: total transitions,
// the live floating-garbage gauge and its high-water mark, and the lag
// distribution.
type LifecycleSnap struct {
	Retired     uint64  `json:"retired"`
	Reclaimed   uint64  `json:"reclaimed"`
	Floating    int64   `json:"floating"`
	FloatingHWM int64   `json:"floating_hwm"`
	Dropped     uint64  `json:"dropped,omitempty"`
	Lag         LagSnap `json:"lag"`
}

// LagBuckets copies the raw histogram counts (monotone counters; a live
// copy is slightly stale, never torn), for Prometheus exposition.
func (t *LifecycleTracker) LagBuckets() (buckets [LagHistBuckets]uint64, sumNS uint64) {
	for i := range t.lagBuckets {
		buckets[i] = t.lagBuckets[i].Load()
	}
	return buckets, t.lagSumNS.Load()
}

// Floating returns the live retired-but-unreclaimed gauge.
func (t *LifecycleTracker) Floating() int64 { return t.floating.Load() }

// FloatingHWM returns the floating-garbage high-water mark.
func (t *LifecycleTracker) FloatingHWM() int64 { return t.hwm.Load() }

// Snapshot derives the summary.  Safe concurrently with notes.
func (t *LifecycleTracker) Snapshot() LifecycleSnap {
	buckets, sumNS := t.LagBuckets()
	var total uint64
	for _, c := range buckets {
		total += c
	}
	snap := LifecycleSnap{
		Retired:     t.retired.Load(),
		Reclaimed:   t.reclaimed.Load(),
		Floating:    t.floating.Load(),
		FloatingHWM: t.hwm.Load(),
		Dropped:     t.dropped.Load(),
		Lag:         LagSnap{Count: total, SumNS: sumNS, MaxNS: t.lagMaxNS.Load()},
	}
	if total == 0 {
		return snap
	}
	snap.Lag.P50NS = lagQuantile(buckets, total, 0.50)
	snap.Lag.P99NS = lagQuantile(buckets, total, 0.99)
	return snap
}

func lagQuantile(buckets [LagHistBuckets]uint64, total uint64, q float64) uint64 {
	rank := uint64(float64(total)*q + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range buckets {
		cum += c
		if cum >= rank {
			return uint64(1) << (i + 1) // bucket upper bound
		}
	}
	return uint64(1) << LagHistBuckets
}
