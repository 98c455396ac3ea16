// Package obs is the observability layer: it aggregates the per-thread
// mm.OpStats counters that the wait-freedom proof is quantitative about
// (Lemma 2's D1 scan bound, Lemma 9's allocation bound, the H1–H8
// helping traffic) into a live metrics registry, exports them in
// Prometheus exposition format and via expvar, keeps an optional
// wait-free ring-buffer trace of help events for post-mortem analysis
// of helping storms, and defines the machine-readable server report
// wfrc-load writes (bench.go).
//
// # Concurrency model
//
// The registry is built for a zero-cost disabled state and lock-free
// scrapes:
//
//   - Per-thread OpStats stay plain (unsynchronized) counters owned by
//     their goroutine, exactly as before — enabling observation adds no
//     instructions to the schemes' hot paths.
//   - The collector holds immutable, copy-on-write source lists behind
//     atomic pointers (attachList, shared with LifecycleCollector):
//     scrapes (Snapshot, /metrics) never take a lock, and
//     attaching/detaching sources never blocks a scrape.
//   - A live scrape reads the owning threads' counters without
//     synchronization.  The counters are monotone, 64-bit aligned words,
//     so on the 64-bit platforms this module targets a scrape sees a
//     slightly stale but never torn value — the same staleness contract
//     mm.OpStats documents for its readers.  Tests that must be exact
//     (and race-detector clean) scrape at quiescence.
//
// The help-event trace (TraceRing) and the span flight recorder are two
// payloads over one event-ring implementation (ring.go), wait-free on
// the write side: one fetch-and-add claims a cell, and per-cell sequence
// words make the reader discard cells it raced with, so tracing never
// adds unbounded steps to a helper — the property the whole scheme is
// about.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"wfrc/internal/mm"
)

// attachList is the copy-on-write list behind every collector: attach
// and detach are cold paths serialized by mu that publish a fresh slice,
// and readers load the current slice without a lock.  The zero value is
// an empty list.
type attachList[T any] struct {
	mu  sync.Mutex
	cur atomic.Pointer[[]*T]
}

// load returns the current entries; callers must not modify the slice.
func (l *attachList[T]) load() []*T {
	if p := l.cur.Load(); p != nil {
		return *p
	}
	return nil
}

// attach appends v and returns the function that removes this entry
// (and only it: entries are told apart by identity, not by value).
func (l *attachList[T]) attach(v T) (detach func()) {
	e := &v
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.load()
	next := append(old[:len(old):len(old)], e)
	l.cur.Store(&next)
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		var next []*T
		for _, x := range l.load() {
			if x != e {
				next = append(next, x)
			}
		}
		l.cur.Store(&next)
	}
}

// source is one attached per-thread stats block.
type source struct {
	scheme string
	thread int
	stats  *mm.OpStats
}

// gaugeSource is one attached scheme-level gauge: the core scheme's
// audit counter of D1 scan-bound violations, or a memory occupancy
// reading (ZCT depth, live value blocks, ...).
type gaugeSource struct {
	name   string
	scheme string
	read   func() int64
}

// Gauge is one gauge reading in a Snapshot or MemSnapshot.
type Gauge struct {
	// Name is the metric name; Scheme its label; Value the reading.
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	Value  int64  `json:"value"`
}

// readGauges reads every gauge in l, sorted by name then scheme for
// deterministic export.
func readGauges(l *attachList[gaugeSource]) []Gauge {
	var out []Gauge
	for _, g := range l.load() {
		out = append(out, Gauge{Name: g.name, Scheme: g.scheme, Value: g.read()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Scheme < out[j].Scheme
	})
	return out
}

// Collector aggregates attached per-thread OpStats into per-scheme
// merged snapshots.  All methods are safe for concurrent use.
type Collector struct {
	sources attachList[source]
	gauges  attachList[gaugeSource]
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attach registers one thread's stats block under a scheme label and
// returns a function that detaches it.  Attach is a cold path (it
// copies the source list); scrapes stay lock-free throughout.
func (c *Collector) Attach(scheme string, thread int, st *mm.OpStats) (detach func()) {
	return c.sources.attach(source{scheme: scheme, thread: thread, stats: st})
}

// AttachGauge registers a named scheme-level gauge read on every
// scrape — e.g. core.(*Scheme).AnnScanViolations, the audit-visible
// record of a broken Lemma 2 bound.  The name must be a valid
// Prometheus metric name; it is exported verbatim with a scheme label.
func (c *Collector) AttachGauge(name, scheme string, read func() int64) (detach func()) {
	return c.gauges.attach(gaugeSource{name: name, scheme: scheme, read: read})
}

// Snapshot is a merged view of every attached source at one scrape.
type Snapshot struct {
	// Schemes maps each scheme label to its merged per-thread stats.
	// Maxima carry arg-max thread ids (mm.OpStats AddTagged).
	Schemes map[string]mm.OpStats
	// Gauges holds the scheme-level gauge readings, sorted by name then
	// scheme for deterministic export.
	Gauges []Gauge
}

// SchemeNames returns the snapshot's scheme labels, sorted.
func (s *Snapshot) SchemeNames() []string {
	names := make([]string, 0, len(s.Schemes))
	for name := range s.Schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot merges every attached source per scheme.  It is lock-free
// and safe to call at any time; values read from still-running threads
// are slightly stale (see the package comment's concurrency model).
func (c *Collector) Snapshot() Snapshot {
	snap := Snapshot{Schemes: make(map[string]mm.OpStats)}
	for _, src := range c.sources.load() {
		merged := snap.Schemes[src.scheme]
		merged.AddTagged(src.stats, src.thread)
		snap.Schemes[src.scheme] = merged
	}
	snap.Gauges = readGauges(&c.gauges)
	return snap
}
