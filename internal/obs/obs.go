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
//   - The collector holds an immutable, copy-on-write source list behind
//     an atomic pointer: scrapes (Snapshot, /metrics) never take a lock,
//     and attaching/detaching sources never blocks a scrape.
//   - A live scrape reads the owning threads' counters without
//     synchronization.  The counters are monotone, 64-bit aligned words,
//     so on the 64-bit platforms this module targets a scrape sees a
//     slightly stale but never torn value — the same staleness contract
//     mm.OpStats documents for its readers.  Tests that must be exact
//     (and race-detector clean) scrape at quiescence.
//
// The help-event trace ring (TraceRing) is wait-free on the write side:
// one fetch-and-add claims a slot, and per-slot sequence words make the
// reader discard slots it raced with, so tracing never adds unbounded
// steps to a helper — the property the whole scheme is about.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"wfrc/internal/mm"
)

// source is one attached per-thread stats block.
type source struct {
	scheme string
	thread int
	stats  *mm.OpStats
}

// gaugeSource is one attached scheme-level gauge (e.g. the core
// scheme's audit counter of D1 scan-bound violations).
type gaugeSource struct {
	name   string
	scheme string
	read   func() uint64
}

// Collector aggregates attached per-thread OpStats into per-scheme
// merged snapshots.  The zero value is not usable; call NewCollector.
// All methods are safe for concurrent use.
type Collector struct {
	mu      sync.Mutex // serializes attach/detach (cold path)
	sources atomic.Pointer[[]source]
	gauges  atomic.Pointer[[]gaugeSource]
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{}
	c.sources.Store(&[]source{})
	c.gauges.Store(&[]gaugeSource{})
	return c
}

// Attach registers one thread's stats block under a scheme label and
// returns a function that detaches it.  Attach is a cold path (it
// copies the source list); scrapes stay lock-free throughout.
func (c *Collector) Attach(scheme string, thread int, st *mm.OpStats) (detach func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.sources.Load()
	next := make([]source, len(old), len(old)+1)
	copy(next, old)
	next = append(next, source{scheme: scheme, thread: thread, stats: st})
	c.sources.Store(&next)
	return func() { c.detach(st) }
}

func (c *Collector) detach(st *mm.OpStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.sources.Load()
	next := make([]source, 0, len(old))
	for _, s := range old {
		if s.stats != st {
			next = append(next, s)
		}
	}
	c.sources.Store(&next)
}

// AttachGauge registers a named scheme-level gauge read on every
// scrape — e.g. core.(*Scheme).AnnScanViolations, the audit-visible
// record of a broken Lemma 2 bound.  The name must be a valid
// Prometheus metric name; it is exported verbatim with a scheme label.
func (c *Collector) AttachGauge(name, scheme string, read func() uint64) (detach func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := *c.gauges.Load()
	next := make([]gaugeSource, len(old), len(old)+1)
	copy(next, old)
	g := gaugeSource{name: name, scheme: scheme, read: read}
	next = append(next, g)
	c.gauges.Store(&next)
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		cur := *c.gauges.Load()
		out := make([]gaugeSource, 0, len(cur))
		for _, e := range cur {
			if !(e.name == g.name && e.scheme == g.scheme) {
				out = append(out, e)
			}
		}
		c.gauges.Store(&out)
	}
}

// GaugeValue is one scheme-level gauge reading in a Snapshot.
type GaugeValue struct {
	// Name is the metric name; Scheme its label; Value the reading.
	Name, Scheme string
	Value        uint64
}

// Snapshot is a merged view of every attached source at one scrape.
type Snapshot struct {
	// Schemes maps each scheme label to its merged per-thread stats.
	// Maxima carry arg-max thread ids (mm.OpStats AddTagged).
	Schemes map[string]mm.OpStats
	// Gauges holds the scheme-level gauge readings, sorted by name then
	// scheme for deterministic export.
	Gauges []GaugeValue
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
	for _, src := range *c.sources.Load() {
		merged := snap.Schemes[src.scheme]
		merged.AddTagged(src.stats, src.thread)
		snap.Schemes[src.scheme] = merged
	}
	for _, g := range *c.gauges.Load() {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: g.name, Scheme: g.scheme, Value: g.read()})
	}
	sort.Slice(snap.Gauges, func(i, j int) bool {
		if snap.Gauges[i].Name != snap.Gauges[j].Name {
			return snap.Gauges[i].Name < snap.Gauges[j].Name
		}
		return snap.Gauges[i].Scheme < snap.Gauges[j].Scheme
	})
	return snap
}
