package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/mm"
)

// Memory-lifecycle aggregation: the obs-side counterpart of
// mm.LifecycleTracker.  Schemes report retire/reclaim transitions into
// per-arena trackers (wait-free, zero-alloc — see internal/mm); this
// collector gathers one tracker per scheme label plus scheme-level
// memory gauges (block-pool segments, value liveness) into one
// published MemSnapshot, and renders the three export surfaces:
//
//   - Prometheus exposition (WriteProm): wfrc_mem_* families, with the
//     retire→free lag as a native histogram (seconds, cumulative le).
//   - A Redis INFO "# Memory" section (InfoSection), served by the RESP
//     front-end next to the scheme_* sections.
//   - The JSON snapshot itself (Snapshot), embedded in STATS replies
//     and the bench schema's server.memory object.
//
// Concurrency model follows Collector: attach/detach are cold paths on
// copy-on-write lists; Sample and the render paths only perform atomic
// loads on tracker state, so the periodic sampler (Start) never blocks —
// and can never be blocked by — the schemes' reclamation hot paths.
type LifecycleCollector struct {
	trackers attachList[trackerSource]
	gauges   attachList[gaugeSource]
	// snap is the last published sample; readers that want a consistent
	// recent view (INFO, STATS) take it instead of re-sampling.
	snap atomic.Pointer[MemSnapshot]
}

// trackerSource is one attached lifecycle tracker.  The KV server
// attaches one, to its store's one scheme.  A label is attached once:
// its readings are that one tracker's, so the HWM is the scheme's real
// peak.
type trackerSource struct {
	scheme string
	t      *mm.LifecycleTracker
}

// NewLifecycleCollector returns an empty collector.
func NewLifecycleCollector() *LifecycleCollector { return &LifecycleCollector{} }

// AttachTracker registers t's readings under a scheme label and returns
// a detach function.  Attach each label once; a second tracker under a
// label already taken hides the first.
func (c *LifecycleCollector) AttachTracker(scheme string, t *mm.LifecycleTracker) (detach func()) {
	return c.trackers.attach(trackerSource{scheme: scheme, t: t})
}

// AttachMemGauge registers a named memory gauge — occupancy numbers the
// trackers cannot see, like attached block-pool segments or live value
// blocks.  The name must be a valid
// Prometheus metric name; it is exported verbatim with a scheme label.
func (c *LifecycleCollector) AttachMemGauge(name, scheme string, read func() int64) (detach func()) {
	return c.gauges.attach(gaugeSource{name: name, scheme: scheme, read: read})
}

// MemSnapshot is one published sample: per-scheme lifecycle summaries
// plus the gauge readings, stamped with the sample time.
type MemSnapshot struct {
	At      time.Time                   `json:"at"`
	Schemes map[string]mm.LifecycleSnap `json:"schemes"`
	Gauges  []Gauge                     `json:"gauges,omitempty"`
}

// SchemeNames returns the snapshot's scheme labels, sorted.
func (s *MemSnapshot) SchemeNames() []string {
	names := make([]string, 0, len(s.Schemes))
	for name := range s.Schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// schemeLifecycle is one scheme label's tracker reading: the summary
// and the lag histogram's bucket counts, which the Prometheus family
// renders in full.
type schemeLifecycle struct {
	snap mm.LifecycleSnap
	lag  mm.LatencyCounts
}

// readings reads every tracker, one reading per scheme label.
func (c *LifecycleCollector) readings() map[string]*schemeLifecycle {
	out := make(map[string]*schemeLifecycle)
	for _, src := range c.trackers.load() {
		out[src.scheme] = &schemeLifecycle{snap: src.t.Snapshot(), lag: src.t.Lag().Counts()}
	}
	return out
}

// Sample reads every tracker and gauge, publishes the result as the
// collector's current snapshot, and returns it.  Loads only — safe at
// any frequency against running schemes.
func (c *LifecycleCollector) Sample() *MemSnapshot {
	snap := &MemSnapshot{At: time.Now(), Schemes: make(map[string]mm.LifecycleSnap)}
	for name, m := range c.readings() {
		snap.Schemes[name] = m.snap
	}
	snap.Gauges = readGauges(&c.gauges)
	c.snap.Store(snap)
	return snap
}

// Snapshot returns the last published sample, sampling once if none has
// been published yet.
func (c *LifecycleCollector) Snapshot() *MemSnapshot {
	if s := c.snap.Load(); s != nil {
		return s
	}
	return c.Sample()
}

// Start launches the periodic sampler and returns its stop function.
// Interval ≤ 0 selects one second.
func (c *LifecycleCollector) Start(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.Sample()
			case <-done:
				return
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// InfoSection renders the last sample as a Redis INFO "# Memory"
// section: per-scheme floating/HWM/lag lines followed by the gauges.
func (c *LifecycleCollector) InfoSection() InfoSection {
	snap := c.Snapshot()
	s := InfoSection{Name: "Memory"}
	for _, name := range snap.SchemeNames() {
		ls := snap.Schemes[name]
		k := infoKey(name)
		s.Fields = append(s.Fields,
			Field(k+"_retired", ls.Retired),
			Field(k+"_reclaimed", ls.Reclaimed),
			Field(k+"_floating", ls.Floating),
			Field(k+"_floating_hwm", ls.FloatingHWM),
			Field(k+"_reclaim_lag_p50_ns", ls.Lag.P50NS),
			Field(k+"_reclaim_lag_p99_ns", ls.Lag.P99NS),
			Field(k+"_reclaim_lag_max_ns", ls.Lag.MaxNS),
		)
		if ls.Dropped > 0 {
			s.Fields = append(s.Fields, Field(k+"_lifecycle_dropped", ls.Dropped))
		}
	}
	for _, g := range snap.Gauges {
		s.Fields = append(s.Fields, Field(infoKey(g.Name)+"_"+infoKey(g.Scheme), g.Value))
	}
	return s
}

// WriteProm writes the lifecycle families in Prometheus text exposition
// format, reading tracker state live (loads only).  Families:
//
//   - wfrc_mem_retired_total / wfrc_mem_reclaimed_total: lifecycle
//     transition counters.
//   - wfrc_mem_floating / wfrc_mem_floating_hwm: retired-unreclaimed
//     gauge and its high-water mark (the Lemma 3 quantity).
//   - wfrc_mem_lifecycle_dropped_total: notes on handles beyond a
//     tracker's ceiling (coverage truncation, normally 0).
//   - wfrc_mem_reclaim_lag_seconds: retire→free lag histogram with
//     cumulative le buckets at the tracker's power-of-two nanosecond
//     boundaries, converted to seconds.
//   - every attached gauge, verbatim, with a scheme label.
func (c *LifecycleCollector) WriteProm(w io.Writer) error {
	byScheme := c.readings()
	names := make([]string, 0, len(byScheme))
	for n := range byScheme {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, f := range []struct {
		name, help, typ string
		read            func(*mm.LifecycleSnap) any
	}{
		{"wfrc_mem_retired_total", "Nodes that became garbage (retire instants noted by the scheme).", "counter",
			func(s *mm.LifecycleSnap) any { return s.Retired }},
		{"wfrc_mem_reclaimed_total", "Nodes whose memory returned to the free structures.", "counter",
			func(s *mm.LifecycleSnap) any { return s.Reclaimed }},
		{"wfrc_mem_floating", "Retired-but-unreclaimed nodes right now (floating garbage; Lemma 3 bounds this).", "gauge",
			func(s *mm.LifecycleSnap) any { return s.Floating }},
		{"wfrc_mem_floating_hwm", "High-water mark of wfrc_mem_floating.", "gauge",
			func(s *mm.LifecycleSnap) any { return s.FloatingHWM }},
		{"wfrc_mem_lifecycle_dropped_total", "Lifecycle notes dropped for handles beyond the tracker ceiling.", "counter",
			func(s *mm.LifecycleSnap) any { return s.Dropped }},
	} {
		if err := header(w, f.name, f.help, f.typ); err != nil {
			return err
		}
		for _, n := range names {
			if _, err := fmt.Fprintf(w, "%s{scheme=%q} %d\n", f.name, n, f.read(&byScheme[n].snap)); err != nil {
				return err
			}
		}
	}
	if err := header(w, "wfrc_mem_reclaim_lag_seconds", "Retire-to-free lag per reclaimed node.", "histogram"); err != nil {
		return err
	}
	for _, n := range names {
		if err := byScheme[n].lag.WriteProm(w, "wfrc_mem_reclaim_lag_seconds", fmt.Sprintf("scheme=%q", n)); err != nil {
			return err
		}
	}
	gauges := readGauges(&c.gauges)
	for i, g := range gauges {
		if i == 0 || g.Name != gauges[i-1].Name {
			if err := header(w, g.Name, "Scheme-level memory gauge.", "gauge"); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s{scheme=%q} %d\n", g.Name, g.Scheme, g.Value); err != nil {
			return err
		}
	}
	return nil
}
