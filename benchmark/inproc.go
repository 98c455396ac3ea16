package main

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"wfrc/internal/arena"
	"wfrc/internal/ds/hashmap"
	"wfrc/internal/ds/pqueue"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

// inproc hosts pq-churn and map-read: the structure, its scheme and the
// W worker threads all live in this process, and every layer is driven
// through its public functions only.
type inproc struct {
	workload string
	workers  int
	scheme   mm.Scheme
	threads  []mm.Thread
	streams  []*stream
	pq       *pqueue.PQueue
	m        *hashmap.Map
	// present[w] tracks which of worker w's own keys (≡ w mod W) are in
	// the map; see stream.ownKey.
	present [][]bool
	counts  []uint64 // per-worker op counter behind the 1-in-32 stride
	life    *mm.LifecycleTracker
}

// schemeFor names the reclamation scheme each workload runs on.
// pq-churn is the paper's workload on the paper's scheme; map-read runs
// on the deferred variant, whose pin table and delta cache exist for
// exactly its DeRef/Release-heavy path; the KV server's store uses the
// immediate scheme.
func schemeFor(workload string) string {
	if workload == wlMapRead {
		return "waitfree-deferred"
	}
	return "waitfree"
}

func pqArenaConfig() arena.Config {
	return arena.Config{Nodes: pqArena, LinksPerNode: pqMaxLevel, ValsPerNode: 4, RootLinks: pqMaxLevel + 2}
}

func mapArenaConfig() arena.Config {
	return arena.Config{Nodes: 1 << 16, LinksPerNode: 1, ValsPerNode: 2, RootLinks: mapBuckets + 2}
}

// newPQ builds the pq-churn structure on a fresh arena and prefills it
// through a temporary registration of thread slot 0.
func newPQ(schemeName string, threads int, seed uint64) (mm.Scheme, *pqueue.PQueue, error) {
	f, err := schemes.ByName(schemeName)
	if err != nil {
		return nil, nil, err
	}
	s, err := f.New(pqArenaConfig(), schemes.Options{Threads: threads})
	if err != nil {
		return nil, nil, err
	}
	pq, err := pqueue.New(s, pqueue.Config{MaxLevel: pqMaxLevel})
	if err != nil {
		return nil, nil, err
	}
	t, err := s.Register()
	if err != nil {
		return nil, nil, err
	}
	defer t.Unregister()
	for i := 0; i < pqPrefill; i++ {
		k := pqPrefillKey(seed, i)
		if err := pq.Insert(t, k, valueOf(k)); err != nil {
			return nil, nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return s, pq, nil
}

// newMap builds the map-read structure with every even key present.
func newMap(schemeName string, threads int) (mm.Scheme, *hashmap.Map, error) {
	f, err := schemes.ByName(schemeName)
	if err != nil {
		return nil, nil, err
	}
	s, err := f.New(mapArenaConfig(), schemes.Options{Threads: threads})
	if err != nil {
		return nil, nil, err
	}
	m, err := hashmap.New(s, hashmap.Config{Buckets: mapBuckets})
	if err != nil {
		return nil, nil, err
	}
	t, err := s.Register()
	if err != nil {
		return nil, nil, err
	}
	defer t.Unregister()
	for k := uint64(0); k < mapKeySpace; k += 2 {
		if _, err := m.Insert(t, k, valueOf(k)); err != nil {
			return nil, nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return s, m, nil
}

// setupInproc is one complete set-up: arena, scheme, structure, prefill
// and thread registration.  setup_s times exactly this.
func setupInproc(workload string, seed uint64, workers int) (*inproc, error) {
	sys := &inproc{workload: workload, workers: workers, counts: make([]uint64, workers)}
	var err error
	if workload == wlPQChurn {
		sys.scheme, sys.pq, err = newPQ(schemeFor(workload), workers, seed)
	} else {
		sys.scheme, sys.m, err = newMap(schemeFor(workload), workers)
	}
	if err != nil {
		return nil, err
	}
	for w := 0; w < workers; w++ {
		t, err := sys.scheme.Register()
		if err != nil {
			return nil, err
		}
		sys.threads = append(sys.threads, t)
		sys.streams = append(sys.streams, newStream(workload, seed, w, workers))
		if workload == wlMapRead {
			p := make([]bool, mapKeySpace)
			for k := 0; k < mapKeySpace; k += 2 {
				p[k] = k%workers == w
			}
			sys.present = append(sys.present, p)
		}
	}
	return sys, nil
}

func (s *inproc) sutPID() int { return os.Getpid() }

func (s *inproc) beginTrace() {
	if src, ok := s.scheme.(mm.LifecycleSource); ok {
		s.life = mm.NewLifecycleTracker(s.scheme.Arena().MaxNodes())
		src.SetLifecycleSink(s.life)
	}
}

func (s *inproc) samplesPerOp() float64 { return 1.0 / sampleEvery }

func (s *inproc) run(d time.Duration, smp *sampler, tr *tracer) (window, error) {
	body := s.pqWorker
	if s.workload == wlMapRead {
		body = s.mapWorker
	}
	return drive(s.workers, d, smp, tr, s.sutPID(), body)
}

// sample closes a timed op that ended at t1: one latency sample if the
// op succeeded (a failed op has no latency figure) and, in the traced
// window, one span either way.
func sample(rec *recorder, lane *spanLane, name uint8, req uint64, t0, t1 int64, ok bool) {
	if rec != nil && ok {
		rec.add(t1 - t0)
	}
	if lane != nil {
		lane.record(name, 0, uint32(req), t0, t1)
	}
}

// stamp reads the clock for a timed op only.
func stamp(timed bool) int64 {
	if timed {
		return nowNS()
	}
	return 0
}

func (s *inproc) pqWorker(w int, stop *atomic.Bool, rec *recorder, lane *spanLane) (tl workerTally) {
	t, st, pq := s.threads[w], s.streams[w], s.pq
	timing := rec != nil || lane != nil
	n := s.counts[w]
	for !stop.Load() {
		o := st.next()
		timed := timing && n%sampleEvery == 0
		var t1 int64
		var name uint8
		var ok bool
		t0 := stamp(timed)
		if o.kind == opWrite {
			err := pq.Insert(t, o.key, valueOf(o.key))
			t1 = stamp(timed)
			name, ok = spPQInsert, err == nil
		} else {
			k, v, found := pq.DeleteMin(t)
			t1 = stamp(timed)
			name, ok = spPQDeleteMin, found && v == valueOf(k)
		}
		if timed {
			sample(rec, lane, name, n, t0, t1, ok)
		}
		if !ok {
			tl.failed++
		}
		tl.attempted++
		n++
	}
	s.counts[w] = n
	return tl
}

func (s *inproc) mapWorker(w int, stop *atomic.Bool, rec *recorder, lane *spanLane) (tl workerTally) {
	t, st, m, present := s.threads[w], s.streams[w], s.m, s.present[w]
	timing := rec != nil || lane != nil
	own := func(key uint64) bool { return key%uint64(s.workers) == uint64(w) }
	n := s.counts[w]
	for !stop.Load() {
		o := st.next()
		timed := timing && n%sampleEvery == 0
		var t1 int64
		var name uint8
		var ok bool
		t0 := stamp(timed)
		switch o.kind {
		case opRead:
			v, found := m.Get(t, o.key)
			t1 = stamp(timed)
			tl.reads++
			if found {
				tl.hits++
			}
			// The value is always checkable; presence only on keys no
			// other worker updates.
			name = spMapGet
			ok = (!found || v == valueOf(o.key)) && (!own(o.key) || found == present[o.key])
		case opWrite:
			inserted, err := m.Insert(t, o.key, valueOf(o.key))
			t1 = stamp(timed)
			name, ok = spMapInsert, err == nil && inserted != present[o.key]
			if err == nil {
				present[o.key] = true
			}
		default:
			deleted := m.Delete(t, o.key)
			t1 = stamp(timed)
			name, ok = spMapDelete, deleted == present[o.key]
			present[o.key] = false
		}
		if timed {
			sample(rec, lane, name, n, t0, t1, ok)
		}
		if !ok {
			tl.failed++
		}
		tl.attempted++
		n++
	}
	s.counts[w] = n
	return tl
}

func (s *inproc) counters() (layerCounters, error) {
	var c layerCounters
	for _, t := range s.threads {
		c.stats.AddTagged(t.Stats(), t.ID())
	}
	if cs, ok := s.scheme.(interface{ AnnScanViolations() uint64 }); ok {
		// The scheme-level counter also sees violations on threads that
		// have since unregistered (the prefill thread).
		c.stats.AnnScanViolations = max(c.stats.AnnScanViolations, cs.AnnScanViolations())
	}
	if s.life != nil {
		c.life = s.life.Snapshot()
	}
	return c, nil
}

// finish checks the structure's final size against what the workload
// must leave behind, then flushes deferred reclamation state and runs
// the scheme's quiescent reference-count audit.
func (s *inproc) finish() error {
	var errs []error
	if s.workload == wlPQChurn {
		// Strict Insert/DeleteMin alternation: each worker is at most one
		// Insert ahead.
		if n := s.pq.Len(); n < pqPrefill || n > pqPrefill+s.workers {
			errs = append(errs, fmt.Errorf("pq-churn: final size %d, want %d..%d", n, pqPrefill, pqPrefill+s.workers))
		}
	} else {
		want := 0
		for w := range s.present {
			for k, p := range s.present[w] {
				if p && k%s.workers == w {
					want++
				}
			}
		}
		if n := s.m.Len(); n != want {
			errs = append(errs, fmt.Errorf("map-read: final size %d, workers' presence maps say %d", n, want))
		}
	}
	schemes.Flush(s.threads...)
	for _, err := range schemes.AuditRC(s.scheme, nil) {
		errs = append(errs, fmt.Errorf("audit: %w", err))
	}
	for _, t := range s.threads {
		t.Unregister()
	}
	return errors.Join(errs...)
}
