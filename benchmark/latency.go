package main

import (
	"math"
	"slices"
)

// recorder keeps raw latency samples: a slice preallocated before the
// window, appended to without reallocation, sorted once at the end.  No
// buckets — harness.Histogram's power-of-two buckets cannot resolve a
// 10 % change.  Samples are nanoseconds in a uint32, saturating at
// 4.29 s, which no closed-loop wait in these workloads approaches.
type recorder struct {
	samples []uint32
	dropped uint64 // samples beyond the preallocated capacity
}

func newRecorder(capacity int) *recorder {
	return &recorder{samples: make([]uint32, 0, capacity)}
}

func (r *recorder) add(ns int64) {
	if len(r.samples) == cap(r.samples) {
		r.dropped++
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	r.samples = append(r.samples, uint32(ns))
}

// latencies is the merged, sorted sample set of one window.
type latencies struct {
	sorted  []uint32
	dropped uint64
}

// sampler owns the latency memory of a run: one recorder per worker and
// a scratch slice for the merged, sorted view.  All of it is allocated
// and touched once, before the first window, and reused by every
// window — so the samples add a fixed amount to the process's resident
// set instead of one that depends on what the allocator happened to
// zero.  (In-process workloads report that process's peak RSS.)
type sampler struct {
	recs   []*recorder
	merged []uint32
}

func newSampler(workers, perWorker int) *sampler {
	s := &sampler{merged: make([]uint32, workers*perWorker)}
	for w := 0; w < workers; w++ {
		r := newRecorder(perWorker)
		clear(r.samples[:perWorker])
		s.recs = append(s.recs, r)
	}
	clear(s.merged)
	return s
}

func (s *sampler) reset() {
	for _, r := range s.recs {
		r.samples = r.samples[:0]
		r.dropped = 0
	}
}

// collect merges and sorts the recorders into the scratch slice.  The
// result aliases it and is valid until the next collect.
func (s *sampler) collect() latencies {
	l := latencies{sorted: s.merged[:0]}
	for _, r := range s.recs {
		l.sorted = append(l.sorted, r.samples...)
		l.dropped += r.dropped
	}
	slices.Sort(l.sorted)
	return l
}

func (l latencies) count() int { return len(l.sorted) }

// quantileNS returns the q-quantile in nanoseconds, interpolating
// linearly between adjacent order statistics.  The clock ticks in whole
// nanoseconds, so at sub-microsecond latencies thousands of samples tie
// on one value and the plain quantile would move in 1 ns steps; a tied
// block of value v is therefore treated as spread evenly over
// [v-0.5, v+0.5) (the grouped-data convention).  Samples without ties
// keep their value, so for sparse data this is the ordinary quantile.
func (l latencies) quantileNS(q float64) float64 {
	n := len(l.sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	i := int(rank)
	x := l.spreadAt(i)
	if i+1 < n {
		x += (rank - float64(i)) * (l.spreadAt(i+1) - x)
	}
	return x
}

// spreadAt places sorted sample k inside its tied block.
func (l latencies) spreadAt(k int) float64 {
	v := l.sorted[k]
	lo, _ := slices.BinarySearch(l.sorted, v)
	hi := len(l.sorted)
	if v != math.MaxUint32 {
		hi, _ = slices.BinarySearch(l.sorted, v+1)
	}
	return float64(v) - 0.5 + (float64(k-lo)+0.5)/float64(hi-lo)
}

func (l latencies) maxNS() float64 {
	if len(l.sorted) == 0 {
		return 0
	}
	return float64(l.sorted[len(l.sorted)-1])
}

// median and quartiles of a small float sample (run-level statistics).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
