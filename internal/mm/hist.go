package mm

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the bucket count of LatencyHist: bucket i covers
// durations in [2^i, 2^(i+1)) nanoseconds, and the last bucket is
// open-ended (2^39 ns ≈ 9 minutes).
const LatencyBuckets = 40

// LatencyHist is the wait-free log2 nanosecond histogram behind every
// duration the tree measures: server request latency (obs.OpShardHist),
// the retire→free lag (LifecycleTracker) and the slot-lease wait
// (slotpool).  Record is one fetch-and-add on a bucket, one on the sum
// and a bounded CAS-max (hwmCASBound attempts, then give up) on the
// exact maximum, so a write is a constant number of the caller's own
// steps and never allocates — the accounting discipline Lemma 3 needs
// from anything that runs inside a helper.  Safe for concurrent use.
type LatencyHist struct {
	buckets [LatencyBuckets]atomic.Uint64
	sumNS   atomic.Uint64
	maxNS   atomic.Int64
}

// Record adds one observation.  0 ns lands in bucket 0 without
// touching the sum; a negative duration (a clock step) counts as 0 ns.
func (h *LatencyHist) Record(d time.Duration) {
	ns := max(int64(d), 0)
	b := min(max(bits.Len64(uint64(ns))-1, 0), LatencyBuckets-1)
	h.buckets[b].Add(1)
	h.sumNS.Add(uint64(ns))
	raiseTo(&h.maxNS, ns)
}

// hwmCASBound bounds every CAS-max attempt (raiseTo).
const hwmCASBound = 8

// raiseTo is the bounded CAS-max: a lost race leaves another writer's
// (also current) value in place, and after hwmCASBound failures it gives
// up rather than loop — wait-freedom over exactness.
func raiseTo(a *atomic.Int64, v int64) {
	for i := 0; i < hwmCASBound; i++ {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// LatencyCounts is a plain copy of a LatencyHist.  Copies of several
// histograms merge with Add, which sums buckets — the only merge under
// which the quantiles stay quantiles.
type LatencyCounts struct {
	Buckets      [LatencyBuckets]uint64
	SumNS, MaxNS uint64
}

// Counts copies the histogram (monotone counters: a live copy is
// slightly stale, never torn).
func (h *LatencyHist) Counts() LatencyCounts {
	var c LatencyCounts
	for i := range h.buckets {
		c.Buckets[i] = h.buckets[i].Load()
	}
	c.SumNS = h.sumNS.Load()
	c.MaxNS = uint64(h.maxNS.Load())
	return c
}

// Snapshot derives the histogram's summary.
func (h *LatencyHist) Snapshot() LatencySnap {
	c := h.Counts()
	return c.Snapshot()
}

// Add folds o into c.
func (c *LatencyCounts) Add(o *LatencyCounts) {
	for i := range c.Buckets {
		c.Buckets[i] += o.Buckets[i]
	}
	c.SumNS += o.SumNS
	c.MaxNS = max(c.MaxNS, o.MaxNS)
}

// LatencySnap is a histogram's summary.  Quantiles are bucket upper
// bounds (factor-of-two resolution) at rank round(q·n); MaxNS is the
// exact observed maximum, modulo the bounded CAS-max race.
type LatencySnap struct {
	Count uint64 `json:"count"`
	SumNS uint64 `json:"sum_ns"`
	P50NS uint64 `json:"p50_ns"`
	P99NS uint64 `json:"p99_ns"`
	// P999NS stays out of JSON: the one LatencySnap serialized is the
	// lifecycle lag object of STATS replies, whose keys are fixed.
	P999NS uint64 `json:"-"`
	MaxNS  uint64 `json:"max_ns"`
}

// Snapshot derives the summary of c.
func (c *LatencyCounts) Snapshot() LatencySnap {
	s := LatencySnap{SumNS: c.SumNS, MaxNS: c.MaxNS}
	for _, n := range c.Buckets {
		s.Count += n
	}
	if s.Count > 0 {
		s.P50NS = c.quantile(s.Count, 0.50)
		s.P99NS = c.quantile(s.Count, 0.99)
		s.P999NS = c.quantile(s.Count, 0.999)
	}
	return s
}

// quantile returns the upper bound of the bucket holding the sample of
// rank round(q·total), at least 1.
func (c *LatencyCounts) quantile(total uint64, q float64) uint64 {
	rank := max(uint64(float64(total)*q+0.5), 1)
	var cum uint64
	for i, n := range c.Buckets {
		cum += n
		if cum >= rank {
			return uint64(1) << (i + 1)
		}
	}
	return uint64(1) << LatencyBuckets
}

// latencyLE holds the le edges of LatencyCounts.WriteProm: each bucket's
// upper bound, 2^(i+1) ns, in seconds.
var latencyLE = func() (le [LatencyBuckets - 1]string) {
	for i := range le {
		le[i] = fmt.Sprintf("%g", float64(uint64(1)<<(i+1))/1e9)
	}
	return le
}()

// WriteProm writes c as one series of a Prometheus histogram family in
// seconds; labels is the series' label list without braces, or "".
func (c *LatencyCounts) WriteProm(w io.Writer, name, labels string) error {
	return WritePromHist(w, name, labels, c.Buckets[:], latencyLE[:],
		fmt.Sprintf("%g", float64(c.SumNS)/1e9))
}

// WritePromHist writes one series of a Prometheus histogram family in
// text exposition format: a cumulative _bucket line per bucket, then
// _sum and _count.  counts are per-bucket (not cumulative); le[i] is
// bucket i's upper edge as printed, and the last bucket is +Inf.
// labels is the series' label list without braces, or "" for none;
// sum is printed verbatim.  It is the one histogram writer every
// exporter shares.
func WritePromHist(w io.Writer, name, labels string, counts []uint64, le []string, sum string) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, n := range counts {
		cum += n
		edge := "+Inf"
		if i < len(counts)-1 {
			edge = le[i]
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, edge, cum); err != nil {
			return err
		}
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, labels, sum, name, labels, cum)
	return err
}
