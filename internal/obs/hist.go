package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHistBuckets is the bucket count of LatencyHist: bucket i
// covers durations in [2^i, 2^(i+1)) nanoseconds, the last bucket is
// open-ended (2^39 ns ≈ 9 minutes — far beyond any sane request).
const LatencyHistBuckets = 40

// LatencyHist is a wait-free log2 latency histogram: Record is one
// fetch-and-add per bucket plus one for the sum — no CAS loop, no
// lock, no allocation — so instrumenting the request hot path adds a
// constant number of the caller's own steps, the same accounting
// discipline the scheme's proofs use.  It is safe for concurrent use,
// because KV requests complete on many goroutines at once; a
// single-writer user such as wfrc-load pays only uncontended atomics.
type LatencyHist struct {
	buckets [LatencyHistBuckets]atomic.Uint64
	sumNS   atomic.Uint64
}

// Record adds one observation.  Wait-free, zero-alloc.  Sub-nanosecond
// (0ns) observations — possible on coarse clocks whose two readings tie
// — land in bucket 0 without distorting the recorded sum; negative
// durations (clock steps) are treated as 0ns rather than wrapping to
// the top bucket.
func (h *LatencyHist) Record(d time.Duration) {
	var ns uint64
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	b := bits.Len64(ns) - 1
	if b < 0 {
		b = 0 // bits.Len64(0) == 0: a 0ns sample must not index bucket -1
	}
	if b >= LatencyHistBuckets {
		b = LatencyHistBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sumNS.Add(ns)
}

// LatencySnap is one histogram's derived summary.  Quantiles and Max
// are bucket upper bounds (factor-of-two resolution).
type LatencySnap struct {
	Count  uint64 `json:"count"`
	SumNS  uint64 `json:"sum_ns"`
	P50NS  uint64 `json:"p50_ns"`
	P99NS  uint64 `json:"p99_ns"`
	P999NS uint64 `json:"p999_ns"`
	MaxNS  uint64 `json:"max_ns"`
}

// snapshotBuckets copies the bucket counts (monotone counters; a live
// snapshot is slightly stale, never torn).
func (h *LatencyHist) snapshotBuckets() (buckets [LatencyHistBuckets]uint64, sumNS uint64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return buckets, h.sumNS.Load()
}

func bucketQuantile(buckets [LatencyHistBuckets]uint64, total uint64, q float64) uint64 {
	if total == 0 {
		return 0
	}
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
	return uint64(1) << LatencyHistBuckets
}

// Snapshot derives the summary quantiles.
func (h *LatencyHist) Snapshot() LatencySnap {
	buckets, sumNS := h.snapshotBuckets()
	var total uint64
	maxBucket := -1
	for i, c := range buckets {
		total += c
		if c > 0 {
			maxBucket = i
		}
	}
	snap := LatencySnap{Count: total, SumNS: sumNS}
	if total == 0 {
		return snap
	}
	snap.P50NS = bucketQuantile(buckets, total, 0.50)
	snap.P99NS = bucketQuantile(buckets, total, 0.99)
	snap.P999NS = bucketQuantile(buckets, total, 0.999)
	snap.MaxNS = uint64(1) << (maxBucket + 1)
	return snap
}

// OpShardHist is a fixed matrix of LatencyHists, one per op×shard — the
// per-request server-side latency distributions the KV stack exports as
// Prometheus histograms.  Everything is preallocated at construction;
// Record stays wait-free and zero-alloc.
type OpShardHist struct {
	ops    []string
	shards int
	hists  []LatencyHist
}

// NewOpShardHist builds the matrix: len(ops) op rows × shards columns.
func NewOpShardHist(ops []string, shards int) *OpShardHist {
	if shards < 1 {
		shards = 1
	}
	return &OpShardHist{
		ops:    ops,
		shards: shards,
		hists:  make([]LatencyHist, len(ops)*shards),
	}
}

// Record adds one observation for (op, shard).  Out-of-range indices
// are dropped rather than panicking mid-request.
func (m *OpShardHist) Record(op, shard int, d time.Duration) {
	if op < 0 || op >= len(m.ops) || shard < 0 || shard >= m.shards {
		return
	}
	m.hists[op*m.shards+shard].Record(d)
}

// Hist returns the (op, shard) histogram, for tests and direct reads.
func (m *OpShardHist) Hist(op, shard int) *LatencyHist {
	return &m.hists[op*m.shards+shard]
}

// OpNames returns the op-row labels.
func (m *OpShardHist) OpNames() []string { return m.ops }

// MergedOp folds one op's histograms across every shard into a single
// summary — the per-op server-side quantiles.
func (m *OpShardHist) MergedOp(op int) LatencySnap {
	var buckets [LatencyHistBuckets]uint64
	var sumNS uint64
	for sh := 0; sh < m.shards; sh++ {
		b, s := m.hists[op*m.shards+sh].snapshotBuckets()
		for i := range buckets {
			buckets[i] += b[i]
		}
		sumNS += s
	}
	var total uint64
	maxBucket := -1
	for i, c := range buckets {
		total += c
		if c > 0 {
			maxBucket = i
		}
	}
	snap := LatencySnap{Count: total, SumNS: sumNS}
	if total == 0 {
		return snap
	}
	snap.P50NS = bucketQuantile(buckets, total, 0.50)
	snap.P99NS = bucketQuantile(buckets, total, 0.99)
	snap.P999NS = bucketQuantile(buckets, total, 0.999)
	snap.MaxNS = uint64(1) << (maxBucket + 1)
	return snap
}

// WriteProm writes the matrix as one Prometheus histogram family,
// wfrc_server_latency_seconds{op,shard}, with cumulative le buckets at
// the factor-of-two nanosecond boundaries.  Registered on the obs HTTP
// server through Server.AddProm.
func (m *OpShardHist) WriteProm(w io.Writer) error {
	const name = "wfrc_server_latency_seconds"
	if _, err := fmt.Fprintf(w,
		"# HELP %s Server-side request latency by protocol op and store shard.\n# TYPE %s histogram\n",
		name, name); err != nil {
		return err
	}
	for op, opName := range m.ops {
		for sh := 0; sh < m.shards; sh++ {
			buckets, sumNS := m.hists[op*m.shards+sh].snapshotBuckets()
			var cum uint64
			for i, c := range buckets {
				cum += c
				le := "+Inf"
				if i < LatencyHistBuckets-1 {
					le = fmt.Sprintf("%g", float64(uint64(1)<<(i+1))/1e9)
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{op=%q,shard=\"%d\",le=%q} %d\n",
					name, opName, sh, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum{op=%q,shard=\"%d\"} %g\n%s_count{op=%q,shard=\"%d\"} %d\n",
				name, opName, sh, float64(sumNS)/1e9, name, opName, sh, cum); err != nil {
				return err
			}
		}
	}
	return nil
}
