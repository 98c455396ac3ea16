package obs

import (
	"fmt"
	"io"
	"time"

	"wfrc/internal/mm"
)

// OpShardHist is a fixed matrix of mm.LatencyHists, one per op×shard —
// the per-request server-side latency distributions the KV stack
// exports as Prometheus histograms.  Everything is preallocated at
// construction; Record stays wait-free and zero-alloc.
type OpShardHist struct {
	ops    []string
	shards int
	hists  []mm.LatencyHist
}

// NewOpShardHist builds the matrix: len(ops) op rows × shards columns.
func NewOpShardHist(ops []string, shards int) *OpShardHist {
	if shards < 1 {
		shards = 1
	}
	return &OpShardHist{
		ops:    ops,
		shards: shards,
		hists:  make([]mm.LatencyHist, len(ops)*shards),
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
func (m *OpShardHist) Hist(op, shard int) *mm.LatencyHist {
	return &m.hists[op*m.shards+shard]
}

// OpNames returns the op-row labels.
func (m *OpShardHist) OpNames() []string { return m.ops }

// MergedOp folds one op's histograms across every shard into a single
// summary — the per-op server-side quantiles.
func (m *OpShardHist) MergedOp(op int) mm.LatencySnap {
	var merged mm.LatencyCounts
	for sh := 0; sh < m.shards; sh++ {
		c := m.hists[op*m.shards+sh].Counts()
		merged.Add(&c)
	}
	return merged.Snapshot()
}

// WriteProm writes the matrix as one Prometheus histogram family,
// wfrc_server_latency_seconds{op,shard}, with cumulative le buckets at
// the factor-of-two nanosecond boundaries.  Registered on the obs HTTP
// server through Server.AddProm.
func (m *OpShardHist) WriteProm(w io.Writer) error {
	const name = "wfrc_server_latency_seconds"
	if err := header(w, name, "Server-side request latency by protocol op and store shard.", "histogram"); err != nil {
		return err
	}
	for op, opName := range m.ops {
		for sh := 0; sh < m.shards; sh++ {
			c := m.hists[op*m.shards+sh].Counts()
			if err := c.WriteProm(w, name, fmt.Sprintf("op=%q,shard=\"%d\"", opName, sh)); err != nil {
				return err
			}
		}
	}
	return nil
}
