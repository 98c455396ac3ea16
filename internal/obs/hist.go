package obs

import (
	"fmt"
	"io"
	"time"

	"wfrc/internal/mm"
)

// OpShardHist is a fixed matrix of mm.LatencyHists, one per op×column
// — the per-request latency distributions the KV stack exports as
// Prometheus histograms.  A column is a single-writer partition (the
// server uses one per slot, wfrc-load one per connection), not a label:
// every read merges the columns.  Everything is preallocated at
// construction; Record stays wait-free and zero-alloc.  The type keeps
// its name for benchmark/; the name goes with the next benchmark PR.
type OpShardHist struct {
	ops   []string
	cols  int
	hists []mm.LatencyHist
}

// NewOpShardHist builds the matrix: len(ops) op rows × cols columns.
func NewOpShardHist(ops []string, cols int) *OpShardHist {
	cols = max(cols, 1)
	return &OpShardHist{
		ops:   ops,
		cols:  cols,
		hists: make([]mm.LatencyHist, len(ops)*cols),
	}
}

// Record adds one observation for (op, col).  Out-of-range indices are
// dropped rather than panicking mid-request.
func (m *OpShardHist) Record(op, col int, d time.Duration) {
	if op < 0 || op >= len(m.ops) || col < 0 || col >= m.cols {
		return
	}
	m.hists[op*m.cols+col].Record(d)
}

// Hist returns the (op, col) histogram, for tests and direct reads.
func (m *OpShardHist) Hist(op, col int) *mm.LatencyHist {
	return &m.hists[op*m.cols+col]
}

// OpNames returns the op-row labels.
func (m *OpShardHist) OpNames() []string { return m.ops }

// mergedCounts folds one op's histograms across every column.
func (m *OpShardHist) mergedCounts(op int) mm.LatencyCounts {
	var merged mm.LatencyCounts
	for col := 0; col < m.cols; col++ {
		c := m.hists[op*m.cols+col].Counts()
		merged.Add(&c)
	}
	return merged
}

// MergedOp summarizes one op's histograms across every column — the
// per-op quantiles.
func (m *OpShardHist) MergedOp(op int) mm.LatencySnap {
	c := m.mergedCounts(op)
	return c.Snapshot()
}

// WriteProm writes the matrix as one Prometheus histogram family,
// wfrc_server_latency_seconds{op}, columns merged, with cumulative le
// buckets at the factor-of-two nanosecond boundaries.  Registered on the
// obs HTTP server through Server.AddProm.
func (m *OpShardHist) WriteProm(w io.Writer) error {
	const name = "wfrc_server_latency_seconds"
	if err := header(w, name, "Server-side request latency by protocol op.", "histogram"); err != nil {
		return err
	}
	for op, opName := range m.ops {
		c := m.mergedCounts(op)
		if err := c.WriteProm(w, name, fmt.Sprintf("op=%q", opName)); err != nil {
			return err
		}
	}
	return nil
}
