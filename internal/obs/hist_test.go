package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wfrc/internal/mm"
)

// serverHist is one cell of the per-op × shard request-latency matrix:
// the shared mm.LatencyHist as the server records into it.
func serverHist() *mm.LatencyHist {
	return NewOpShardHist([]string{"get"}, 1).Hist(0, 0)
}

func TestLatencyHistSnapshot(t *testing.T) {
	h := serverHist()
	if snap := h.Snapshot(); snap.Count != 0 || snap.P50NS != 0 || snap.MaxNS != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
	// 1000ns lands in bucket [512, 1024): every quantile reports the
	// upper bound 1024, the maximum the sample itself.
	for i := 0; i < 100; i++ {
		h.Record(1000 * time.Nanosecond)
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.SumNS != 100_000 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.SumNS)
	}
	if snap.P50NS != 1024 || snap.P99NS != 1024 || snap.P999NS != 1024 || snap.MaxNS != 1000 {
		t.Fatalf("quantiles = %+v, want all 1024 and max 1000", snap)
	}
	// One outlier at 1ms moves the tail but not the median.
	h.Record(time.Millisecond)
	snap = h.Snapshot()
	if snap.P50NS != 1024 {
		t.Errorf("p50 = %d, want 1024", snap.P50NS)
	}
	if snap.MaxNS != uint64(time.Millisecond) {
		t.Errorf("max = %d, want %d (the exact 1ms sample)", snap.MaxNS, time.Millisecond)
	}
}

func TestLatencyHistExtremes(t *testing.T) {
	h := serverHist()
	h.Record(0)                 // 0ns: bits.Len64(0)-1 == -1 must clamp to bucket 0
	h.Record(time.Hour)         // beyond the last bucket: clamps there
	h.Record(-time.Millisecond) // negative (clock step): treated as 0ns, bucket 0
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d", snap.Count)
	}
	if snap.P50NS != 2 {
		t.Errorf("p50 = %d, want 2 (upper bound of bucket 0 holding both 0ns samples)", snap.P50NS)
	}
	if snap.SumNS != uint64(time.Hour.Nanoseconds()) {
		t.Errorf("sum = %d, want %d (0ns and negative samples must not contribute)",
			snap.SumNS, time.Hour.Nanoseconds())
	}
	if c := h.Counts(); c.Buckets[mm.LatencyBuckets-1] != 1 {
		t.Errorf("1h sample: top bucket = %d, want 1", c.Buckets[mm.LatencyBuckets-1])
	}
	// Bucket-0 regression: a single 0ns sample lands in buckets[0], not
	// buckets[-1] (which would corrupt the adjacent field or panic).
	z := serverHist()
	z.Record(0)
	c := z.Counts()
	if c.Buckets[0] != 1 {
		t.Fatalf("0ns sample: buckets[0] = %d, want 1", c.Buckets[0])
	}
	if c.SumNS != 0 {
		t.Errorf("0ns sample inflated sum to %d", c.SumNS)
	}
}

func TestOpShardHist(t *testing.T) {
	m := NewOpShardHist([]string{"get", "set"}, 2)
	m.Record(0, 0, time.Microsecond)
	m.Record(0, 1, time.Microsecond)
	m.Record(0, 1, 100*time.Microsecond)
	m.Record(1, 0, 10*time.Microsecond)
	// Out-of-range records are dropped, not panics.
	m.Record(-1, 0, time.Second)
	m.Record(2, 0, time.Second)
	m.Record(0, 2, time.Second)

	if got := m.Hist(0, 1).Snapshot().Count; got != 2 {
		t.Errorf("get/shard1 count = %d, want 2", got)
	}
	merged := m.MergedOp(0)
	if merged.Count != 3 {
		t.Fatalf("merged get count = %d, want 3", merged.Count)
	}
	if merged.P50NS != 1024 {
		t.Errorf("merged get p50 = %d, want 1024 (1µs bucket bound)", merged.P50NS)
	}
	if want := uint64(100 * time.Microsecond); merged.MaxNS != want {
		t.Errorf("merged get max = %d, want %d (the exact 100µs sample)", merged.MaxNS, want)
	}
	if got := m.MergedOp(1).Count; got != 1 {
		t.Errorf("merged set count = %d, want 1", got)
	}

	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE wfrc_server_latency_seconds histogram",
		`wfrc_server_latency_seconds_bucket{op="get",shard="1",le="+Inf"} 2`,
		`wfrc_server_latency_seconds_count{op="get",shard="0"} 1`,
		`wfrc_server_latency_seconds_count{op="set",shard="0"} 1`,
		`le="1.024e-06"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(out, `wfrc_server_latency_seconds_bucket{op="set",shard="0",le="+Inf"} 1`) {
		t.Errorf("set/shard0 +Inf bucket wrong:\n%s", out)
	}
}
