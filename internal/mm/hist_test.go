package mm

import (
	"strings"
	"testing"
	"time"
)

// TestLatencyHist is the one table test of the shared nanosecond
// histogram: every case records its samples (split over two histograms
// where merge matters) and checks the bucket it expects, the summary,
// and that Record never allocates.
func TestLatencyHist(t *testing.T) {
	type want struct {
		bucket                          int // index holding the first sample; -1 to skip
		count, sum, p50, p99, p999, max uint64
	}
	cases := []struct {
		name string
		a, b []time.Duration // samples for two histograms, merged with Add
		want want
	}{
		{"empty", nil, nil, want{-1, 0, 0, 0, 0, 0, 0}},
		// bits.Len64(0)-1 == -1 must clamp to bucket 0, and 0 ns adds
		// nothing to the sum.
		{"zero", []time.Duration{0}, nil, want{0, 1, 0, 2, 2, 2, 0}},
		// A clock step backwards counts as 0 ns instead of wrapping to
		// the top bucket.
		{"negative", []time.Duration{-time.Millisecond}, nil, want{0, 1, 0, 2, 2, 2, 0}},
		// Beyond 2^39 ns everything lands in the open top bucket; the
		// maximum is still exact.
		{"top bucket", []time.Duration{time.Hour}, nil,
			want{LatencyBuckets - 1, 1, uint64(time.Hour), 1 << 40, 1 << 40, 1 << 40, uint64(time.Hour)}},
		// 1000 ns lands in [512, 1024): quantiles report the upper bound,
		// the maximum reports the sample.
		{"exact max", []time.Duration{1000, 1000, 999}, nil, want{9, 3, 2999, 1024, 1024, 1024, 1000}},
		// One ~1 ms outlier in 101 moves p999 and the maximum, not the
		// median or p99 (ranks round(q·n): 51, 100, 101).
		{"quantiles", repeat(1000, 100), []time.Duration{time.Millisecond},
			want{9, 101, 100*1000 + 1_000_000, 1024, 1024, 1 << 20, 1_000_000}},
		// The merge sums buckets: a second histogram's single slow sample
		// is one sample of the merged distribution, not its median.
		{"merge", repeat(128, 100), []time.Duration{4 * time.Millisecond},
			want{7, 101, 100*128 + 4_000_000, 256, 256, 1 << 22, 4_000_000}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a, b LatencyHist
			for _, d := range tc.a {
				a.Record(d)
			}
			for _, d := range tc.b {
				b.Record(d)
			}
			c, cb := a.Counts(), b.Counts()
			c.Add(&cb)
			if w := tc.want; w.bucket >= 0 && c.Buckets[w.bucket] == 0 {
				t.Errorf("bucket %d empty: %v", w.bucket, c.Buckets)
			}
			s := c.Snapshot()
			got := want{tc.want.bucket, s.Count, s.SumNS, s.P50NS, s.P99NS, s.P999NS, s.MaxNS}
			if got != tc.want {
				t.Errorf("summary = %+v, want %+v", got, tc.want)
			}
		})
	}

	var h LatencyHist
	if n := testing.AllocsPerRun(1000, func() { h.Record(1234 * time.Nanosecond) }); n != 0 {
		t.Errorf("Record allocates %.1f times per op, want 0", n)
	}
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// TestWritePromHist pins the shared Prometheus histogram writer's
// format with and without labels: cumulative buckets, the last one +Inf
// and equal to _count.
func TestWritePromHist(t *testing.T) {
	var b strings.Builder
	if err := WritePromHist(&b, "x", `scheme="a"`, []uint64{1, 0, 2}, []string{"1", "3"}, "9"); err != nil {
		t.Fatal(err)
	}
	if err := WritePromHist(&b, "y", "", []uint64{4, 1}, []string{"0.5"}, "2.5"); err != nil {
		t.Fatal(err)
	}
	want := `x_bucket{scheme="a",le="1"} 1
x_bucket{scheme="a",le="3"} 1
x_bucket{scheme="a",le="+Inf"} 3
x_sum{scheme="a"} 9
x_count{scheme="a"} 3
y_bucket{le="0.5"} 4
y_bucket{le="+Inf"} 5
y_sum 2.5
y_count 5
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
