package obs

import (
	"testing"
	"time"
)

// The span/histogram/trace hot paths sit inside every KV request; the
// observability promise is that they cost a constant number of the
// caller's own steps and zero allocations.  These guards fail the build
// the day someone adds a fmt.Sprintf or map lookup to one of them.

func TestSpanStartFinishZeroAlloc(t *testing.T) {
	tr := NewSpanTracer(2, 1024, testOpNames, testStatusNames)
	tr.LeaseGranted(0, time.Microsecond)
	if n := testing.AllocsPerRun(1000, func() {
		id := tr.Start(0, 1, 0, 42)
		if id == 0 {
			t.Fatal("Start returned 0")
		}
		tr.Finish(0, 0, 1)
	}); n != 0 {
		t.Errorf("span Start+Finish allocates %.1f times per op, want 0", n)
	}
}

func TestAnnotatorZeroAlloc(t *testing.T) {
	tr := NewSpanTracer(2, 64, nil, nil)
	if n := testing.AllocsPerRun(1000, func() {
		tr.LeaseGranted(1, 5*time.Microsecond)
		tr.SlotQuarantined(1)
	}); n != 0 {
		t.Errorf("annotator hooks allocate %.1f times per op, want 0", n)
	}
}

func TestLatencyHistRecordZeroAlloc(t *testing.T) {
	h := serverHist()
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(1234 * time.Nanosecond)
	}); n != 0 {
		t.Errorf("LatencyHist.Record allocates %.1f times per op, want 0", n)
	}
}

func TestOpShardHistRecordZeroAlloc(t *testing.T) {
	m := NewOpShardHist([]string{"get", "set", "del", "cas", "stats"}, 4)
	if n := testing.AllocsPerRun(1000, func() {
		m.Record(2, 3, 987*time.Nanosecond)
	}); n != 0 {
		t.Errorf("OpShardHist.Record allocates %.1f times per op, want 0", n)
	}
}

func TestTraceRingRecordZeroAlloc(t *testing.T) {
	r := NewTraceRing(256)
	ev := HelpEvent{TimeNS: 1, Helper: 1, Helpee: 0, Slot: 2, Link: 9, HelperSpan: 4, HelpeeSpan: 3}
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(ev)
	}); n != 0 {
		t.Errorf("TraceRing.Record allocates %.1f times per op, want 0", n)
	}
}
