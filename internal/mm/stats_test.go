package mm

import (
	"testing"
	"testing/quick"
)

func TestNoteDeRef(t *testing.T) {
	var s OpStats
	s.NoteDeRef(1)
	s.NoteDeRef(5)
	s.NoteDeRef(3)
	if s.DeRefs != 3 || s.DeRefSteps != 9 || s.DeRefMaxSteps != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNoteAllocFree(t *testing.T) {
	var s OpStats
	s.NoteAlloc(2)
	s.NoteAlloc(7)
	s.NoteFree(1)
	s.NoteFree(4)
	if s.Allocs != 2 || s.AllocSteps != 9 || s.AllocMaxSteps != 7 {
		t.Fatalf("alloc stats = %+v", s)
	}
	if s.Frees != 2 || s.FreeSteps != 5 || s.FreeMaxSteps != 4 {
		t.Fatalf("free stats = %+v", s)
	}
}

func TestAddMergesCountersAndMaxes(t *testing.T) {
	var a, b OpStats
	a.NoteDeRef(2)
	a.HelpsGiven = 3
	a.CASFailures = 1
	b.NoteDeRef(9)
	b.HelpsReceived = 4
	b.Retired = 2
	b.Scans = 1
	a.AllocLocal, b.AllocLocal = 5, 6
	b.FreeLocal = 7
	a.Add(&b)
	if a.DeRefs != 2 || a.DeRefSteps != 11 || a.DeRefMaxSteps != 9 {
		t.Fatalf("deref merge = %+v", a)
	}
	if a.HelpsGiven != 3 || a.HelpsReceived != 4 || a.CASFailures != 1 || a.Retired != 2 || a.Scans != 1 {
		t.Fatalf("counter merge = %+v", a)
	}
	if a.AllocLocal != 11 || a.FreeLocal != 7 {
		t.Fatalf("magazine counter merge = %+v", a)
	}
}

func TestStepHistBucketBoundaries(t *testing.T) {
	var h StepHist
	// Bucket i>0 covers [2^(i-1), 2^i); bucket 0 holds zero-step ops; the
	// last bucket absorbs everything from 2^14 up.
	cases := []struct {
		steps  uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 13, 14}, {1<<14 - 1, 14}, {1 << 14, 15}, {1 << 40, 15}, {^uint64(0), 15},
	}
	for _, c := range cases {
		h = StepHist{}
		h.Note(c.steps)
		if h.Buckets[c.bucket] != 1 {
			t.Errorf("Note(%d): want bucket %d, got %v", c.steps, c.bucket, h.Buckets)
		}
	}
}

func TestStepHistQuantile(t *testing.T) {
	var h StepHist
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	// 99 one-step ops and one 1000-step outlier: p50 stays at 1, p99
	// still covers the fast mass, max bucket bound covers the outlier.
	for i := 0; i < 99; i++ {
		h.Note(1)
	}
	h.Note(1000)
	if got := h.Quantile(0.50); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("p99 = %d, want 1", got)
	}
	if got := h.Quantile(1.0); got != BucketBound(10) {
		t.Errorf("p100 = %d, want %d", got, BucketBound(10))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
}

func TestNoteRecordsHistograms(t *testing.T) {
	var s OpStats
	s.NoteDeRef(1)
	s.NoteDeRef(3)
	s.NoteAlloc(5)
	s.NoteFree(2)
	if s.DeRefHist.Count() != 2 || s.AllocHist.Count() != 1 || s.FreeHist.Count() != 1 {
		t.Fatalf("hist counts = %d/%d/%d", s.DeRefHist.Count(), s.AllocHist.Count(), s.FreeHist.Count())
	}
	var m OpStats
	m.Add(&s)
	m.Add(&s)
	if m.DeRefHist.Count() != 4 {
		t.Fatalf("merged deref hist count = %d, want 4", m.DeRefHist.Count())
	}
}

// TestAddTaggedRecordsArgMaxThread checks that merged snapshots keep the
// id of the thread that hit each per-op maximum, including through a
// second (nested) merge, so budget-violation reports stay actionable.
func TestAddTaggedRecordsArgMaxThread(t *testing.T) {
	var t0, t1, t2 OpStats
	t0.NoteDeRef(4)
	t0.NoteAlloc(9)
	t1.NoteDeRef(17) // thread 1 holds the DeRef max
	t1.NoteAlloc(2)
	t2.NoteFree(6) // thread 2 holds the Free max

	var m OpStats
	m.AddTagged(&t0, 0)
	m.AddTagged(&t1, 1)
	m.AddTagged(&t2, 2)
	if got := m.DeRefMaxThread(); got != 1 {
		t.Errorf("DeRefMaxThread = %d, want 1", got)
	}
	if got := m.AllocMaxThread(); got != 0 {
		t.Errorf("AllocMaxThread = %d, want 0", got)
	}
	if got := m.FreeMaxThread(); got != 2 {
		t.Errorf("FreeMaxThread = %d, want 2", got)
	}

	// A nested untagged merge of the snapshot must keep the recorded
	// owners rather than lose them.
	var top OpStats
	top.NoteDeRef(3)
	top.Add(&m)
	if got := top.DeRefMaxThread(); got != 1 {
		t.Errorf("nested DeRefMaxThread = %d, want 1", got)
	}

	// Per-thread (unmerged) stats report unknown.
	if got := t1.DeRefMaxThread(); got != -1 {
		t.Errorf("per-thread DeRefMaxThread = %d, want -1", got)
	}
}

// TestAddCommutesOnTotals checks with random inputs that aggregation
// order does not change totals (max fields are order-independent too).
func TestAddCommutesOnTotals(t *testing.T) {
	f := func(d1, d2, a1, a2 uint16) bool {
		var x1, x2, y1, y2 OpStats
		x1.NoteDeRef(uint64(d1) + 1)
		x1.NoteAlloc(uint64(a1) + 1)
		y1.NoteDeRef(uint64(d2) + 1)
		y1.NoteAlloc(uint64(a2) + 1)
		x2, y2 = y1, x1

		var ab, ba OpStats
		ab.Add(&x1)
		ab.Add(&y1)
		ba.Add(&x2)
		ba.Add(&y2)
		return ab == ba
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
