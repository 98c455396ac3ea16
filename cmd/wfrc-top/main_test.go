package main

import (
	"os"
	"path/filepath"
	"testing"

	"wfrc/internal/obs"
)

// writeDump writes a two-span flight dump (the shape obs's
// TestFlightDumpGolden pins) whose single help event names helpeeSpan
// as the span it helped, and returns the file's path.
func writeDump(t *testing.T, helpeeSpan uint64) string {
	t.Helper()
	tr := obs.NewSpanTracer(2, 16, []string{"get", "set"}, []string{"ok"})
	tr.Start(0, 0, 0, 42)
	tr.Finish(0, 0, 1)
	tr.Start(1, 1, 0, 43)
	tr.Finish(1, 0, 0)
	ring := obs.NewTraceRing(16)
	ring.Record(obs.HelpEvent{TimeNS: 1111, Helper: 1, Helpee: 0, Slot: 3, Link: 9, HelperSpan: 2, HelpeeSpan: helpeeSpan})

	path := filepath.Join(t.TempDir(), "flight.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteFlightDump(f, tr, ring); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckFlightExitCodes pins the -flight contract CI gates on: 0 for
// a dump with a help event that joins a recorded span, 1 for a dump
// without one, 1 for anything that is not a dump.
func TestCheckFlightExitCodes(t *testing.T) {
	if code := checkFlight(writeDump(t, 1)); code != 0 {
		t.Errorf("dump with a joined help: exit %d, want 0", code)
	}
	if code := checkFlight(writeDump(t, 99)); code != 1 {
		t.Errorf("dump whose help event joins no span: exit %d, want 1", code)
	}
	notDump := filepath.Join(t.TempDir(), "not-a-dump.json")
	if err := os.WriteFile(notDump, []byte(`{"schema":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFlight(notDump); code != 1 {
		t.Errorf("non-dump: exit %d, want 1", code)
	}
	if code := checkFlight(filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestHistQuantileMergesLabelSets pins the merge of a histogram family's
// label sets: series a holds 100 samples at or under 1µs and series b
// 100 samples at or under 1ms, so the union's p99 is in b's bucket.
// Appending the two series' cumulative buckets side by side instead
// reads a's +Inf count as "99 % reached" at 1µs.
func TestHistQuantileMergesLabelSets(t *testing.T) {
	s := parseProm([]byte(`lag_bucket{scheme="a",le="1e-06"} 100
lag_bucket{scheme="a",le="0.001"} 100
lag_bucket{scheme="a",le="+Inf"} 100
lag_bucket{scheme="b",le="1e-06"} 0
lag_bucket{scheme="b",le="0.001"} 100
lag_bucket{scheme="b",le="+Inf"} 100
`))
	if got := s.histQuantile("lag", 0.99); got != 1e-3 {
		t.Errorf("p99 = %g, want 1e-03", got)
	}
	if got := s.histQuantile("lag", 0.50); got != 1e-6 {
		t.Errorf("p50 = %g, want 1e-06", got)
	}
	if got := s.histQuantile("absent", 0.5); got != 0 {
		t.Errorf("absent family: %g, want 0", got)
	}
}
