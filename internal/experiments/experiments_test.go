package experiments

import (
	"strings"
	"testing"

	"wfrc/internal/core"
)

// quickParams shrinks every experiment to smoke-test size.
func quickParams() Params {
	return Params{MaxThreads: 4, OpsPerThread: 2000, Quick: true}
}

// TestAllExperimentsRun executes the whole registry at smoke size: every
// experiment must complete without error and produce at least one
// non-empty table.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(quickParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Errorf("table %q has no rows", tbl.Title)
				}
				out := tbl.Render()
				if !strings.Contains(out, "==") {
					t.Errorf("table %q renders badly:\n%s", tbl.Title, out)
				}
			}
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	if len(Registry()) != 10 {
		t.Fatalf("registry has %d experiments, want 10", len(Registry()))
	}
	for _, id := range IDs() {
		e, err := ByID(id)
		if err != nil || e.ID != id {
			t.Errorf("ByID(%q) = %v, %v", id, e.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted unknown id")
	}
}

// TestE2ShapeHolds asserts the paper's core qualitative claim at smoke
// scale: under writer pressure the wait-free DeRef stays within Lemma 2's
// 2n announcement-slot probes.  Exactly one probe per DeRef is what a
// single CPU shows, not what the paper proves: under real parallelism a
// helper's busy pin can make the D1 scan skip a slot.
func TestE2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("contention test")
	}
	const writers = 3
	mean, max, _, err := e2WaitFree(writers, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if bound := uint64(core.AnnScanBound(writers + 1)); max < 1 || max > bound {
		t.Errorf("wait-free DeRef max steps = %d, want within [1, %d] (Lemma 2)", max, bound)
	}
	if mean < 1 {
		t.Errorf("wait-free DeRef mean steps = %f, want >= 1", mean)
	}
}

// TestE7ShapeHolds asserts OOM detection stays within the configured
// bound and recovers.
func TestE7ShapeHolds(t *testing.T) {
	tables, err := E7OutOfMemory(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("E7 row %v did not recover", row)
		}
	}
}
