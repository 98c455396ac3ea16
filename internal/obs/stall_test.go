package obs

import (
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

// TestStallDifferentiatesFloatingGarbage is the telemetry gate CI's
// mem-telemetry job runs by name: it checks that the floating-garbage
// high-water mark actually separates robust from non-robust reclamation
// under a stalled reader — the scenario behind the paper's footnote-4
// OOM warning and Lemma 3's point that the wait-free scheme bounds
// deleted-but-unreclaimed nodes regardless of other threads' progress.
//
// One reader enters an operation and stalls there.  A writer then
// retires `retires` nodes.  Under epoch reclamation the pinned epoch
// blocks every scan, so all of them float (floating HWM ≈ retires, far
// over the bound).  Under Hyaline the era-skip rule lodges only the
// batches from the reader's snapshot era and frees everything later, so
// the HWM stays within a small multiple of the batch threshold.  The
// bound sits between the two regimes: a scheme whose floating garbage
// scales with the stall length lands above it, a robust scheme stays
// under.
func TestStallDifferentiatesFloatingGarbage(t *testing.T) {
	const (
		threads   = 2
		threshold = 4
		retires   = 120
		// bound is the Lemma-3-style budget: a few dispatch batches per
		// thread may float at once, but nothing proportional to the number
		// of retires performed during the stall.
		bound = 3 * threads * threshold
	)
	run := func(t *testing.T, name string) *mm.LifecycleTracker {
		t.Helper()
		f, err := schemes.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := f.New(arena.Config{Nodes: 512, LinksPerNode: 2, ValsPerNode: 1, RootLinks: 1},
			schemes.Options{Threads: threads, RetireThreshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		src, ok := s.(mm.LifecycleSource)
		if !ok {
			t.Fatalf("%s does not implement mm.LifecycleSource", name)
		}
		tr := mm.NewLifecycleTracker(s.Arena().Nodes())
		src.SetLifecycleSink(tr)

		reader, err := s.Register()
		if err != nil {
			t.Fatal(err)
		}
		writer, err := s.Register()
		if err != nil {
			t.Fatal(err)
		}
		reader.BeginOp() // the chaos stall: never finishes its operation

		for i := 0; i < retires; i++ {
			h, err := writer.Alloc()
			if err != nil {
				t.Fatalf("alloc %d during stall: %v", i, err)
			}
			writer.BeginOp()
			writer.Retire(h)
			writer.Release(h)
			writer.EndOp()
		}
		stalled := tr.Snapshot()

		// The stall ends; reclamation must catch up, which is what the
		// recovery half of the telemetry story shows on the dashboard.
		reader.EndOp()
		for i := 0; i < 4*threshold; i++ {
			h, err := writer.Alloc()
			if err != nil {
				t.Fatalf("alloc %d after stall: %v", i, err)
			}
			writer.BeginOp()
			writer.Retire(h)
			writer.Release(h)
			writer.EndOp()
		}
		schemes.Flush(writer)
		schemes.Flush(reader)
		after := tr.Snapshot()
		if after.Reclaimed == 0 {
			t.Fatalf("%s never reclaimed anything, even after the stall ended: %+v", name, after)
		}
		if stalled.Retired < retires {
			t.Fatalf("%s: only %d of %d retires reached the tracker", name, stalled.Retired, retires)
		}
		reader.Unregister()
		writer.Unregister()
		t.Logf("%s: floating HWM %d during stall (bound %d), reclaimed %d after",
			name, stalled.FloatingHWM, bound, after.Reclaimed)
		return tr
	}

	t.Run("epoch-exceeds-bound", func(t *testing.T) {
		tr := run(t, "epoch")
		if hwm := tr.FloatingHWM(); hwm <= bound {
			t.Fatalf("epoch floating HWM %d under bound %d — a stalled reader should have blocked reclamation", hwm, bound)
		}
	})
	t.Run("hyaline-stays-under-bound", func(t *testing.T) {
		tr := run(t, "hyaline")
		if hwm := tr.FloatingHWM(); hwm > bound {
			t.Fatalf("hyaline floating HWM %d over bound %d — era skip should have freed post-stall batches", hwm, bound)
		}
	})
}
