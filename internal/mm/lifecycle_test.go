package mm

import (
	"sync"
	"testing"

	"wfrc/internal/arena"
)

func TestLifecycleRetireReclaimCycle(t *testing.T) {
	tr := NewLifecycleTracker(8)
	tr.NoteRetired(3)
	s := tr.Snapshot()
	if s.Retired != 1 || s.Floating != 1 || s.FloatingHWM != 1 || s.Reclaimed != 0 {
		t.Fatalf("after retire: %+v", s)
	}

	// Helping threads race on the same node: only the first note counts.
	tr.NoteRetired(3)
	if s := tr.Snapshot(); s.Retired != 1 || s.Floating != 1 {
		t.Fatalf("duplicate retire counted: %+v", s)
	}

	tr.NoteReclaimed(3)
	s = tr.Snapshot()
	if s.Reclaimed != 1 || s.Floating != 0 || s.Lag.Count != 1 {
		t.Fatalf("after reclaim: %+v", s)
	}
	if s.Lag.P50NS == 0 || s.Lag.P99NS < s.Lag.P50NS {
		t.Fatalf("lag quantiles %+v", s.Lag)
	}

	// A second reclaim of the same cycle is dropped (stamp already
	// swapped to zero).
	tr.NoteReclaimed(3)
	if s := tr.Snapshot(); s.Reclaimed != 1 || s.Floating != 0 {
		t.Fatalf("duplicate reclaim counted: %+v", s)
	}

	// The node can cycle again.
	tr.NoteRetired(3)
	tr.NoteReclaimed(3)
	if s := tr.Snapshot(); s.Retired != 2 || s.Reclaimed != 2 || s.Lag.Count != 2 {
		t.Fatalf("second cycle: %+v", s)
	}
}

// TestLifecycleReclaimWithoutRetire pins the resurrection/live-free
// semantics: a reclaim with no recorded retire is a no-op, so RC schemes
// freeing never-retired nodes (and deferred schemes cancelling a retire
// on re-reference) cannot drive the floating gauge negative.
func TestLifecycleReclaimWithoutRetire(t *testing.T) {
	tr := NewLifecycleTracker(8)
	tr.NoteReclaimed(5)
	if s := tr.Snapshot(); s.Reclaimed != 0 || s.Floating != 0 || s.Lag.Count != 0 {
		t.Fatalf("reclaim without retire counted: %+v", s)
	}
}

func TestLifecycleOutOfRangeAndNil(t *testing.T) {
	tr := NewLifecycleTracker(4)
	tr.NoteRetired(arena.Nil)
	tr.NoteReclaimed(arena.Nil)
	if s := tr.Snapshot(); s.Dropped != 0 {
		t.Fatalf("nil handle counted as dropped: %+v", s)
	}
	tr.NoteRetired(99)
	tr.NoteReclaimed(99)
	s := tr.Snapshot()
	if s.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped)
	}
	if s.Retired != 0 || s.Reclaimed != 0 || s.Floating != 0 {
		t.Fatalf("out-of-range notes mutated counters: %+v", s)
	}
}

// TestLifecycleZeroAlloc pins the hot-path discipline: notes run inside
// the schemes' reclamation paths and must never allocate.
func TestLifecycleZeroAlloc(t *testing.T) {
	tr := NewLifecycleTracker(16)
	if n := testing.AllocsPerRun(200, func() {
		tr.NoteRetired(7)
		tr.NoteReclaimed(7)
	}); n != 0 {
		t.Fatalf("lifecycle notes allocate %.1f times per cycle, want 0", n)
	}
}

// TestLifecycleConcurrentHammer drives retire/reclaim cycles from many
// goroutines — including deliberate races on shared handles — while a
// snapshot reader spins, then checks conservation.  Run under -race this
// is the tracker's publication-safety proof.
func TestLifecycleConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		nodes   = 64
		rounds  = 500
	)
	tr := NewLifecycleTracker(nodes)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := tr.Snapshot()
				if s.Floating < 0 {
					panic("floating went negative")
				}
				_ = tr.FloatingHWM()
				_ = tr.Lag().Counts()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each worker owns a disjoint handle slice but also races
				// with every other worker on handle 1, exercising the
				// idempotence CAS under contention.
				h := Handle(2 + w*7%(nodes-1))
				tr.NoteRetired(h)
				tr.NoteReclaimed(h)
				tr.NoteRetired(1)
				tr.NoteReclaimed(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	reader.Wait()

	s := tr.Snapshot()
	if s.Retired != s.Reclaimed {
		t.Fatalf("retired %d != reclaimed %d after quiescence", s.Retired, s.Reclaimed)
	}
	if s.Floating != 0 {
		t.Fatalf("floating = %d at quiescence, want 0", s.Floating)
	}
	if s.Lag.Count != s.Reclaimed {
		t.Fatalf("lag count %d != reclaimed %d", s.Lag.Count, s.Reclaimed)
	}
	if s.FloatingHWM < 1 || s.FloatingHWM > int64(workers+1) {
		t.Fatalf("floating HWM %d outside [1, %d]", s.FloatingHWM, workers+1)
	}
	if s.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", s.Dropped)
	}
}
