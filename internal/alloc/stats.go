package alloc

// Stats counts one thread's allocator activity; Allocator.Stats returns
// a merged snapshot.  The step high-waters are the package's
// wait-freedom evidence: tests assert they stay within
// AllocStepBound/FreeStepBound (see bounds.go).
type Stats struct {
	// AllocOps and FreeOps count completed operations.
	AllocOps, FreeOps uint64
	// AllocStepsMax and FreeStepsMax are per-op step high-waters, with
	// the budget re-armed across segment attaches (each attach pays for
	// its steps with a whole segment of fresh slots).
	AllocStepsMax, FreeStepsMax uint64
	// CacheHits counts Allocs served without touching shared state.
	CacheHits uint64
	// BlocksSealed counts full freeing blocks pushed to the shared pool.
	BlocksSealed uint64
	// SharedSteps counts shard-stack CAS attempts (push and pop).
	SharedSteps uint64
	// CASFailures counts lost shard-stack CASes.
	CASFailures uint64
	// GrantsTaken counts pops served through the thread's grant cell;
	// GrantsGiven counts wins re-donated to the cursor thread.
	GrantsTaken, GrantsGiven uint64
}

// fold accumulates one shared-pool call's accounting.
func (s *Stats) fold(st *popStats) {
	s.SharedSteps += st.steps
	s.CASFailures += st.casFail
	if st.granted {
		s.GrantsTaken++
		st.granted = false
	}
	if st.gave {
		s.GrantsGiven++
		st.gave = false
	}
}

// merge adds o into s, taking the max of high-waters.
func (s *Stats) merge(o Stats) {
	s.AllocOps += o.AllocOps
	s.FreeOps += o.FreeOps
	if o.AllocStepsMax > s.AllocStepsMax {
		s.AllocStepsMax = o.AllocStepsMax
	}
	if o.FreeStepsMax > s.FreeStepsMax {
		s.FreeStepsMax = o.FreeStepsMax
	}
	s.CacheHits += o.CacheHits
	s.BlocksSealed += o.BlocksSealed
	s.SharedSteps += o.SharedSteps
	s.CASFailures += o.CASFailures
	s.GrantsTaken += o.GrantsTaken
	s.GrantsGiven += o.GrantsGiven
}
