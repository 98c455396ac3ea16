package schemes

import (
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/baseline/valois"
	"wfrc/internal/core"
)

// swingsInWindow runs one dereference of a root link on the named
// scheme with the reader paused, k times, inside the dereference's
// vulnerable window — after the optimistic reference-count increment,
// before the validation step.  At each pause an adversary thread swings
// the link to a fresh node.  The adversary is a second thread slot
// driven from the reader's own hook, which makes the schedule exact: no
// goroutine, no luck.  It returns the reader's step count for that
// dereference and the number of pauses that fired, after a clean
// reference-count audit.
func swingsInWindow(t *testing.T, scheme string, k int) (steps uint64, pauses int) {
	t.Helper()
	f, err := ByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.New(arena.Config{Nodes: 64, RootLinks: 1}, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	root := s.Arena().NewRoot()
	reader, adversary := mustRegister(t, s), mustRegister(t, s)
	x, err := reader.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	reader.StoreLink(root, arena.MakePtr(x, false))
	reader.Release(x)

	armed := true
	pause := func() {
		if !armed || pauses == k {
			return
		}
		pauses++
		n, err := adversary.Alloc()
		if err != nil {
			t.Fatalf("%s: adversary alloc at swing %d: %v", scheme, pauses, err)
		}
		old := adversary.DeRef(root)
		if !adversary.CASLink(root, old, arena.MakePtr(n, false)) {
			t.Errorf("%s: uncontended swing %d failed", scheme, pauses)
		}
		adversary.Release(old.Handle())
		adversary.Release(n)
	}
	switch th := reader.(type) {
	case *core.Thread:
		th.SetHook(func(p core.Point) {
			if p == core.PD6 {
				pause()
			}
		})
	case *valois.Thread:
		th.SetHook(pause)
	default:
		t.Fatalf("%s: no dereference-window hook on %T", scheme, reader)
	}
	p := reader.DeRef(root)
	armed = false // the teardown below dereferences too
	steps = reader.Stats().DeRefMaxSteps
	reader.Release(p.Handle())

	last := reader.DeRef(root)
	reader.CASLink(root, last, arena.NilPtr)
	reader.Release(last.Handle())
	adversary.Unregister()
	reader.Unregister()
	for _, e := range AuditRC(s, nil) {
		t.Errorf("%s: audit after %d swings: %v", scheme, k, e)
	}
	return steps, pauses
}

// TestDeRefStepsVersusSwingsInWindow asserts the paper's headline
// contrast (DESIGN.md §4, E2b).  Valois's DeRef revalidates and retries,
// so K swings inside its window cost it exactly K+1 steps: the adversary
// controls the reader's running time, the unbounded loop the paper's
// introduction criticizes.  The wait-free DeRefLink completes in the
// same number of steps for every K: the adversary's own
// CompareAndSwapLink is obliged to help the announced dereference, so
// its interference satisfies the reader instead of starving it — there
// is only one window to pause in, however many swings are on offer.
func TestDeRefStepsVersusSwingsInWindow(t *testing.T) {
	var wfBase uint64
	for i, k := range []int{1, 4, 16, 64, 256} {
		if steps, pauses := swingsInWindow(t, "valois", k); pauses != k || steps != uint64(k)+1 {
			t.Errorf("valois, K=%d: %d steps over %d pauses, want %d steps over %d pauses", k, steps, pauses, k+1, k)
		}
		steps, pauses := swingsInWindow(t, "waitfree", k)
		if i == 0 {
			wfBase = steps
		}
		if pauses != 1 || steps != wfBase || steps > uint64(core.AnnScanBound(2)) {
			t.Errorf("waitfree, K=%d: %d steps over %d pause(s), want %d steps (as at K=1, within Lemma 2's %d) over 1 pause",
				k, steps, pauses, wfBase, core.AnnScanBound(2))
		}
	}
}
