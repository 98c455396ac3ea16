package schemes

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// stalledRun drives the Stamp-it robustness workload: threads well
// beyond GOMAXPROCS churn allocate/release/retire cycles while one
// registered thread sits stalled inside an operation (its slot stays
// published for the whole run).  A sampler records the scheme's peak
// unreclaimed-node count when it exposes one (mm.Robust); the return
// is that peak (-1 if unsupported) plus the total ops completed.
func stalledRun(t *testing.T, schemeName string, threads, opsPer, threshold int) (peak int64, ops uint64) {
	t.Helper()
	f, err := ByName(schemeName)
	if err != nil {
		t.Fatal(err)
	}
	s, err := f.New(arena.Config{
		Nodes: 96*threads + 2048, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 4,
	}, Options{Threads: threads + 1, RetireThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}

	staller, err := s.Register()
	if err != nil {
		t.Fatal(err)
	}
	staller.BeginOp() // slot stays published until released below

	var totalOps atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th, err := s.Register()
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Unregister()
			for j := 0; j < opsPer; j++ {
				h, err := th.Alloc()
				if err != nil {
					t.Errorf("%s: alloc under stall: %v", schemeName, err)
					return
				}
				th.Release(h)
				th.Retire(h)
				totalOps.Add(1)
			}
		}()
	}

	// Sample the robustness metric while the churn runs.
	done := make(chan struct{})
	peakCh := make(chan int64, 1)
	go func() {
		max := int64(-1)
		r, robust := s.(mm.Robust)
		for {
			if robust {
				if n := int64(r.UnreclaimedNodes()); n > max {
					max = n
				}
			}
			select {
			case <-done:
				peakCh <- max
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	wg.Wait()
	close(done)
	peak = <-peakCh

	// End the stall, flush, and require a clean leak audit.
	staller.EndOp()
	staller.Unregister()
	at, err := s.Register()
	if err != nil {
		t.Fatal(err)
	}
	Flush(at)
	errs := AuditRC(s, nil)
	at.Unregister()
	for _, e := range errs {
		t.Errorf("%s: post-stall leak audit: %v", schemeName, e)
	}
	return peak, totalOps.Load()
}

// TestOversubscribedRobustness gates Hyaline's bounded-garbage claim
// under the configuration where quiescence-based schemes degrade:
// threads ≫ GOMAXPROCS with one thread stalled mid-operation for the
// whole run.  Hyaline's era-skip rule lets every batch whose minimum
// birth era exceeds the stalled slot's published access era bypass it,
// so at most the first dispatch wave can lodge in the stalled slot and
// the peak unreclaimed count stays O(threads · threshold) no matter how
// many retires the churn issues.  The paper's scheme runs the same
// workload for comparison (its reference counts reclaim eagerly, so it
// has no unreclaimed metric to gate — throughput under the stall is the
// measured quantity, reported via -v).
func TestOversubscribedRobustness(t *testing.T) {
	threads := 4*runtime.GOMAXPROCS(0) + 4
	const opsPer, threshold = 2000, 16

	hyPeak, hyOps := stalledRun(t, "hyaline", threads, opsPer, threshold)
	// Bound: one stuck first-wave batch plus one in-hand batch per
	// thread, with slack for dispatches in flight when the era advances
	// past the stalled slot.
	bound := int64(threads * (2*threshold + 2))
	if hyPeak < 0 {
		t.Fatal("hyaline does not expose mm.Robust")
	}
	if hyPeak > bound {
		t.Errorf("hyaline peak unreclaimed %d exceeds bound %d with a stalled thread (retires issued: %d)",
			hyPeak, bound, hyOps)
	}
	retired := uint64(threads * opsPer)
	if int64(retired) <= bound {
		t.Fatalf("workload too small to distinguish bounded from unbounded: %d retires vs bound %d", retired, bound)
	}

	wfPeak, wfOps := stalledRun(t, "waitfree", threads, opsPer, threshold)
	if wfPeak != -1 {
		t.Errorf("waitfree unexpectedly exposes mm.Robust (peak %d); update the comparison", wfPeak)
	}
	t.Logf("stalled-thread churn, %d threads on GOMAXPROCS=%d: hyaline peak unreclaimed %d/%d retired (%d ops); waitfree completed %d ops",
		threads, runtime.GOMAXPROCS(0), hyPeak, retired, hyOps, wfOps)
}
