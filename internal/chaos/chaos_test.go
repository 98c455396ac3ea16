package chaos

import (
	"testing"
	"time"

	"wfrc/internal/arena"
	"wfrc/internal/core"
	"wfrc/internal/mm"
)

func newCore(t *testing.T, nodes, threads int) *core.Scheme {
	t.Helper()
	ar := arena.MustNew(arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 2})
	return core.MustNew(ar, core.Config{Threads: threads})
}

// churnScript is a fixed, single-threaded operation sequence whose
// thread-local execution path is deterministic, so two runs with the
// same seed must inject the identical fault schedule.
func churnScript(t *testing.T, th mm.Thread, root mm.LinkID) {
	t.Helper()
	for k := 0; k < 200; k++ {
		h, err := th.Alloc()
		if err != nil {
			t.Fatalf("op %d: %v", k, err)
		}
		old := th.DeRef(root)
		if !th.CASLink(root, old, arena.MakePtr(h, false)) {
			t.Fatalf("op %d: uncontended CASLink failed", k)
		}
		th.Release(old.Handle())
		th.Release(h)
	}
	p := th.DeRef(root)
	if !p.IsNil() {
		th.CASLink(root, p, arena.NilPtr)
		th.Release(p.Handle())
	}
}

func runScripted(t *testing.T, seed int64) FaultLog {
	t.Helper()
	s := newCore(t, 32, 2)
	cs := New(s, Config{Seed: seed, Faults: Faults{
		DelayProb: 0.3, DelaySpins: 16, GoschedProb: 0.3, GoschedBurst: 2,
	}})
	th, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, th, s.Arena().NewRoot())
	th.Unregister()
	if v := cs.Violations(); len(v) != 0 {
		t.Fatalf("unexpected budget violations: %v", v)
	}
	return th.FaultLog()
}

// TestDeterministicReplay is the chaos layer's replay contract: the same
// seed over the same execution path injects the same fault schedule, and
// a different seed injects a different one.
func TestDeterministicReplay(t *testing.T) {
	a := runScripted(t, 42)
	b := runScripted(t, 42)
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Draws == 0 || a.Delays == 0 || a.Goscheds == 0 {
		t.Errorf("faults were not exercised: %+v", a)
	}
	c := runScripted(t, 43)
	if a == c {
		t.Errorf("different seeds produced the identical fault log %+v", a)
	}
}

// TestBudgetsDerivedForCore checks that wrapping the wait-free scheme
// enables the paper's budgets automatically and that a clean run stays
// inside them.
func TestBudgetsDerivedForCore(t *testing.T) {
	s := newCore(t, 32, 3)
	cs := New(s, Config{Seed: 7})
	want := DefaultBudgets(3, s.AllocRetryLimit())
	if cs.Budgets() != want {
		t.Fatalf("budgets = %+v, want %+v", cs.Budgets(), want)
	}
	th, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, th, s.Arena().NewRoot())
	th.Unregister()
	if v := cs.Violations(); len(v) != 0 {
		t.Fatalf("clean run violated budgets: %v", v)
	}
}

// TestBrokenBudgetCaught deliberately misconfigures a budget below what
// any real execution uses and checks the violation is caught, attributed
// and stamped with the replay seed — the acceptance test for the
// checker itself.
func TestBrokenBudgetCaught(t *testing.T) {
	const seed = 99
	s := newCore(t, 32, 2)
	// An AllocNode whose first free-list CAS succeeds offers a node to
	// the helpCurrent target and loops (A15), so real allocations take
	// ≥2 steps; a budget of 1 must trip.
	cs := New(s, Config{Seed: seed, Budgets: Budgets{AllocSteps: 1}})
	th, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	h, err := th.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	th.Release(h)
	th.Unregister()

	vs := cs.Violations()
	if len(vs) == 0 {
		t.Fatal("broken budget not caught")
	}
	v := vs[0]
	if v.Op != "Alloc" || v.Budget != 1 || v.Steps < 2 {
		t.Errorf("violation = %+v, want Alloc over budget 1", v)
	}
	if v.Seed != seed {
		t.Errorf("violation seed = %d, want replayable seed %d", v.Seed, seed)
	}
}

// TestStallParksAndReleases arms a hook-point stall, observes the thread
// parked mid-dereference, and checks it completes after ReleaseStalls.
func TestStallParksAndReleases(t *testing.T) {
	s := newCore(t, 32, 2)
	cs := New(s, Config{Seed: 1})
	th, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	if !th.Hooked() {
		t.Fatal("core-backed chaos thread not hooked")
	}
	root := s.Arena().NewRoot()
	th.StallAt(core.PD3)
	done := make(chan mm.Ptr)
	go func() { done <- th.DeRef(root) }()

	select {
	case <-th.Parked():
	case <-time.After(5 * time.Second):
		t.Fatal("thread never parked at PD3")
	}
	select {
	case <-done:
		t.Fatal("DeRef returned while parked")
	case <-time.After(10 * time.Millisecond):
	}
	cs.ReleaseStalls()
	select {
	case p := <-done:
		if !p.IsNil() {
			t.Errorf("DeRef of empty root = %v", p)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DeRef did not complete after ReleaseStalls")
	}
	if th.FaultLog().Stalls != 1 {
		t.Errorf("Stalls = %d, want 1", th.FaultLog().Stalls)
	}
	th.Unregister()
}

// TestScenarioSuiteWaitFree runs every scenario against the wait-free
// scheme and its deferred-decrement variant: zero budget violations and
// clean leak audits are the paper's robustness claim, and the deferred
// path must honor the same step budgets (its fast path records zero
// probes; its announced path shares the counted scan).
func TestScenarioSuiteWaitFree(t *testing.T) {
	runSuiteWaitFree(t, SuiteConfig{Threads: 4, Ops: 300, Seed: 11}, nil)
}

// TestScenarioSuiteWithMagazine is the same suite on an arena large
// enough for the full magazine depth (4096 nodes over 5 slots: depth 8).
// DefaultBudgets are unchanged — a magazine hit is one step — and the
// immediate scheme's churn must actually be served from the magazine.
// (The deferred variant reclaims at flushes, which a run this short
// reaches only at Unregister, so its rows fill but are never popped.)
func TestScenarioSuiteWithMagazine(t *testing.T) {
	runSuiteWaitFree(t, SuiteConfig{Threads: 4, Ops: 300, Seed: 11, Nodes: 4096},
		func(t *testing.T, rep Report) {
			if rep.Scheme != "waitfree" || rep.Scenario == "oom-under-stall" {
				return
			}
			if rep.Stats.AllocLocal == 0 || rep.Stats.FreeLocal == 0 {
				t.Errorf("AllocLocal/FreeLocal = %d/%d, want the churn served from the magazine",
					rep.Stats.AllocLocal, rep.Stats.FreeLocal)
			}
		})
}

func runSuiteWaitFree(t *testing.T, sc SuiteConfig, extra func(*testing.T, Report)) {
	for _, scheme := range []string{"waitfree", "waitfree-deferred"} {
		for _, name := range ScenarioNames() {
			scheme, name := scheme, name
			t.Run(scheme+"/"+name, func(t *testing.T) {
				rep, err := RunScenario(name, scheme, sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range rep.Violations {
					t.Errorf("budget violation: %v", v)
				}
				for _, e := range rep.AuditErrs {
					t.Errorf("audit: %v", e)
				}
				for _, e := range rep.Errs {
					t.Errorf("scenario: %v", e)
				}
				if name != "oom-under-stall" && rep.Ops == 0 {
					t.Error("no operations completed")
				}
				if extra != nil {
					extra(t, rep)
				}
			})
		}
	}
}

// TestCrashWithFullMagazine kills a worker whose magazine is full: its
// goroutine exits without Unregister, so the row is never spilled.  The
// survivor must stay inside the default budgets, and the leak audit
// must still balance — the row lives on the scheme, not on the lost
// thread, and counts as free.
func TestCrashWithFullMagazine(t *testing.T) {
	const nodes = 4096 // 3 slots: depth 8
	s := newCore(t, nodes, 3)
	cs := New(s, Config{Seed: 5, Faults: Faults{GoschedProb: 0.1, GoschedBurst: 2}})
	if cs.Budgets() != DefaultBudgets(3, s.AllocRetryLimit()) {
		t.Fatalf("budgets = %+v, want the defaults", cs.Budgets())
	}
	victim, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		var held [16]mm.Handle
		for i := range held {
			held[i], _ = victim.Alloc()
		}
		for _, h := range held {
			victim.Release(h)
		}
		// The goroutine dies here, mid-lease: no Unregister, no spill.
	}()
	<-crashed
	if got := victim.Stats().FreeLocal; got != 8 {
		t.Fatalf("victim parked %d nodes in its magazine, want a full row of 8", got)
	}

	survivor, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	churnScript(t, survivor, s.Arena().NewRoot())
	survivor.Unregister()
	if v := cs.Violations(); len(v) != 0 {
		t.Errorf("budget violations beside a crashed slot: %v", v)
	}
	for _, err := range s.Audit(nil) {
		t.Errorf("audit: %v", err)
	}
	if got := len(s.FreeNodes()); got != nodes {
		t.Errorf("audit sees %d free nodes, want all %d (the crashed slot's row included)", got, nodes)
	}
}

// TestScenarioStallOneAllSchemes smokes the generic (hookless) stall
// path over every baseline: no leak-audit failures, and the stalled
// thread actually parks.
func TestScenarioStallOneAllSchemes(t *testing.T) {
	sc := SuiteConfig{Threads: 3, Ops: 150, Seed: 5}
	for _, scheme := range []string{"valois", "hazard", "epoch", "lockrc"} {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			rep, err := RunScenario("stall-one", scheme, sc)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Errorf("report failed: violations=%v audit=%v errs=%v",
					rep.Violations, rep.AuditErrs, rep.Errs)
			}
			if rep.Stalls == 0 {
				t.Error("stall target never parked")
			}
		})
	}
}

// TestScenarioOOMUnderStallReplaySeed checks that a scenario report
// carries the seed needed to replay it.
func TestScenarioOOMUnderStallReplaySeed(t *testing.T) {
	rep, err := RunScenario("oom-under-stall", "waitfree", SuiteConfig{Threads: 3, Ops: 100, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seed != 77 {
		t.Errorf("report seed = %d, want 77", rep.Seed)
	}
	if rep.Failed() {
		t.Errorf("oom-under-stall failed: %v %v %v", rep.Violations, rep.AuditErrs, rep.Errs)
	}
	if rep.OOMs < 2 {
		t.Errorf("OOMs = %d, want ≥ 2 (every non-drainer worker)", rep.OOMs)
	}
}

// TestOnRegisterHookFires checks the observability attach point: every
// thread registered through the wrapper reaches Config.OnRegister, and
// the detach it returns runs at that thread's Unregister.
func TestOnRegisterHookFires(t *testing.T) {
	s := newCore(t, 32, 2)
	var attached, detached []int
	cs := New(s, Config{Seed: 1, OnRegister: func(th *Thread) func() {
		id := th.ID()
		attached = append(attached, id)
		return func() { detached = append(detached, id) }
	}})
	th, err := cs.RegisterChaos()
	if err != nil {
		t.Fatal(err)
	}
	if len(attached) != 1 || attached[0] != th.ID() {
		t.Fatalf("attached = %v", attached)
	}
	if len(detached) != 0 {
		t.Fatalf("detached before Unregister: %v", detached)
	}
	th.Unregister()
	if len(detached) != 1 || detached[0] != attached[0] {
		t.Fatalf("detached = %v", detached)
	}
}
