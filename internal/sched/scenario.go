package sched

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/chaos"
	"wfrc/internal/core"
	"wfrc/internal/ds/queue"
	"wfrc/internal/lincheck"
)

// Scenario is a named, deterministic concurrency scenario over the
// wait-free core: Build wires a fresh scheme and virtual threads into
// the given world.  Build must be deterministic — no time, maps in
// iteration order, or non-strategy randomness — or replay breaks.
type Scenario struct {
	// Name identifies the scenario to the explorers, flags and CLI.
	Name string
	// About is a one-line description.
	About string
	// Build populates a fresh world (called once per schedule).
	Build func(w *World)
	// ExpectFailure, when non-empty, marks an injected-bug scenario:
	// exploration is expected to find a failure containing this
	// substring.  Clean scenarios leave it empty.
	ExpectFailure string
	// DFSOK marks the scenario small enough (sparse instrumentation,
	// short bodies) for exhaustive DFS.
	DFSOK bool
	// MaxSteps overrides the default per-run step budget.
	MaxSteps int
	// Depth is the suggested PCT change-point count (default 3).
	Depth int
}

var (
	registry = map[string]Scenario{}
	regOrder []string
)

// Register adds a scenario; duplicate names panic.
func Register(sc Scenario) {
	if _, dup := registry[sc.Name]; dup {
		panic("sched: duplicate scenario " + sc.Name)
	}
	registry[sc.Name] = sc
	regOrder = append(regOrder, sc.Name)
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	sc, ok := registry[name]
	return sc, ok
}

// Names lists the registered scenarios in registration order.
func Names() []string { return append([]string(nil), regOrder...) }

func mustRegister(s *core.Scheme) *core.Thread {
	t, err := s.RegisterCore()
	if err != nil {
		panic(err)
	}
	return t
}

func mustAlloc(t *core.Thread) arena.Handle {
	h, err := t.AllocNode()
	if err != nil {
		panic(err)
	}
	return h
}

// noteCoreStats folds the interesting per-thread counters into the
// world's notes so explorers and regression tests can assert a schedule
// actually exercised helping.
func noteCoreStats(w *World, threads ...*core.Thread) {
	for _, ct := range threads {
		st := ct.Stats()
		w.Note("helps-given", int64(st.HelpsGiven))
		w.Note("helps-received", int64(st.HelpsReceived))
		w.Note("alloc-helped", int64(st.AllocHelped))
		w.Note("cas-failures", int64(st.CASFailures))
	}
}

// --- deref-vs-swap ----------------------------------------------------------

// buildDerefVsSwap is the announcement-answer vs SWAP race scenario: a
// reader announces and dereferences a root link while two writers CAS
// it to fresh targets, each CAS obligated to help the announcement
// (paper Figure 4, D1–D10 vs H1–H8).  The recorded history is checked
// against the sequential CAS-register spec; the quiescent audit checks
// reference counts and announcement-row hygiene.  With legacy true the
// scenario reverts the annRow.index lifecycle fix — the standing
// injected bug the explorer must find.
func buildDerefVsSwap(legacy bool) func(w *World) {
	return func(w *World) {
		// Headroom note: each setup AllocNode may strand one extra node
		// in another thread's annAlloc cell via the A12 helping grant,
		// so the arena is sized above the three live nodes.
		ar := arena.MustNew(arena.Config{Nodes: 6, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
		s := core.MustNew(ar, core.Config{Threads: 3})
		if legacy {
			s.TestingSetLegacyAnnIndex(true)
		}
		tR, tB, tC := mustRegister(s), mustRegister(s), mustRegister(s)
		root := ar.NewRoot()
		hA, hB, hC := mustAlloc(tR), mustAlloc(tR), mustAlloc(tR)
		tR.StoreLink(root, arena.MakePtr(hA, false))
		tR.ReleaseRef(hA) // the root link's reference keeps hA alive
		w.Lincheck(lincheck.CASRegisterModel{Start: uint64(hA)})

		w.Spawn("reader", func(t *T) {
			t.Instrument(tR)
			for i := 0; i < 2; i++ {
				t.Record("read", 0, func() uint64 {
					p := tR.DeRefLink(root)
					h := p.Handle()
					if h != arena.Nil {
						tR.ReleaseRef(h)
					}
					return uint64(h)
				})
			}
		})
		swapper := func(name string, ct *core.Thread, oldH, newH arena.Handle) {
			w.Spawn(name, func(t *T) {
				t.Instrument(ct)
				t.Record("cas", lincheck.CASArg(uint64(oldH), uint64(newH)), func() uint64 {
					if ct.CASLink(root, arena.MakePtr(oldH, false), arena.MakePtr(newH, false)) {
						w.Note("cas-ok", 1)
						return 1
					}
					return 0
				})
				ct.ReleaseRef(newH) // drop the setup-held guard on the new node
			})
		}
		swapper("cas-b", tB, hA, hB)
		swapper("cas-c", tC, hA, hC)

		w.AtEnd(func() error {
			for _, ct := range []*core.Thread{tR, tB, tC} {
				ct.SetHook(nil)
				ct.Unregister()
			}
			noteCoreStats(w, tR, tB, tC)
			return SortedErrors(s.Audit(nil))
		})
	}
}

// --- helper-pin-vs-free -----------------------------------------------------

// buildHelperPinVsFree races helper pins against node reclamation: two
// writers repeatedly install freshly allocated nodes into the root link
// while a reader announces dereferences.  Every successful CAS helps
// pending announcements (H4 pins a slot while the replaced node's last
// reference may be released), and every replaced node dies, driving
// FreeNode's annAlloc handoff (F3) against the allocators (A4/A12) —
// the helper-pin vs FreeNode race.
func buildHelperPinVsFree(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 12, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 3})
	tR, tW1, tW2 := mustRegister(s), mustRegister(s), mustRegister(s)
	root := ar.NewRoot()
	h0 := mustAlloc(tR)
	tR.StoreLink(root, arena.MakePtr(h0, false))
	tR.ReleaseRef(h0)

	w.Spawn("reader", func(t *T) {
		t.Instrument(tR)
		for i := 0; i < 3; i++ {
			p := tR.DeRefLink(root)
			if h := p.Handle(); h != arena.Nil {
				tR.ReleaseRef(h)
			}
			w.Note("reads", 1)
		}
	})
	writer := func(name string, ct *core.Thread) {
		w.Spawn(name, func(t *T) {
			t.Instrument(ct)
			for k := 0; k < 2; k++ {
				n, err := ct.AllocNode()
				if err != nil {
					w.Note("oom", 1)
					return
				}
				for {
					old := ct.DeRefLink(root)
					ok := ct.CASLink(root, old, arena.MakePtr(n, false))
					if h := old.Handle(); h != arena.Nil {
						ct.ReleaseRef(h)
					}
					if ok {
						w.Note("installs", 1)
						break
					}
				}
				ct.ReleaseRef(n)
			}
		})
	}
	writer("writer-1", tW1)
	writer("writer-2", tW2)

	w.AtEnd(func() error {
		for _, ct := range []*core.Thread{tR, tW1, tW2} {
			ct.SetHook(nil)
			ct.Unregister()
		}
		noteCoreStats(w, tR, tW1, tW2)
		if w.notes["oom"] > 0 {
			return fmt.Errorf("allocation reported out-of-memory with %d free nodes", ar.Nodes())
		}
		return SortedErrors(s.Audit(nil))
	})
}

// --- alloc-oom --------------------------------------------------------------

// buildAllocOOM exercises AllocNode's bounded-retry out-of-memory path
// (paper footnote 4): two allocators over a 2-node arena each request
// two nodes and hold them across a barrier, so at least two requests
// must exhaust the retry limit and surface ErrOutOfMemory — without
// leaking announcement state or free-list nodes, which the end audit
// verifies after the holders release.
func buildAllocOOM(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 2, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2, AllocRetryLimit: 48})
	tA, tB := mustRegister(s), mustRegister(s)
	arrived := 0

	allocator := func(name string, ct *core.Thread) {
		w.Spawn(name, func(t *T) {
			t.Instrument(ct)
			var held []arena.Handle
			for k := 0; k < 2; k++ {
				h, err := ct.AllocNode()
				if err == core.ErrOutOfMemory {
					w.Note("oom", 1)
					continue
				}
				if err != nil {
					panic(err)
				}
				w.Note("alloc-ok", 1)
				held = append(held, h)
			}
			arrived++
			// Hold the allocations until both threads have attempted
			// theirs, so the 4 requests against 2 nodes are guaranteed
			// to exercise the out-of-memory path on every schedule.
			t.BlockUntil(func() bool { return arrived == 2 })
			for _, h := range held {
				ct.ReleaseRef(h)
			}
		})
	}
	allocator("alloc-a", tA)
	allocator("alloc-b", tB)

	w.AtEnd(func() error {
		for _, ct := range []*core.Thread{tA, tB} {
			ct.SetHook(nil)
			ct.Unregister()
		}
		noteCoreStats(w, tA, tB)
		if w.notes["oom"] == 0 {
			return fmt.Errorf("expected at least one ErrOutOfMemory (4 requests, 2 nodes), got none")
		}
		// Exactly 2 nodes exist, so at most 2 of the 4 requests succeed;
		// fewer is legal (an A12 grant can strand a node at a thread
		// that has finished allocating), but at least one must win.
		if ok := w.notes["alloc-ok"]; ok < 1 || ok > 2 {
			return fmt.Errorf("expected 1 or 2 successful allocations, got %d", ok)
		}
		return SortedErrors(s.Audit(nil))
	})
}

// --- chaos-stall ------------------------------------------------------------

// buildChaosStall routes the chaos layer's stall machinery through the
// scheduler: a writer is armed to park at its next operation boundary
// (simulating a crashed thread), the reader must still finish its
// dereferences — the wait-freedom claim — and a supervisor releases the
// stall only after the reader is done, whereupon the writer completes
// and the usual audits run.
func buildChaosStall(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 6, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	inner := core.MustNew(ar, core.Config{Threads: 2})
	cs := chaos.New(inner, chaos.Config{
		Seed:    1,
		Park:    w.Parker(),
		Gosched: w.GoschedFn(),
	})
	ctW, err := cs.RegisterChaos()
	if err != nil {
		panic(err)
	}
	ctR, err := cs.RegisterChaos()
	if err != nil {
		panic(err)
	}
	root := ar.NewRoot()
	h0, err := ctW.Alloc()
	if err != nil {
		panic(err)
	}
	ctW.StoreLink(root, arena.MakePtr(h0, false))
	ctW.Release(h0)
	ctW.StallNextOp() // the writer's first operation will park

	readerDone := false
	w.Spawn("writer", func(t *T) {
		ctW.SetPointObserver(t.YieldPoint)
		h, err := ctW.Alloc() // parks at the boundary until ReleaseStalls
		if err != nil {
			panic(err)
		}
		old := ctW.DeRef(root)
		if !ctW.CASLink(root, old, arena.MakePtr(h, false)) {
			panic("chaos-stall: uncontended CAS failed")
		}
		if oh := old.Handle(); oh != arena.Nil {
			ctW.Release(oh)
		}
		ctW.Release(h)
		w.Note("writer-done", 1)
	})
	w.Spawn("reader", func(t *T) {
		ctR.SetPointObserver(t.YieldPoint)
		for i := 0; i < 3; i++ {
			p := ctR.DeRef(root)
			if h := p.Handle(); h != arena.Nil {
				ctR.Release(h)
			}
			w.Note("reads", 1)
		}
		readerDone = true
	})
	w.Spawn("supervisor", func(t *T) {
		t.BlockOn(ctW.Parked())
		w.Note("saw-park", 1)
		// The stalled writer must not block the reader: wait for the
		// reader to finish every operation before releasing the stall.
		t.BlockUntil(func() bool { return readerDone })
		cs.ReleaseStalls()
	})

	w.AtEnd(func() error {
		ctW.SetPointObserver(nil)
		ctR.SetPointObserver(nil)
		ctW.Unregister()
		ctR.Unregister()
		if w.notes["reads"] != 3 || w.notes["writer-done"] != 1 || w.notes["saw-park"] != 1 {
			return fmt.Errorf("scenario incomplete: notes %v", w.notes)
		}
		if v := cs.Violations(); len(v) > 0 {
			return fmt.Errorf("wait-freedom budget violated: %s", v[0])
		}
		return SortedErrors(inner.Audit(nil))
	})
}

// --- queue-spsc -------------------------------------------------------------

// buildQueueSPSC drives the lock-free queue (over the wait-free scheme)
// with one producer and one consumer under full instrumentation,
// asserting FIFO order and a clean audit.
func buildQueueSPSC(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 10, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 4})
	s := core.MustNew(ar, core.Config{Threads: 2})
	tP, tC := mustRegister(s), mustRegister(s)
	q, err := queue.New(s, tP)
	if err != nil {
		panic(err)
	}
	const items = 3
	produced, consumed := 0, 0

	w.Spawn("producer", func(t *T) {
		t.Instrument(tP)
		for v := uint64(1); v <= items; v++ {
			if err := q.Enqueue(tP, v); err != nil {
				panic(err)
			}
			produced++
		}
	})
	w.Spawn("consumer", func(t *T) {
		t.Instrument(tC)
		next := uint64(1)
		for consumed < items {
			t.BlockUntil(func() bool { return produced > consumed })
			v, ok := q.Dequeue(tC)
			if !ok {
				continue
			}
			if v != next {
				panic(fmt.Sprintf("queue-spsc: dequeued %d, want %d (FIFO violated)", v, next))
			}
			next++
			consumed++
		}
	})

	w.AtEnd(func() error {
		tP.SetHook(nil)
		tC.SetHook(nil)
		if rest := q.Drain(tC); len(rest) != 0 {
			return fmt.Errorf("queue not empty after consuming %d items: %v", items, rest)
		}
		tP.Unregister()
		tC.Unregister()
		noteCoreStats(w, tP, tC)
		return SortedErrors(s.Audit(nil))
	})
}

// --- DFS minis --------------------------------------------------------------

// buildDFSDerefPair is the exhaustive-exploration version of
// deref-vs-swap: one reader, one writer, sparse instrumentation (the
// reader yields only at D3/D4/D6, the writer only at H2/H4/H6/R2) so
// the schedule space is small enough to enumerate completely.
func buildDFSDerefPair(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 4, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2})
	tR, tW := mustRegister(s), mustRegister(s)
	root := ar.NewRoot()
	hA, hB := mustAlloc(tR), mustAlloc(tR)
	tR.StoreLink(root, arena.MakePtr(hA, false))
	tR.ReleaseRef(hA)
	w.Lincheck(lincheck.CASRegisterModel{Start: uint64(hA)})

	w.Spawn("reader", func(t *T) {
		t.InstrumentPoints(tR, core.PD3, core.PD4, core.PD6)
		t.Record("read", 0, func() uint64 {
			p := tR.DeRefLink(root)
			h := p.Handle()
			if h != arena.Nil {
				tR.ReleaseRef(h)
			}
			return uint64(h)
		})
	})
	w.Spawn("writer", func(t *T) {
		t.InstrumentPoints(tW, core.PH2, core.PH4, core.PH6, core.PR2)
		t.Record("cas", lincheck.CASArg(uint64(hA), uint64(hB)), func() uint64 {
			if tW.CASLink(root, arena.MakePtr(hA, false), arena.MakePtr(hB, false)) {
				return 1
			}
			return 0
		})
		tW.ReleaseRef(hB)
	})

	w.AtEnd(func() error {
		tR.SetHook(nil)
		tW.SetHook(nil)
		tR.Unregister()
		tW.Unregister()
		noteCoreStats(w, tR, tW)
		return SortedErrors(s.Audit(nil))
	})
}

// buildDFSAllocFree enumerates the allocator handoff: two threads each
// allocate and release one node from a 2-node arena, yielding at the
// free-list CAS points (A9/A12) and the FreeNode annAlloc offer (F3).
// The recorded history is checked against the sequential allocator spec
// (paper Definition 1).
func buildDFSAllocFree(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 2, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2})
	tA, tB := mustRegister(s), mustRegister(s)
	w.Lincheck(lincheck.AllocModel{Nodes: ar.Nodes()})

	body := func(ct *core.Thread) func(*T) {
		return func(t *T) {
			t.InstrumentPoints(ct, core.PA9, core.PA12, core.PF3)
			var h arena.Handle
			t.RecordIf("alloc", 0, func() (uint64, bool) {
				hh, err := ct.AllocNode()
				if err == core.ErrOutOfMemory {
					// Legal under some schedules: both nodes can be in
					// flight at the suspended peer (held or granted),
					// so the bounded retry correctly reports exhaustion.
					w.Note("oom", 1)
					return 0, false
				}
				if err != nil {
					panic(err)
				}
				h = hh
				return uint64(hh), true
			})
			if h == arena.Nil {
				return
			}
			t.Record("free", uint64(h), func() uint64 {
				ct.ReleaseRef(h)
				return 0
			})
		}
	}
	w.Spawn("alloc-a", body(tA))
	w.Spawn("alloc-b", body(tB))

	w.AtEnd(func() error {
		tA.SetHook(nil)
		tB.SetHook(nil)
		tA.Unregister()
		tB.Unregister()
		noteCoreStats(w, tA, tB)
		return SortedErrors(s.Audit(nil))
	})
}

// --- deferred-flush-vs-help -------------------------------------------------

// buildDeferredFlushVsHelp races the deferred variant's flush against
// the helping protocol.  After setup the root's link is the only counted
// reference to its target; the owner announces a dereference of that
// node (announced path forced) and flushes while its dereference guard
// — a pin, or a helper-granted counted reference when the writer
// answers at D6 — is still live, and the writer's CAS unlinks the node,
// driving its count to zero and onto the writer's ZCT.  No drain may
// claim a guarded node for reclamation: the pin scans keep pinned
// candidates, and a counted guard keeps the count nonzero.  The mid-run oddness check
// (mm_ref odd means the CAS(0,1) election was won) plus the quiescent
// audit assert exactly that on every explored interleaving.
func buildDeferredFlushVsHelp(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 6, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2, Deferred: true})
	s.TestingSetDeferredForceAnnounce(true)
	tO, tW := mustRegister(s), mustRegister(s)
	root := ar.NewRoot()
	hA, hB := mustAlloc(tO), mustAlloc(tO)
	tO.StoreLink(root, arena.MakePtr(hA, false))
	tO.ReleaseRef(hA) // the root link is now hA's only counted reference

	w.Spawn("owner", func(t *T) {
		t.Instrument(tO)
		p := tO.DeRefLink(root)
		w.Note("owner-deref", 1)
		tO.Flush() // purges and drains under the live guard
		w.Note("owner-flush", 1)
		if h := p.Handle(); h != arena.Nil {
			if ref := ar.Ref(h).Load(); ref&1 != 0 {
				panic(fmt.Sprintf(
					"deferred-flush-vs-help: guarded node %d claimed for reclamation (mm_ref=%d)", h, ref))
			}
			tO.ReleaseRef(h)
		}
		tO.Flush()
		w.Note("owner-flush", 1)
	})
	w.Spawn("writer", func(t *T) {
		t.Instrument(tW)
		if tW.CASLink(root, arena.MakePtr(hA, false), arena.MakePtr(hB, false)) {
			w.Note("installs", 1)
		}
		tW.ReleaseRef(hB)
		tW.Flush()
		w.Note("writer-flush", 1)
	})

	w.AtEnd(func() error {
		for _, ct := range []*core.Thread{tO, tW} {
			ct.SetHook(nil)
			ct.Unregister()
		}
		noteCoreStats(w, tO, tW)
		if w.notes["installs"] != 1 {
			return fmt.Errorf("uncontended CAS install failed (installs=%d)", w.notes["installs"])
		}
		return SortedErrors(s.Audit(nil))
	})
}

func init() {
	Register(Scenario{
		Name:  "deref-vs-swap",
		About: "reader announcement vs two CAS writers; lincheck CAS-register spec + audits",
		Build: buildDerefVsSwap(false),
	})
	Register(Scenario{
		Name:  "legacy-annindex",
		About: "injected bug: annRow.index lifecycle fix reverted; audit must flag every schedule",
		Build: buildDerefVsSwap(true),
		// The exact wording of audit.go's AuditAnnRows H2-hygiene error.
		ExpectFailure: "H2 hygiene",
	})
	Register(Scenario{
		Name:  "helper-pin-vs-free",
		About: "helper slot pins racing node reclamation and the annAlloc handoff",
		Build: buildHelperPinVsFree,
	})
	Register(Scenario{
		Name:  "alloc-oom",
		About: "bounded-retry out-of-memory detection with held nodes; no leaked announcements",
		Build: buildAllocOOM,
	})
	Register(Scenario{
		Name:  "chaos-stall",
		About: "chaos-layer stall routed through the scheduler; reader progresses past a parked writer",
		Build: buildChaosStall,
	})
	Register(Scenario{
		Name:  "queue-spsc",
		About: "lock-free queue, one producer one consumer, FIFO assertion under full instrumentation",
		Build: buildQueueSPSC,
	})
	Register(Scenario{
		Name:  "deferred-flush-vs-help",
		About: "deferred variant: ZCT flush under a live guard vs a helper answering at D6; guarded node must survive",
		Build: buildDeferredFlushVsHelp,
	})
	Register(Scenario{
		Name:  "dfs-deref-pair",
		About: "exhaustive: one announced dereference vs one helping CAS, sparse yield points",
		Build: buildDFSDerefPair,
		DFSOK: true,
	})
	Register(Scenario{
		Name:  "dfs-alloc-free",
		About: "exhaustive: two allocate/release pairs over a 2-node arena, allocator handoff points",
		Build: buildDFSAllocFree,
		DFSOK: true,
	})
}
