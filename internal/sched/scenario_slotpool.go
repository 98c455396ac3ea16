package sched

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/core"
	"wfrc/internal/slotpool"
)

// --- slot-lease-churn -------------------------------------------------------

// buildSlotLeaseChurn drives the slotpool lease lifecycle under the
// deterministic scheduler: two connection threads contend for a single
// leasable slot (so every cycle is a cross-lessee reuse of the same
// announcement row) while a directly-registered writer CASes the root
// link, generating HelpDeRef traffic against whichever lessee currently
// owns the slot.  The per-release reuse audit runs inside Release; a
// helper pin held across the release point (the writer suspended mid
// H4..H8 on the lessee's row) forces the quarantine path, and the slot
// only re-enters circulation once a later TryLease re-audits it clean.
// Every schedule ends with the scheme's full quiescent audit, including
// AuditAnnRows, after the pool has unregistered its slot threads.
func buildSlotLeaseChurn(w *World) {
	ar := arena.MustNew(arena.Config{Nodes: 8, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2})
	pool := slotpool.MustNew(slotpool.Config{
		Slots:        1,
		AuditRetries: 1, // a pinned helper is a suspended vthread; waiting it out is futile
		Hook: func(pt slotpool.Point) {
			switch pt {
			case slotpool.PLeaseGranted:
				w.Note("leases", 1)
			case slotpool.PRecycled:
				w.Note("recycles", 1)
			case slotpool.PQuarantined:
				w.Note("quarantines", 1)
			}
		},
	}, s)
	tW := mustRegister(s)
	root := ar.NewRoot()
	h0 := mustAlloc(tW)
	tW.StoreLink(root, arena.MakePtr(h0, false))
	tW.ReleaseRef(h0)

	conn := func(name string) {
		w.Spawn(name, func(t *T) {
			for cycle := 0; cycle < 2; cycle++ {
				// The scheduler re-evaluates BlockUntil conditions before
				// every step, so a side-effectful condition must be
				// idempotent: once TryLease succeeds, keep answering true
				// without leasing again.
				var l slotpool.Lease
				held := false
				t.BlockUntil(func() bool {
					if !held {
						l, held = pool.TryLease()
					}
					return held
				})
				ct := l.Thread().(*core.Thread)
				t.Instrument(ct)
				p := ct.DeRefLink(root)
				if h := p.Handle(); h != arena.Nil {
					ct.ReleaseRef(h)
				}
				w.Note("conn-reads", 1)
				ct.SetHook(nil)
				l.Release()
				t.Yield()
			}
		})
	}
	conn("conn-a")
	conn("conn-b")

	w.Spawn("writer", func(t *T) {
		t.Instrument(tW)
		for k := 0; k < 2; k++ {
			n := mustAlloc(tW)
			for {
				old := tW.DeRefLink(root)
				ok := tW.CASLink(root, old, arena.MakePtr(n, false))
				if h := old.Handle(); h != arena.Nil {
					tW.ReleaseRef(h)
				}
				if ok {
					w.Note("installs", 1)
					break
				}
			}
			tW.ReleaseRef(n)
		}
	})

	w.AtEnd(func() error {
		tW.SetHook(nil)
		for _, th := range pool.SlotThreads() {
			th.(*core.Thread).SetHook(nil)
		}
		st := pool.Stats()
		pool.Close()
		tW.Unregister()
		noteCoreStats(w, tW)
		if st.Violations != 0 {
			return fmt.Errorf("slot reuse audit flagged %d live-announcement violation(s) across lessees", st.Violations)
		}
		if st.Leased != 0 {
			return fmt.Errorf("%d lease(s) still outstanding at quiescence", st.Leased)
		}
		if got := w.notes["conn-reads"]; got != 4 {
			return fmt.Errorf("connections completed %d reads, want 4", got)
		}
		if got := w.notes["leases"]; got != 4 {
			return fmt.Errorf("pool granted %d leases, want 4 (2 conns x 2 cycles over 1 slot)", got)
		}
		return SortedErrors(s.Audit(nil))
	})
}

func init() {
	Register(Scenario{
		Name:  "slot-lease-churn",
		About: "two connections churn one slot lease while a writer's CAS helping races the reuse audit",
		Build: buildSlotLeaseChurn,
	})
}
