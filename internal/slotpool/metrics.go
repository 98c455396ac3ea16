package slotpool

import (
	"fmt"
	"io"
	"sync/atomic"

	"wfrc/internal/mm"
)

// poolMetrics is the pool's internal counter block.
type poolMetrics struct {
	slots       atomic.Int64 // configured slot count (constant gauge)
	leased      atomic.Int64 // currently leased slots (gauge)
	leases      atomic.Uint64
	batched     atomic.Uint64 // leases granted through LeaseBatch
	batchedOps  atomic.Uint64 // operations those batched leases carried
	releases    atomic.Uint64
	expiries    atomic.Uint64
	timeouts    atomic.Uint64
	cancels     atomic.Uint64
	dirty       atomic.Uint64 // audits that saw a transiently dirty row
	violations  atomic.Uint64 // audits that saw a live announcement (hygiene violation)
	quarantined atomic.Int64  // slots currently quarantined (gauge)
	waits       mm.LatencyHist
}

// Stats is a point-in-time snapshot of the pool's counters, shaped for
// JSON (the server's STATS protocol op returns it verbatim).  WaitP50Ns
// and WaitP99Ns are power-of-two nanosecond bucket bounds of the
// lease-wait histogram; WaitMeanNs is exact.
type Stats struct {
	Slots  int64  `json:"slots"`
	Leased int64  `json:"leased"`
	Leases uint64 `json:"leases"`
	// LeasesBatched counts leases granted through LeaseBatch;
	// Leases - LeasesBatched is the single-op grant count.  BatchedOps
	// is the operations those batched leases carried, so
	// BatchedOps / LeasesBatched is the realized amortization factor.
	LeasesBatched uint64  `json:"leases_batched"`
	BatchedOps    uint64  `json:"batched_ops"`
	Releases      uint64  `json:"releases"`
	Expiries      uint64  `json:"expiries"`
	Timeouts      uint64  `json:"timeouts"`
	Cancels       uint64  `json:"cancels"`
	AuditDirty    uint64  `json:"audit_dirty"`
	Violations    uint64  `json:"audit_violations"`
	Quarantined   int64   `json:"quarantined"`
	WaitP50Ns     float64 `json:"wait_p50_ns"`
	WaitP99Ns     float64 `json:"wait_p99_ns"`
	WaitMeanNs    float64 `json:"wait_mean_ns"`
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	wait := p.m.waits.Snapshot()
	st := Stats{
		Slots:         p.m.slots.Load(),
		Leased:        p.m.leased.Load(),
		Leases:        p.m.leases.Load(),
		LeasesBatched: p.m.batched.Load(),
		BatchedOps:    p.m.batchedOps.Load(),
		Releases:      p.m.releases.Load(),
		Expiries:      p.m.expiries.Load(),
		Timeouts:      p.m.timeouts.Load(),
		Cancels:       p.m.cancels.Load(),
		AuditDirty:    p.m.dirty.Load(),
		Violations:    p.m.violations.Load(),
		Quarantined:   p.m.quarantined.Load(),
		WaitP50Ns:     float64(wait.P50NS),
		WaitP99Ns:     float64(wait.P99NS),
	}
	if wait.Count > 0 {
		st.WaitMeanNs = float64(wait.SumNS) / float64(wait.Count)
	}
	return st
}

// WriteProm writes the pool's metrics in Prometheus text exposition
// format (families wfrc_slotpool_*), matching the style of
// internal/obs.  It is registered on the obs HTTP server through
// obs.Server.AddProm.
func (p *Pool) WriteProm(w io.Writer) error {
	st := p.Stats()
	gauges := []struct {
		name, help string
		v          int64
	}{
		{"wfrc_slotpool_slots", "Configured leasable slot count.", st.Slots},
		{"wfrc_slotpool_leased", "Slots currently leased.", st.Leased},
		{"wfrc_slotpool_quarantined", "Slots currently quarantined by the reuse audit.", st.Quarantined},
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			g.name, g.help, g.name, g.name, g.v); err != nil {
			return err
		}
	}
	counters := []struct {
		name, help string
		v          uint64
	}{
		{"wfrc_slotpool_leases_total", "Leases granted (single and batched).", st.Leases},
		{"wfrc_slotpool_leases_single_total", "Leases granted for one operation.", st.Leases - st.LeasesBatched},
		{"wfrc_slotpool_leases_batched_total", "Leases granted through LeaseBatch (one lease per multi-op batch).", st.LeasesBatched},
		{"wfrc_slotpool_batched_ops_total", "Operations carried by batched leases.", st.BatchedOps},
		{"wfrc_slotpool_releases_total", "Leases released by their holders.", st.Releases},
		{"wfrc_slotpool_expiries_total", "Leases revoked by the TTL reaper.", st.Expiries},
		{"wfrc_slotpool_timeouts_total", "Lease waits that hit MaxWait (backpressure).", st.Timeouts},
		{"wfrc_slotpool_cancels_total", "Lease waits abandoned via context cancellation.", st.Cancels},
		{"wfrc_slotpool_audit_dirty_total", "Reuse audits that found a persistently pinned row (slot quarantined).", st.AuditDirty},
		{"wfrc_slotpool_audit_violations_total", "Reuse audits that found a live announcement (hygiene violation).", st.Violations},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	const hname = "wfrc_slotpool_lease_wait_seconds"
	if _, err := fmt.Fprintf(w, "# HELP %s Time from lease request to grant.\n# TYPE %s histogram\n",
		hname, hname); err != nil {
		return err
	}
	waits := p.m.waits.Counts()
	return waits.WriteProm(w, hname, "")
}
