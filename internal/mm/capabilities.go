package mm

// Optional per-thread and per-scheme capabilities.  The core Scheme and
// Thread interfaces stay at the paper's surface (§3.2); schemes whose
// reclamation model needs more — thread-local buffers to drain, whole
// batches to retire, robustness metrics to expose — implement these
// additional interfaces, and callers discover them by type assertion.
// Formalizing them here (instead of ad-hoc anonymous
// interface assertions at call sites) is the interface refactor the
// Hyaline baseline forces: its per-thread batches and retirement lists
// do not fit a per-node Retire-and-forget model.

// Flusher is the optional quiescence surface of a Thread that buffers
// reclamation state thread-locally: the wait-free deferred variant's
// ZCT and sticky pins, Hyaline's accumulated retirement batch.  Flush
// applies the buffered state so a subsequent audit sees exact counts.
// Like the audits it is a quiescence-only call, and each thread must be
// flushed from its own goroutine (see schemes.Flush for the two-pass
// protocol that untangles cross-thread holds).
type Flusher interface {
	Flush()
}

// BatchRetirer is the optional bulk-retirement surface of a Thread.
// Schemes with per-batch bookkeeping (Hyaline's shared batch reference
// counter) process the slice as one unit, amortizing the per-retire
// cost; for per-node schemes it is equivalent to calling Retire in a
// loop.  Callers unlinking many nodes at once (structure drains,
// range deletes) should prefer it when available.
type BatchRetirer interface {
	RetireBatch(hs []Handle)
}

// Robust is the optional robustness surface of a Scheme: how many
// retired nodes reclamation is currently holding back.  Bounded-garbage
// schemes (Hyaline's era skip) keep it bounded even with stalled
// threads; quiescence-based schemes can grow it without bound under a
// stall — the difference the oversubscribed matrix cells record.
type Robust interface {
	UnreclaimedNodes() int
}
