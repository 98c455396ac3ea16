// Package slotpool maps an unbounded, churning population of ephemeral
// goroutines — network connection handlers, request workers — onto the
// fixed NR_THREADS thread slots that the paper's scheme (and every other
// scheme behind mm.Scheme) requires at Register time.
//
// The paper assumes a static thread population: announcement rows, the
// 2·NR_THREADS free-lists and the annAlloc helping cells are all sized
// and indexed by a thread slot that a hardware thread owns forever.  A
// server has the opposite shape — goroutines appear per connection and
// die with it — so the pool introduces a *lease* layer:
//
//   - At construction the pool registers Slots threads with its one
//     scheme; each registered thread is one leasable slot.
//   - Lease hands the calling goroutine exclusive use of one slot's
//     thread, waiting boundedly when all slots are out (backpressure:
//     ErrLeaseTimeout after Config.MaxWait).
//   - Release returns the slot after a *reuse audit*: the slot's
//     announcement row must carry no live announcement and no helper
//     busy pin before the next lessee may run on them, so bookkeeping
//     is verifiably clean across lessees.  A transiently dirty slot
//     (a helper mid-H4..H8 on its row) is quarantined and recycled
//     once the audit passes.
//
// A lease lasts one bounded unit of work — a request, a parsed batch —
// and is never held across I/O, which is the paper's model exactly: a
// fixed set of threads, each running bounded operations.  Nothing is
// revoked; Close waits for the leases still out, and Lease.Thread
// panics after Release so a holder that keeps running past its own
// Release is stopped at its next handout.
//
// Every lifecycle transition passes a hook point (Config.Hook), which
// internal/chaos's Injector perturbs in torture runs, and the pool
// exports its lease-wait histogram and counters in Prometheus format
// via WriteProm.
package slotpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/core"
	"wfrc/internal/mm"
)

// ErrLeaseTimeout reports that Lease waited Config.MaxWait without a
// slot becoming free — the pool's backpressure signal.  Servers map it
// to a "busy, retry" protocol response instead of queueing unboundedly.
var ErrLeaseTimeout = errors.New("slotpool: no slot free within MaxWait (backpressure)")

// ErrClosed reports a Lease attempt on a closed pool.
var ErrClosed = errors.New("slotpool: pool closed")

// Point labels the slot-lease lifecycle points at which Config.Hook is
// invoked; chaos injection and tests perturb or observe them.
type Point int

const (
	// PLeaseWait fires as Lease/TryLease starts looking for a slot.
	PLeaseWait Point = iota
	// PLeaseGranted fires after a slot is handed to a lessee.
	PLeaseGranted
	// PReleaseAudit fires as a released slot's reuse audit begins.
	PReleaseAudit
	// PRecycled fires when a slot rejoins the free queue.
	PRecycled
	// PQuarantined fires when a dirty slot is withheld from reuse.
	PQuarantined

	// NumPoints is the number of hook points.
	NumPoints
)

var pointNames = [...]string{
	PLeaseWait: "PLeaseWait", PLeaseGranted: "PLeaseGranted",
	PReleaseAudit: "PReleaseAudit", PRecycled: "PRecycled",
	PQuarantined: "PQuarantined",
}

// String names the hook point.
func (p Point) String() string {
	if p >= 0 && int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", int(p))
}

// Config parameterizes a Pool.
type Config struct {
	// Slots is the number of leasable slots.  Zero takes the scheme's
	// Threads() (already-registered threads are NOT subtracted — the
	// scheme must have Slots free registration slots).
	Slots int
	// Deprecated: LeaseTTL is ignored; leases are no longer revoked.
	// Kept for benchmark/; goes with the next benchmark PR.
	LeaseTTL time.Duration
	// MaxWait bounds how long Lease blocks for a free slot before
	// returning ErrLeaseTimeout.  Zero waits until ctx cancellation.
	MaxWait time.Duration
	// AuditRetries bounds the re-checks of a transiently dirty row
	// before the slot is quarantined (default 8; helpers release their
	// pins within a bounded number of their own steps, so a handful of
	// yields normally suffices).
	AuditRetries int
	// Hook, when set, observes every lifecycle point.  It must be safe
	// for concurrent calls; chaos torture installs an Injector here.
	Hook func(Point)
	// Annotator, when set, receives per-slot lifecycle annotations for
	// request-span tracing (obs.SpanTracer satisfies it).  Unlike Hook it
	// carries the slot identity and the measured wait, so a span can say
	// *which* request paid the lease backpressure.  Must be safe for
	// concurrent calls.
	Annotator Annotator
}

// Annotator receives slot-lifecycle annotations for span tracing.  It
// is declared here (and satisfied structurally by obs.SpanTracer) so
// the pool does not import the observability layer.
type Annotator interface {
	// LeaseGranted reports that a lessee obtained slot after waiting
	// wait for it.
	LeaseGranted(slot int, wait time.Duration)
	// SlotQuarantined reports that slot failed its reuse audit and was
	// withheld from circulation.
	SlotQuarantined(slot int)
}

// Pool is the lease/release layer.  All methods are safe for concurrent
// use.
type Pool struct {
	cfg   Config
	core  *core.Scheme // nil when the scheme is not the wait-free core
	slots []*slot
	free  chan *slot

	quarMu     sync.Mutex
	quarantine []*slot

	closed atomic.Bool
	stop   chan struct{}

	m poolMetrics
}

// slot is one leasable thread of the pool's scheme.
type slot struct {
	p      *Pool
	id     int
	thread mm.Thread
	// gen is the slot's lease generation.  A grant is live while gen
	// still equals the generation it was handed out at; Release advances
	// it, so every earlier handle of the slot is dead for good.
	gen atomic.Uint64
}

// Lease is exclusive use of one slot's thread for one bounded
// unit of work.  It is a two-word value, so a grant allocates nothing;
// copies name the same grant.  A Lease belongs to one goroutine; only
// Release is safe to call concurrently (it is idempotent: exactly one
// call recycles).  The zero Lease is not a grant.
type Lease struct {
	s   *slot
	gen uint64
}

// New creates a pool over one scheme, registering cfg.Slots threads
// with it.  Any mm.Scheme works, but only the wait-free core gets
// announcement-row reuse audits.  The scheme is variadic only because
// benchmark/ spreads Store.Schemes() into it: kept for benchmark/; goes
// with the next benchmark PR.  Any count but one is an error.
func New(cfg Config, schemes ...mm.Scheme) (*Pool, error) {
	if len(schemes) != 1 {
		return nil, fmt.Errorf("slotpool: exactly one scheme required, got %d", len(schemes))
	}
	s := schemes[0]
	n := cfg.Slots
	if n == 0 {
		n = s.Threads()
	}
	if n <= 0 {
		return nil, fmt.Errorf("slotpool: Slots must be positive, got %d", n)
	}
	if cfg.AuditRetries == 0 {
		cfg.AuditRetries = 8
	}
	p := &Pool{
		cfg:  cfg,
		free: make(chan *slot, n),
		stop: make(chan struct{}),
	}
	p.core, _ = s.(*core.Scheme)
	for i := 0; i < n; i++ {
		t, err := s.Register()
		if err != nil {
			// Roll back every registration made so far.
			for _, done := range p.slots {
				done.thread.Unregister()
			}
			return nil, fmt.Errorf("slotpool: registering slot %d with %s: %w", i, s.Name(), err)
		}
		sl := &slot{p: p, id: i, thread: t}
		p.slots = append(p.slots, sl)
		p.free <- sl
	}
	p.m.slots.Store(int64(n))
	return p, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(cfg Config, s mm.Scheme) *Pool {
	p, err := New(cfg, s)
	if err != nil {
		panic(err)
	}
	return p
}

// Slots returns the number of leasable slots.
func (p *Pool) Slots() int { return len(p.slots) }

// SlotThreads returns every slot's registered thread, in slot order —
// for attaching per-thread OpStats to an observability collector.  The
// threads belong to the pool's lessees; callers may read their Stats but
// must not operate through them.
func (p *Pool) SlotThreads() []mm.Thread {
	out := make([]mm.Thread, len(p.slots))
	for i, s := range p.slots {
		out[i] = s.thread
	}
	return out
}

func (p *Pool) hook(pt Point) {
	if h := p.cfg.Hook; h != nil {
		h(pt)
	}
}

// Lease acquires a slot, waiting until one is free, ctx is done, or
// Config.MaxWait elapses (ErrLeaseTimeout — the backpressure path).
func (p *Pool) Lease(ctx context.Context) (Lease, error) {
	return p.lease(ctx, 0)
}

// LeaseBatch acquires one slot to execute a batch of n operations under
// a single lease — the amortization fast path for multi-key ops
// (MGET/MSET, a drained pipeline burst).  The handout is exactly
// Lease's: one slot, one reuse audit on Release; only the
// accounting differs, so dashboards can tell how much lease overhead
// batching saves (wfrc_slotpool_leases_batched_total vs the ops the
// batches carried).  n must be at least 1.
func (p *Pool) LeaseBatch(ctx context.Context, n int) (Lease, error) {
	if n < 1 {
		return Lease{}, fmt.Errorf("slotpool: LeaseBatch of %d operations", n)
	}
	return p.lease(ctx, n)
}

// lease is the shared slow path; batchOps > 0 marks a batched grant
// amortizing that many operations, 0 a single-op grant.
func (p *Pool) lease(ctx context.Context, batchOps int) (Lease, error) {
	if p.closed.Load() {
		return Lease{}, ErrClosed
	}
	start := time.Now()
	p.hook(PLeaseWait)
	select {
	case s := <-p.free:
		return p.grant(s, start, batchOps), nil
	default:
	}
	p.retryQuarantine()
	var timeout <-chan time.Time
	if p.cfg.MaxWait > 0 {
		timer := time.NewTimer(p.cfg.MaxWait)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case s := <-p.free:
		return p.grant(s, start, batchOps), nil
	case <-ctx.Done():
		p.m.cancels.Add(1)
		return Lease{}, ctx.Err()
	case <-timeout:
		p.m.timeouts.Add(1)
		return Lease{}, ErrLeaseTimeout
	case <-p.stop:
		return Lease{}, ErrClosed
	}
}

// TryLease acquires a slot without blocking.  It exists for the
// deterministic scheduler's scenarios, where a virtual thread must not
// perform a real channel wait; servers use Lease.
func (p *Pool) TryLease() (Lease, bool) {
	if p.closed.Load() {
		return Lease{}, false
	}
	start := time.Now()
	p.hook(PLeaseWait)
	p.retryQuarantine()
	select {
	case s := <-p.free:
		return p.grant(s, start, 0), true
	default:
		return Lease{}, false
	}
}

func (p *Pool) grant(s *slot, start time.Time, batchOps int) Lease {
	l := Lease{s: s, gen: s.gen.Load()}
	p.m.leases.Add(1)
	if batchOps > 0 {
		p.m.batched.Add(1)
		p.m.batchedOps.Add(uint64(batchOps))
	}
	p.m.leased.Add(1)
	wait := time.Since(start)
	p.m.waits.Record(wait)
	if a := p.cfg.Annotator; a != nil {
		a.LeaseGranted(s.id, wait)
	}
	p.hook(PLeaseGranted)
	return l
}

// Slot returns the lease's slot index (the scheme's thread slot id).
func (l Lease) Slot() int { return l.s.id }

// Thread returns the slot's registered thread.  It panics if the lease
// has been released: a holder that runs on must not touch a thread that
// may already belong to the next lessee.
func (l Lease) Thread() mm.Thread {
	if l.s.gen.Load() != l.gen {
		panic(fmt.Sprintf("slotpool: Thread on released lease of slot %d", l.s.id))
	}
	return l.s.thread
}

// Deprecated: Renew only reports whether the lease is still held;
// leases no longer expire.  Kept for benchmark/; goes with the next
// benchmark PR.
func (l Lease) Renew() bool {
	return l.s.gen.Load() == l.gen
}

// Release returns the slot to the pool after the reuse audit.  It is
// idempotent.
func (l Lease) Release() {
	if !l.s.gen.CompareAndSwap(l.gen, l.gen+1) {
		return
	}
	p := l.s.p
	p.m.releases.Add(1)
	p.m.leased.Add(-1)
	p.recycle(l.s)
}

// recycle audits the slot's announcement row and either returns it to
// the free queue or quarantines it until the audit passes.  A clean
// release also re-audits the quarantine, when it holds any slot: Lease
// reaches retryQuarantine only when the free queue is empty, so a pool
// whose queue never empties would otherwise never get a quarantined slot
// back.
func (p *Pool) recycle(s *slot) {
	p.hook(PReleaseAudit)
	if p.auditSlot(s, p.cfg.AuditRetries) {
		p.hook(PRecycled)
		p.free <- s
		if p.m.quarantined.Load() != 0 {
			p.retryQuarantine()
		}
		return
	}
	p.m.quarantined.Add(1)
	if a := p.cfg.Annotator; a != nil {
		a.SlotQuarantined(s.id)
	}
	p.hook(PQuarantined)
	p.quarMu.Lock()
	p.quarantine = append(p.quarantine, s)
	p.quarMu.Unlock()
}

// auditSlot checks the reuse hygiene of slot s in the core scheme: no
// live announcement in any of the slot's row cells (a
// stranded D3 publish would make helpers re-answer a dead lessee's
// dereference) and no helper busy pin (an H4 pin held across handout
// would let the previous lessee's helper CAS an answer into the next
// lessee's announcement — the cross-lessee ABA the audit exists to
// rule out).  Transient pins are waited out for up to retries yields.
// A live announcement is counted as a hygiene violation immediately:
// DeRefLink always swaps its announcement out before returning, so only
// a goroutine that died inside D3..D6 can leave one.
func (p *Pool) auditSlot(s *slot, retries int) bool {
	cs := p.core
	if cs == nil {
		return true
	}
	for attempt := 0; ; attempt++ {
		clean := true
		for j := 0; j < cs.Threads(); j++ {
			if cs.AnnSlotBusy(s.id, j) != 0 {
				clean = false
			}
		}
		if cs.AnnRowLive(s.id) {
			p.m.violations.Add(1)
			return false
		}
		if clean {
			return true
		}
		if attempt >= retries {
			p.m.dirty.Add(1)
			return false
		}
		runtime.Gosched()
	}
}

// retryQuarantine re-audits quarantined slots (one attempt each, no
// waiting) and returns the clean ones to circulation.
func (p *Pool) retryQuarantine() {
	p.quarMu.Lock()
	if len(p.quarantine) == 0 {
		p.quarMu.Unlock()
		return
	}
	pending := p.quarantine
	p.quarantine = nil
	p.quarMu.Unlock()
	var still []*slot
	for _, s := range pending {
		if p.auditSlot(s, 0) {
			p.m.quarantined.Add(-1)
			p.hook(PRecycled)
			p.free <- s
		} else {
			still = append(still, s)
		}
	}
	if len(still) > 0 {
		p.quarMu.Lock()
		p.quarantine = append(p.quarantine, still...)
		p.quarMu.Unlock()
	}
}

// Drain waits until every slot is back in the free queue (all leases
// released and all quarantines cleared), or ctx is done.
func (p *Pool) Drain(ctx context.Context) error {
	for {
		p.retryQuarantine()
		if int(p.m.leased.Load()) == 0 && len(p.free) == len(p.slots) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("slotpool: drain: %d slot(s) still leased or quarantined: %w",
				len(p.slots)-len(p.free), ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// Close refuses further leases, waits for the leases still held — each
// lasts one request or batch, so the wait is bounded — and unregisters
// every slot thread, leaving the scheme quiescent for its own audit.
// A quarantined slot is not waited for.  Callers stop issuing new
// leases first (server.Shutdown waits for every handler); Close wakes
// only the leases already waiting.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.stop)
	for p.m.leased.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	for _, s := range p.slots {
		s.thread.Unregister()
	}
}
