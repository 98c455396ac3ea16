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
//   - At construction the pool registers Slots threads with every
//     configured scheme (one scheme per store shard) and bundles the
//     per-scheme threads of equal slot index into one leasable slot.
//   - Lease hands the calling goroutine exclusive use of one slot's
//     thread bundle, waiting boundedly when all slots are out
//     (backpressure: ErrLeaseTimeout after Config.MaxWait).
//   - Release returns the slot after a *reuse audit*: the slot's
//     announcement rows must carry no live announcement and no helper
//     busy pin before the next lessee may run on them, so bookkeeping
//     is verifiably clean across lessees.  A transiently dirty slot
//     (a helper mid-H4..H8 on its row) is quarantined and recycled
//     once the audit passes.
//   - A lease that is neither released nor renewed within
//     Config.LeaseTTL is revoked by the reaper, so a handler that died
//     without running its cleanup cannot strand a slot forever.
//
// Revocation is a last-resort liveness device, not an isolation
// boundary: Lease.Thread panics once the lease is revoked or released,
// which stops a *resumed* zombie at its next handout, but a goroutine
// already inside a scheme operation cannot be stopped — the reuse audit
// exists to detect the traces such a zombie leaves (pinned slots, live
// announcements) and keep the slot out of circulation until they clear.
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
	// PExpired fires when the reaper revokes an expired lease.
	PExpired

	// NumPoints is the number of hook points.
	NumPoints
)

var pointNames = [...]string{
	PLeaseWait: "PLeaseWait", PLeaseGranted: "PLeaseGranted",
	PReleaseAudit: "PReleaseAudit", PRecycled: "PRecycled",
	PQuarantined: "PQuarantined", PExpired: "PExpired",
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
	// Slots is the number of leasable slots.  Zero takes every remaining
	// thread slot of the schemes (their minimum Threads() less any
	// already-registered threads is NOT computed — the schemes must have
	// Slots free registration slots each).
	Slots int
	// LeaseTTL, when positive, bounds how long a lease may be held
	// before the reaper revokes it.  Zero disables expiry.
	LeaseTTL time.Duration
	// ReapInterval is the reaper's polling period (default LeaseTTL/4,
	// minimum 1ms).  Ignored when LeaseTTL is zero.
	ReapInterval time.Duration
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
	cfg     Config
	schemes []mm.Scheme
	cores   []*core.Scheme // nil entries where the scheme is not the wait-free core
	slots   []*slot
	free    chan *slot

	quarMu     sync.Mutex
	quarantine []*slot

	closed atomic.Bool
	stop   chan struct{}
	reapWG sync.WaitGroup

	m poolMetrics
}

// slot is one leasable bundle: the thread registered at the same slot
// index in every scheme.
type slot struct {
	id      int
	threads []mm.Thread
	lease   atomic.Pointer[Lease]
}

// Lease states.
const (
	leaseActive int32 = iota
	leaseReleased
	leaseRevoked
)

// deadlineClaimed is the sentinel the reaper CASes into a lease's
// deadline to claim an observed expiry before revoking.  The claim
// arbitrates the reaper-vs-Renew race: a Renew that lands between the
// reaper's deadline read and its claim moves the deadline, the claim
// CAS fails and the revocation is abandoned — so a Renew that returned
// true is never overridden by a revocation based on the stale deadline
// it replaced.  Conversely a Renew that observes the sentinel reports
// the lease dead instead of resurrecting a slot the reaper is already
// recycling (which would put two users on one thread bundle and run
// the reuse audit against a still-active holder).
const deadlineClaimed int64 = -1

// Lease is exclusive use of one slot's thread bundle.  A Lease belongs
// to one goroutine; only Release is safe to call concurrently (it is
// idempotent and races benignly with reaper revocation).
type Lease struct {
	p        *Pool
	s        *slot
	state    atomic.Int32
	deadline int64 // unix nanos; 0 = no expiry
}

// New creates a pool over the given schemes, registering cfg.Slots
// threads with each.  The schemes are typically one wait-free core
// scheme per store shard; any mm.Scheme works, but only core schemes
// get announcement-row reuse audits.
func New(cfg Config, schemes ...mm.Scheme) (*Pool, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("slotpool: at least one scheme required")
	}
	n := cfg.Slots
	if n == 0 {
		n = schemes[0].Threads()
		for _, s := range schemes[1:] {
			if t := s.Threads(); t < n {
				n = t
			}
		}
	}
	if n <= 0 {
		return nil, fmt.Errorf("slotpool: Slots must be positive, got %d", n)
	}
	if cfg.AuditRetries == 0 {
		cfg.AuditRetries = 8
	}
	p := &Pool{
		cfg:     cfg,
		schemes: schemes,
		cores:   make([]*core.Scheme, len(schemes)),
		free:    make(chan *slot, n),
		stop:    make(chan struct{}),
	}
	for i, s := range schemes {
		if cs, ok := s.(*core.Scheme); ok {
			p.cores[i] = cs
		}
	}
	for i := 0; i < n; i++ {
		sl := &slot{id: i, threads: make([]mm.Thread, len(schemes))}
		for j, s := range schemes {
			t, err := s.Register()
			if err != nil {
				// Roll back every registration made so far.
				for _, done := range p.slots {
					for _, dt := range done.threads {
						dt.Unregister()
					}
				}
				for k := 0; k < j; k++ {
					sl.threads[k].Unregister()
				}
				return nil, fmt.Errorf("slotpool: registering slot %d with scheme %d (%s): %w", i, j, s.Name(), err)
			}
			sl.threads[j] = t
		}
		p.slots = append(p.slots, sl)
		p.free <- sl
	}
	p.m.slots.Store(int64(n))
	if cfg.LeaseTTL > 0 {
		interval := cfg.ReapInterval
		if interval == 0 {
			interval = cfg.LeaseTTL / 4
		}
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		p.reapWG.Add(1)
		go p.reap(interval)
	}
	return p, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(cfg Config, schemes ...mm.Scheme) *Pool {
	p, err := New(cfg, schemes...)
	if err != nil {
		panic(err)
	}
	return p
}

// Slots returns the number of leasable slots.
func (p *Pool) Slots() int { return len(p.slots) }

// Schemes returns the schemes the pool registers with, in shard order.
func (p *Pool) Schemes() []mm.Scheme { return append([]mm.Scheme(nil), p.schemes...) }

// SlotThreads returns every slot's registered thread for one scheme
// (shard) index, in slot order — for attaching per-thread OpStats to an
// observability collector.  The threads belong to the pool's lessees;
// callers may read their Stats but must not operate through them.
func (p *Pool) SlotThreads(scheme int) []mm.Thread {
	out := make([]mm.Thread, len(p.slots))
	for i, s := range p.slots {
		out[i] = s.threads[scheme]
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
func (p *Pool) Lease(ctx context.Context) (*Lease, error) {
	return p.lease(ctx, 0)
}

// LeaseBatch acquires one slot bundle to execute a batch of n
// operations under a single lease — the amortization fast path for
// multi-key ops (MGET/MSET, a drained pipeline burst).  The handout is
// exactly Lease's: one bundle, one reuse audit on Release; only the
// accounting differs, so dashboards can tell how much lease overhead
// batching saves (wfrc_slotpool_leases_batched_total vs the ops the
// batches carried).  n must be at least 1.
func (p *Pool) LeaseBatch(ctx context.Context, n int) (*Lease, error) {
	if n < 1 {
		return nil, fmt.Errorf("slotpool: LeaseBatch of %d operations", n)
	}
	return p.lease(ctx, n)
}

// lease is the shared slow path; batchOps > 0 marks a batched grant
// amortizing that many operations, 0 a single-op grant.
func (p *Pool) lease(ctx context.Context, batchOps int) (*Lease, error) {
	if p.closed.Load() {
		return nil, ErrClosed
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
		return nil, ctx.Err()
	case <-timeout:
		p.m.timeouts.Add(1)
		return nil, ErrLeaseTimeout
	case <-p.stop:
		return nil, ErrClosed
	}
}

// TryLease acquires a slot without blocking.  It exists for the
// deterministic scheduler's scenarios, where a virtual thread must not
// perform a real channel wait; servers use Lease.
func (p *Pool) TryLease() (*Lease, bool) {
	if p.closed.Load() {
		return nil, false
	}
	start := time.Now()
	p.hook(PLeaseWait)
	p.retryQuarantine()
	select {
	case s := <-p.free:
		return p.grant(s, start, 0), true
	default:
		return nil, false
	}
}

func (p *Pool) grant(s *slot, start time.Time, batchOps int) *Lease {
	l := &Lease{p: p, s: s}
	if p.cfg.LeaseTTL > 0 {
		l.deadline = time.Now().Add(p.cfg.LeaseTTL).UnixNano()
	}
	s.lease.Store(l)
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

// Slot returns the lease's slot index (the thread slot id in every
// scheme).
func (l *Lease) Slot() int { return l.s.id }

// Thread returns the slot's registered thread for the given scheme
// (shard) index.  It panics if the lease has been released or revoked:
// a zombie holder must not touch a bundle that may already belong to
// the next lessee.
func (l *Lease) Thread(shard int) mm.Thread {
	if st := l.state.Load(); st != leaseActive {
		panic(fmt.Sprintf("slotpool: Thread on %s lease of slot %d",
			map[int32]string{leaseReleased: "released", leaseRevoked: "revoked"}[st], l.s.id))
	}
	return l.s.threads[shard]
}

// Renew pushes the lease's expiry deadline out by another LeaseTTL.
// Long-lived holders (streaming handlers) call it between requests.
// It reports false when the lease is no longer active or the reaper has
// already claimed its expired deadline; true guarantees the reaper will
// not revoke on any deadline observed before this renewal.
func (l *Lease) Renew() bool {
	if l.state.Load() != leaseActive {
		return false
	}
	if l.p.cfg.LeaseTTL > 0 {
		next := time.Now().Add(l.p.cfg.LeaseTTL).UnixNano()
		for {
			cur := atomic.LoadInt64(&l.deadline)
			if cur == deadlineClaimed {
				// The reaper claimed the expiry; revocation is in
				// flight and the slot may already be with the next
				// lessee.  Reporting success here is the race the
				// claim protocol exists to close.
				return false
			}
			if atomic.CompareAndSwapInt64(&l.deadline, cur, next) {
				return true
			}
		}
	}
	return true
}

// Release returns the slot to the pool after the reuse audit.  It is
// idempotent, and a no-op if the reaper revoked the lease first.
func (l *Lease) Release() {
	if !l.state.CompareAndSwap(leaseActive, leaseReleased) {
		return
	}
	l.p.m.releases.Add(1)
	l.p.m.leased.Add(-1)
	l.s.lease.Store(nil)
	l.p.recycle(l.s)
}

// revoke is the reaper-side termination of an expired lease.  observed
// is the expired deadline the caller read; revoke first claims it, so a
// Renew racing in between wins and the revocation aborts.  Callers that
// have already claimed the deadline pass deadlineClaimed.  The lease
// state CAS then makes revocation and voluntary Release mutually
// exclusive — exactly one of them runs the reuse audit and recycles the
// slot, never both.
func (l *Lease) revoke(observed int64) bool {
	if observed != deadlineClaimed &&
		!atomic.CompareAndSwapInt64(&l.deadline, observed, deadlineClaimed) {
		return false // a concurrent Renew moved the deadline: renewal wins
	}
	if !l.state.CompareAndSwap(leaseActive, leaseRevoked) {
		return false
	}
	l.p.m.expiries.Add(1)
	l.p.m.leased.Add(-1)
	l.s.lease.Store(nil)
	l.p.hook(PExpired)
	l.p.recycle(l.s)
	return true
}

// forceRevoke claims whatever deadline the lease currently carries and
// then revokes unconditionally.  Close uses it after stopping the
// reaper, when renewal must no longer save a lease: the claim loop
// guarantees a concurrent Renew either finishes first (its deadline is
// the one claimed) or observes the sentinel and returns false.
func (l *Lease) forceRevoke() bool {
	for {
		cur := atomic.LoadInt64(&l.deadline)
		if cur == deadlineClaimed ||
			atomic.CompareAndSwapInt64(&l.deadline, cur, deadlineClaimed) {
			return l.revoke(deadlineClaimed)
		}
	}
}

// recycle audits the slot's announcement rows and either returns it to
// the free queue or quarantines it until the audit passes.
func (p *Pool) recycle(s *slot) {
	p.hook(PReleaseAudit)
	if p.auditSlot(s, p.cfg.AuditRetries) {
		p.hook(PRecycled)
		p.free <- s
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

// auditSlot checks the reuse hygiene of slot s across every core
// scheme: no live announcement in any of the slot's row cells (a
// stranded D3 publish would make helpers re-answer a dead lessee's
// dereference) and no helper busy pin (an H4 pin held across handout
// would let the previous lessee's helper CAS an answer into the next
// lessee's announcement — the cross-lessee ABA the audit exists to
// rule out).  Transient pins are waited out for up to retries yields.
// A live announcement is counted as a hygiene violation immediately:
// DeRefLink always swaps its announcement out before returning, so only
// a goroutine that died inside D3..D6 can leave one.
func (p *Pool) auditSlot(s *slot, retries int) bool {
	for attempt := 0; ; attempt++ {
		clean := true
		for _, cs := range p.cores {
			if cs == nil {
				continue
			}
			for j := 0; j < cs.Threads(); j++ {
				if cs.AnnSlotBusy(s.id, j) != 0 {
					clean = false
				}
			}
			if cs.AnnRowLive(s.id) {
				p.m.violations.Add(1)
				return false
			}
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

// reap revokes expired leases every interval.
func (p *Pool) reap(interval time.Duration) {
	defer p.reapWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for _, s := range p.slots {
			l := s.lease.Load()
			if l == nil || l.state.Load() != leaseActive {
				continue
			}
			if d := atomic.LoadInt64(&l.deadline); d != 0 && d != deadlineClaimed && now > d {
				l.revoke(d)
			}
		}
		p.retryQuarantine()
	}
}

// Drain waits until every slot is back in the free queue (all leases
// released or revoked and all quarantines cleared), or ctx is done.
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

// Close stops the reaper, revokes any leases still outstanding, and
// unregisters every slot thread from every scheme, leaving the schemes
// quiescent for their own audits.  Call Drain first for a graceful
// shutdown; Close after a successful Drain revokes nothing.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.stop)
	p.reapWG.Wait()
	for _, s := range p.slots {
		if l := s.lease.Load(); l != nil {
			l.forceRevoke()
		}
	}
	for _, s := range p.slots {
		for _, t := range s.threads {
			t.Unregister()
		}
	}
}
