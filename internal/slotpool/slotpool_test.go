package slotpool

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wfrc/internal/arena"
	"wfrc/internal/chaos"
	"wfrc/internal/core"
	"wfrc/internal/ds/hashmap"
	"wfrc/internal/mm"
	"wfrc/internal/schemes"
)

func newCore(t testing.TB, nodes, threads int) *core.Scheme {
	t.Helper()
	ar, err := arena.New(arena.Config{Nodes: nodes, LinksPerNode: 1, ValsPerNode: 2, RootLinks: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.New(ar, core.Config{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLeaseReleaseRoundtrip(t *testing.T) {
	s := newCore(t, 64, 4)
	p := MustNew(Config{Slots: 2}, s)
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Thread(0).ID(); got != l.Slot() {
		t.Fatalf("thread id %d != slot %d", got, l.Slot())
	}
	if st := p.Stats(); st.Leased != 1 || st.Leases != 1 {
		t.Fatalf("stats after lease: %+v", st)
	}
	l.Release()
	l.Release() // idempotent
	if st := p.Stats(); st.Leased != 0 || st.Releases != 1 {
		t.Fatalf("stats after release: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Thread on released lease did not panic")
		}
	}()
	l.Thread(0)
}

func TestLeaseBundlesMultipleSchemes(t *testing.T) {
	a, b := newCore(t, 64, 3), newCore(t, 64, 3)
	p := MustNew(Config{Slots: 3}, a, b)
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if l.Thread(0).ID() != l.Thread(1).ID() {
		t.Fatalf("bundle slot ids diverge: %d vs %d", l.Thread(0).ID(), l.Thread(1).ID())
	}
	// Both threads are real registered threads of their own scheme.
	h, err := l.Thread(1).Alloc()
	if err != nil {
		t.Fatal(err)
	}
	l.Thread(1).Release(h)
}

func TestBackpressureTimeout(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 1, MaxWait: 20 * time.Millisecond}, s)
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lease(context.Background()); !errors.Is(err, ErrLeaseTimeout) {
		t.Fatalf("second lease: err = %v, want ErrLeaseTimeout", err)
	}
	if st := p.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", st.Timeouts)
	}
	// Context cancellation is reported distinctly.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Lease(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled lease: err = %v", err)
	}
	l.Release()
	if _, err := p.Lease(context.Background()); err != nil {
		t.Fatalf("lease after release: %v", err)
	}
}

func TestTryLease(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 1}, s)
	defer p.Close()

	l, ok := p.TryLease()
	if !ok {
		t.Fatal("TryLease on fresh pool failed")
	}
	if _, ok := p.TryLease(); ok {
		t.Fatal("TryLease succeeded with all slots out")
	}
	l.Release()
	if _, ok := p.TryLease(); !ok {
		t.Fatal("TryLease after release failed")
	}
}

func TestLeaseTTLExpiryReclaimsSlot(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 1, LeaseTTL: 10 * time.Millisecond, ReapInterval: time.Millisecond}, s)
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a dead handler: never release.  The reaper must revoke
	// and the slot must become leasable again.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	l2, err := p.Lease(ctx)
	if err != nil {
		t.Fatalf("lease after expiry: %v", err)
	}
	defer l2.Release()
	if st := p.Stats(); st.Expiries != 1 {
		t.Fatalf("expiries = %d, want 1", st.Expiries)
	}
	// The zombie's Release is a no-op and its Thread panics.
	l.Release()
	if st := p.Stats(); st.Releases != 0 {
		t.Fatalf("zombie release counted: %+v", st)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Thread on revoked lease did not panic")
			}
		}()
		l.Thread(0)
	}()
}

func TestRenewDefersExpiry(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 1, LeaseTTL: 40 * time.Millisecond, ReapInterval: 2 * time.Millisecond}, s)
	defer p.Close()

	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(15 * time.Millisecond)
		if !l.Renew() {
			t.Fatalf("renew %d failed; lease revoked despite renewals (expiries=%d)", i, p.Stats().Expiries)
		}
	}
	l.Release()
	if st := p.Stats(); st.Expiries != 0 {
		t.Fatalf("renewed lease expired anyway: %+v", st)
	}
}

// TestReuseAuditCleanAcrossLessees churns leases through real scheme
// operations and asserts the audit never flags a row: a well-behaved
// lessee leaves no announcement-row traces.
func TestReuseAuditCleanAcrossLessees(t *testing.T) {
	s := newCore(t, 256, 4)
	m := hashmap.MustNew(s, hashmap.Config{Buckets: 4})
	p := MustNew(Config{Slots: 2, MaxWait: time.Second}, s)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l, err := p.Lease(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				th := l.Thread(0)
				k := uint64(g*1000 + i)
				if _, err := m.Set(th, k, k); err != nil {
					t.Error(err)
				}
				m.Get(th, k)
				m.Delete(th, k)
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Violations != 0 {
		t.Fatalf("reuse audit flagged %d hygiene violations", st.Violations)
	}
	if st.Quarantined != 0 {
		t.Fatalf("%d slots still quarantined at quiescence", st.Quarantined)
	}
	p.Close()
	for _, err := range s.Audit(nil) {
		t.Errorf("scheme audit: %v", err)
	}
}

// TestChurnMoreConnsThanSlots is the acceptance shape: 4× more worker
// goroutines than slots, sharded store, TTL reaper on, chaos injector
// on the lifecycle hook points — all audits clean afterwards.
func TestChurnMoreConnsThanSlots(t *testing.T) {
	const shards, slots, workers = 2, 4, 16
	var ss []mm.Scheme
	var cores []*core.Scheme
	for i := 0; i < shards; i++ {
		cs := newCore(t, 512, slots)
		cores = append(cores, cs)
		ss = append(ss, cs)
	}
	maps := make([]*hashmap.Map, shards)
	for i, s := range ss {
		maps[i] = hashmap.MustNew(s, hashmap.Config{Buckets: 4})
	}
	inj := chaos.NewInjector(42, chaos.Faults{DelayProb: 0.2, DelaySpins: 32, GoschedProb: 0.2, GoschedBurst: 2})
	p := MustNew(Config{
		Slots:        slots,
		LeaseTTL:     time.Second, // generous: expiry path exists but should not fire
		ReapInterval: 5 * time.Millisecond,
		MaxWait:      5 * time.Second,
		Hook:         func(Point) { inj.Perturb() },
	}, ss...)

	var wg sync.WaitGroup
	var ops atomic.Uint64
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				l, err := p.Lease(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				for sh := 0; sh < shards; sh++ {
					th := l.Thread(sh)
					k := uint64(g)<<32 | uint64(i)
					if _, err := maps[sh].Set(th, k, k^0xff); err != nil {
						t.Error(err)
					}
					maps[sh].CompareAndSet(th, k, k^0xff, k)
					maps[sh].Delete(th, k)
					ops.Add(3)
				}
				l.Release()
			}
		}(g)
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Violations != 0 || st.Quarantined != 0 {
		t.Fatalf("post-churn audit state: %+v", st)
	}
	if st.Leases < workers {
		t.Fatalf("leases = %d, want >= %d", st.Leases, workers)
	}
	p.Close()
	for i, cs := range cores {
		for _, err := range cs.Audit(nil) {
			t.Errorf("shard %d audit: %v", i, err)
		}
	}
	if inj.Log().Draws == 0 {
		t.Error("chaos injector never drew (hook not wired)")
	}
}

// TestCloseUnregistersAllThreads verifies that after Close every
// scheme's registration slots are free and the announcement rows obey
// the unregistered-row invariant (AuditAnnRows invariant 3).
func TestCloseUnregistersAllThreads(t *testing.T) {
	s := newCore(t, 64, 3)
	p := MustNew(Config{Slots: 3}, s)
	p.Close()
	for i := 0; i < 3; i++ {
		if s.RegisteredThread(i) {
			t.Fatalf("slot %d still registered after Close", i)
		}
	}
	for _, err := range s.AuditAnnRows() {
		t.Errorf("ann rows after Close: %v", err)
	}
	if _, err := p.Lease(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("lease on closed pool: %v", err)
	}
	// Re-registration works: the pool gave the slots back.
	th, err := s.Register()
	if err != nil {
		t.Fatalf("register after Close: %v", err)
	}
	th.Unregister()
}

func TestSlotsDefaultsToSchemeThreads(t *testing.T) {
	a, b := newCore(t, 64, 5), newCore(t, 64, 3)
	p := MustNew(Config{}, a, b)
	defer p.Close()
	if p.Slots() != 3 {
		t.Fatalf("Slots() = %d, want min(5,3)=3", p.Slots())
	}
}

func TestWorksOverEverySchemeKind(t *testing.T) {
	// The pool is scheme-neutral: bundle one scheme of each kind.
	var ss []mm.Scheme
	for _, f := range schemes.Factories() {
		s, err := f.New(arena.Config{Nodes: 64, LinksPerNode: 1, ValsPerNode: 2, RootLinks: 8},
			schemes.Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, s)
	}
	p := MustNew(Config{Slots: 2}, ss...)
	defer p.Close()
	l, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ss {
		h, err := l.Thread(i).Alloc()
		if err != nil {
			t.Fatalf("scheme %d alloc: %v", i, err)
		}
		l.Thread(i).Release(h)
	}
	l.Release()
}

func TestWritePromShape(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 2}, s)
	defer p.Close()
	l, _ := p.Lease(context.Background())
	l.Release()
	var b strings.Builder
	if err := p.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"wfrc_slotpool_slots 2",
		"wfrc_slotpool_leases_total 1",
		"wfrc_slotpool_lease_wait_seconds_count 1",
		"# TYPE wfrc_slotpool_lease_wait_seconds histogram",
		// The shared nanosecond buckets: 2^(i+1) ns as seconds.
		`wfrc_slotpool_lease_wait_seconds_bucket{le="1.024e-06"} `,
		`wfrc_slotpool_lease_wait_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestWaitHistQuantile pins how Stats reads the pool's lease-wait
// histogram (the shared mm.LatencyHist): p50 and p99 are power-of-two
// nanosecond bucket bounds, the mean is exact.
func TestWaitHistQuantile(t *testing.T) {
	p := MustNew(Config{Slots: 1}, newCore(t, 64, 1))
	defer p.Close()
	for i := 0; i < 99; i++ {
		p.m.waits.Record(2 * time.Microsecond)
	}
	p.m.waits.Record(3 * time.Millisecond)
	st := p.Stats()
	if st.WaitP50Ns != 2048 || st.WaitP99Ns != 2048 {
		t.Errorf("p50/p99 = %g/%g ns, want the 2µs sample's bucket bound 2048", st.WaitP50Ns, st.WaitP99Ns)
	}
	if want := (99*2e3 + 3e6) / 100; st.WaitMeanNs != want {
		t.Errorf("mean = %g ns, want %g", st.WaitMeanNs, want)
	}
}

// stubAnnotator records annotation calls for TestAnnotatorNotified.
type stubAnnotator struct {
	mu      sync.Mutex
	granted []int
	waits   []time.Duration
	quars   []int
}

func (a *stubAnnotator) LeaseGranted(slot int, wait time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.granted = append(a.granted, slot)
	a.waits = append(a.waits, wait)
}

func (a *stubAnnotator) SlotQuarantined(slot int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.quars = append(a.quars, slot)
}

// TestAnnotatorNotified checks that the span-tracing Annotator hook sees
// every lease grant with the slot identity and a sane wait, and that
// TryLease goes through the same path.
func TestAnnotatorNotified(t *testing.T) {
	s := newCore(t, 64, 4)
	ann := &stubAnnotator{}
	p := MustNew(Config{Slots: 2, Annotator: ann}, s)
	defer p.Close()

	l1, err := p.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l2, ok := p.TryLease()
	if !ok {
		t.Fatal("TryLease failed with a slot free")
	}
	ann.mu.Lock()
	if len(ann.granted) != 2 {
		t.Fatalf("annotator saw %d grants, want 2", len(ann.granted))
	}
	if ann.granted[0] != l1.Slot() || ann.granted[1] != l2.Slot() {
		t.Errorf("granted slots %v, want [%d %d]", ann.granted, l1.Slot(), l2.Slot())
	}
	for i, w := range ann.waits {
		if w < 0 {
			t.Errorf("grant %d has negative wait %v", i, w)
		}
	}
	if len(ann.quars) != 0 {
		t.Errorf("spurious quarantine annotations: %v", ann.quars)
	}
	ann.mu.Unlock()
	l1.Release()
	l2.Release()
}

// TestRenewRevokeRace pins the reaper-vs-Renew arbitration protocol,
// meant to run under -race: the reaper reads a lease's deadline and
// tries to revoke on it while the holder renews concurrently.  Exactly
// one side may win — a Renew that returned true must never be
// overridden by a revocation based on the stale deadline it replaced
// (before the deadline-claim CAS the reaper could revoke a just-renewed
// lease and hand its slot to the next lessee while the renewed holder
// kept operating on it).
func TestRenewRevokeRace(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 1, LeaseTTL: time.Hour}, s)
	defer p.Close()

	iters := 1000
	if testing.Short() {
		iters = 100
	}
	for i := 0; i < iters; i++ {
		l, err := p.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		observed := atomic.LoadInt64(&l.deadline) // the reaper's read
		var renewOK, revoked bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); renewOK = l.Renew() }()
		go func() { defer wg.Done(); revoked = l.revoke(observed) }()
		wg.Wait()
		if renewOK == revoked {
			t.Fatalf("iter %d: Renew=%v revoke=%v, want exactly one winner", i, renewOK, revoked)
		}
		if renewOK {
			l.Thread(0) // must not panic: the renewed lease survived
			l.Release()
		}
		if got := len(p.free); got != 1 {
			t.Fatalf("iter %d: free queue holds %d slots, want 1 (slot lost or doubled)", i, got)
		}
	}
	st := p.Stats()
	if st.Releases+st.Expiries != uint64(iters) {
		t.Fatalf("releases(%d)+expiries(%d) = %d, want %d (exactly one recycle per lease)",
			st.Releases, st.Expiries, st.Releases+st.Expiries, iters)
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0 (leaked quarantine entry)", st.Quarantined)
	}
}

// TestReleaseRevokeRace races a voluntary Release against a reaper
// revocation of the same lease: exactly one of them may run the reuse
// audit and recycle the slot.  A double recycle would enqueue the slot
// twice into the capacity-1 free channel (blocking forever) or leak a
// quarantine entry for a slot that is simultaneously back in
// circulation.
func TestReleaseRevokeRace(t *testing.T) {
	s := newCore(t, 64, 2)
	p := MustNew(Config{Slots: 1, LeaseTTL: time.Hour}, s)
	defer p.Close()

	iters := 1000
	if testing.Short() {
		iters = 100
	}
	for i := 0; i < iters; i++ {
		l, err := p.Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		observed := atomic.LoadInt64(&l.deadline)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); l.Release() }()
		go func() { defer wg.Done(); l.revoke(observed) }()
		wg.Wait()
		if got := len(p.free); got != 1 {
			t.Fatalf("iter %d: free queue holds %d slots, want 1", i, got)
		}
	}
	st := p.Stats()
	if st.Releases+st.Expiries != uint64(iters) {
		t.Fatalf("releases(%d)+expiries(%d) = %d, want %d (double recycle or lost lease)",
			st.Releases, st.Expiries, st.Releases+st.Expiries, iters)
	}
	if st.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0", st.Quarantined)
	}
}
