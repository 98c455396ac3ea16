package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"wfrc/internal/chaos"
	"wfrc/internal/obs"
	"wfrc/internal/slotpool"
)

func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

func smallStore() StoreConfig {
	return StoreConfig{Slots: 4, Nodes: 1 << 11, Buckets: 32}
}

func TestProtoRoundtrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: 7},
		{Op: OpSet, Key: 7, Value: 99},
		{Op: OpDel, Key: 7},
		{Op: OpCAS, Key: 7, Old: 99, Value: 100},
		{Op: OpStats},
	}
	for _, want := range reqs {
		got, err := DecodeRequest(EncodeRequest(nil, want))
		if err != nil {
			t.Fatalf("op %d: %v", want.Op, err)
		}
		if got.Op != want.Op || got.Key != want.Key || got.Value != want.Value ||
			got.Old != want.Old || len(got.Sub) != 0 {
			t.Fatalf("roundtrip: got %+v, want %+v", got, want)
		}
	}
	if _, err := DecodeRequest([]byte{42}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := DecodeRequest([]byte{OpGet, 1, 2}); err == nil {
		t.Error("short args accepted")
	}
}

func TestKVSemanticsOverTCP(t *testing.T) {
	srv, addr := startServer(t, Config{Store: smallStore()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, ok, _ := c.Get(1); ok {
		t.Fatal("fresh store has key 1")
	}
	if ins, err := c.Set(1, 10); err != nil || !ins {
		t.Fatalf("Set(1,10) = %v,%v", ins, err)
	}
	if ins, err := c.Set(1, 20); err != nil || ins {
		t.Fatalf("overwrite Set = %v,%v, want update", ins, err)
	}
	if v, ok, _ := c.Get(1); !ok || v != 20 {
		t.Fatalf("Get(1) = %d,%v, want 20,true", v, ok)
	}
	if swapped, found, _ := c.CompareAndSet(1, 20, 30); !swapped || !found {
		t.Fatalf("CAS(1,20,30) = %v,%v", swapped, found)
	}
	if swapped, found, _ := c.CompareAndSet(1, 20, 40); swapped || !found {
		t.Fatalf("stale CAS = %v,%v, want false,true", swapped, found)
	}
	if swapped, found, _ := c.CompareAndSet(2, 0, 1); swapped || found {
		t.Fatalf("CAS on absent key = %v,%v", swapped, found)
	}
	if ok, _ := c.Delete(1); !ok {
		t.Fatal("Delete(1) missed")
	}
	if ok, _ := c.Delete(1); ok {
		t.Fatal("double Delete hit")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pool.Leased != 1 || st.Conns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestBackpressureBusy pins every slot out of band and verifies that a
// request is answered with StatusBusy instead of queueing forever, and
// that the same connection is served once the slots come back.
func TestBackpressureBusy(t *testing.T) {
	cfg := Config{
		Store:        StoreConfig{Slots: 2, Nodes: 256, Buckets: 4},
		LeaseMaxWait: 30 * time.Millisecond,
	}
	srv, addr := startServer(t, cfg)
	defer srv.Shutdown(context.Background())

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var pinned []slotpool.Lease
	for i := 0; i < 2; i++ {
		l, err := srv.Pool().Lease(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer l.Release() // idempotent; keeps the deferred Shutdown from waiting on it
		pinned = append(pinned, l)
	}
	if _, err := c.Set(99, 1); !errors.Is(err, ErrBusy) {
		t.Fatalf("Set with every slot pinned: err = %v, want ErrBusy", err)
	}
	for _, l := range pinned {
		l.Release()
	}
	if _, err := c.Set(100, 1); err != nil {
		t.Fatalf("Set on the same connection after release: %v", err)
	}
}

// TestNativeIdleConnectionsHoldNoSlot is the per-frame lease: with one
// slot, two native connections that have been served and now sit idle
// hold nothing, so a third is served without a single Busy.
func TestNativeIdleConnectionsHoldNoSlot(t *testing.T) {
	srv, addr := startServer(t, Config{
		Store:        StoreConfig{Slots: 1, Nodes: 256, Buckets: 4},
		LeaseMaxWait: 30 * time.Millisecond,
	})
	for i := 0; i < 2; i++ {
		idle, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer idle.Close()
		if _, err := idle.Set(uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < 100; i++ {
		var err error
		if i%2 == 0 {
			_, err = c.Set(10+i, i)
		} else {
			_, _, err = c.Get(10 + i - 1)
		}
		if err != nil {
			t.Fatalf("request %d beside two idle connections: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestNativeSteadyStateAllocs pins the native loop's heap objects per
// request once warm: the 4-byte headers of ReadFrame and WriteFrame
// escape (two tiny objects), and the per-frame lease, a value handle,
// adds none.  A lease that allocated would be garbage per frame, growing
// the server's heap, and its peak RSS, with the request rate.
func TestNativeSteadyStateAllocs(t *testing.T) {
	const depth, warm, measured = 32, 50, 200
	srv, err := New(Config{Store: smallStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	var prime, batch bytes.Buffer
	for k := uint64(0); k < depth; k++ {
		WriteFrame(&prime, EncodeRequest(nil, Request{Op: OpSet, Key: k, Value: k}))
		if k%2 == 0 {
			WriteFrame(&batch, EncodeRequest(nil, Request{Op: OpGet, Key: k}))
		} else {
			WriteFrame(&batch, EncodeRequest(nil, Request{Op: OpSet, Key: k, Value: k + 1}))
		}
	}
	var before, after runtime.MemStats
	conn := &replayConn{in: append(prime.Bytes(), bytes.Repeat(batch.Bytes(), warm+measured)...), chunk: prime.Len()}
	conn.onRead = func(reads int) {
		conn.chunk = batch.Len()
		if reads == 1+warm {
			runtime.ReadMemStats(&before)
		}
	}
	srv.handleNative(conn, bufio.NewReader(conn))
	runtime.ReadMemStats(&after)

	if got, want := srv.Stats().RequestsNative, uint64((1+warm+measured)*depth); got != want {
		t.Fatalf("requests_native = %d, want %d", got, want)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / (measured * depth)
	if perReq > 2.01 {
		t.Errorf("steady state allocates %.3f objects per request, want 2 (the frame headers)", perReq)
	}
}

// TestGracefulShutdownZeroLeaks is the satellite acceptance test: many
// concurrent connections (more than slots) churn keys — including keys
// left live at shutdown — then SIGTERM-equivalent Shutdown must drain
// cleanly with zero arena leaks and zero announcement-row violations.
func TestGracefulShutdownZeroLeaks(t *testing.T) {
	inj := chaos.NewInjector(7, chaos.Faults{DelayProb: 0.1, DelaySpins: 16, GoschedProb: 0.1, GoschedBurst: 1})
	srv, addr := startServer(t, Config{
		Store: StoreConfig{Slots: 3, Nodes: 1 << 12, Buckets: 32},
		Hook:  func(slotpool.Point) { inj.Perturb() },
	})

	const workers = 9 // 3× the slot capacity
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				c, err := Dial(addr)
				if err != nil {
					t.Error(err)
					return
				}
				k := uint64(g)<<16 | uint64(i)
				if _, err := c.Set(k, k); err != nil && !errors.Is(err, ErrBusy) {
					t.Errorf("Set: %v", err)
				}
				if i%3 != 0 { // leave every third key live across shutdown
					c.Delete(k)
				}
				c.Close()
			}
		}(g)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown audit: %v", err)
	}
	if n := srv.Store().Len(); n <= 0 {
		t.Fatalf("store lost its surviving keys: Len = %d", n)
	}
	st := srv.Stats()
	if st.Pool.Violations != 0 {
		t.Fatalf("hygiene violations: %d", st.Pool.Violations)
	}
	if srv.Store().opsTotal() == 0 {
		t.Fatal("no ops recorded")
	}
}

// TestShutdownWakesIdleConnections verifies drain does not hang on a
// connection that is parked in a blocking read.
func TestShutdownWakesIdleConnections(t *testing.T) {
	srv, addr := startServer(t, Config{Store: smallStore()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set(1, 1); err != nil {
		t.Fatal(err)
	}
	// c now idles, blocked in no read at all (client side); the server
	// handler is blocked in ReadFrame, holding no lease.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with idle conn: %v", err)
	}
}

// TestStoreNodeBudgetIsOnePool pins that the node budget is one pool
// that every key can draw on.  The keys are the ones the store's former
// four-way split (a murmur-style mix of the key, low two bits) sent to
// one quarter of the nodes, so half the budget in such keys ran that
// quarter out of nodes while the other three sat empty.
func TestStoreNodeBudgetIsOnePool(t *testing.T) {
	const nodes = 4096
	st, err := NewStore(StoreConfig{Slots: 2, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	pool := slotpool.MustNew(slotpool.Config{Slots: 2}, st.scheme)
	lease, err := pool.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inserted := 0
	for k := uint64(0); inserted < nodes/2; k++ {
		if mix := (k ^ k>>33) * 0xff51afd7ed558ccd; mix>>33&3 != 0 {
			continue
		}
		if _, err := st.Set(lease, k, k); err != nil {
			t.Fatalf("Set of key %d (%d inserted): %v", k, inserted, err)
		}
		inserted++
	}
	lease.Release()
	pool.Close()
	if n := st.Len(); n != nodes/2 {
		t.Errorf("Len = %d, want %d", n, nodes/2)
	}
	for _, err := range st.Audit() {
		t.Errorf("audit: %v", err)
	}
}

// TestStoreGeometry pins the index sizing rule: one bucket per 4 nodes of
// the arena, rounded down to a power of two, never below 16; an explicit
// bucket count is honoured.
func TestStoreGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  StoreConfig
		want int
	}{
		{"default", StoreConfig{}, 1 << 16},
		{"fixed", StoreConfig{Nodes: 1 << 10}, 256},
		{"fixed, not a power of two", StoreConfig{Nodes: 1000}, 128},
		{"tiny", StoreConfig{Nodes: 8}, 16},
		{"explicit", StoreConfig{Nodes: 1 << 10, Buckets: 32}, 32},
	} {
		c.cfg.Slots = 1
		if got := c.cfg.ArenaConfig().RootLinks; got != c.want+2 {
			t.Errorf("%s: ArenaConfig().RootLinks = %d, want %d buckets + 2", c.name, got, c.want)
		}
		st, err := NewStore(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := st.Buckets(); got != c.want {
			t.Errorf("%s: %d buckets, want %d", c.name, got, c.want)
		}
	}
}

// TestStoreChainsStayShort fills a small store to half its node budget
// and measures every key's chain position as a count: a Get dereferences
// the bucket head plus one link per node up to the key.
func TestStoreChainsStayShort(t *testing.T) {
	srv, err := New(Config{Store: StoreConfig{Slots: 2, Nodes: 1 << 13}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	st := srv.Store()
	lease, err := srv.Pool().Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	const keys = 1 << 12 // half of 8192 nodes
	for k := uint64(0); k < keys; k++ {
		if _, err := st.Set(lease, k, k); err != nil {
			t.Fatal(err)
		}
	}
	longest := uint64(0)
	for k := uint64(0); k < keys; k++ {
		stats := lease.Thread().Stats()
		before := stats.DeRefs
		if v, ok := st.Get(lease, k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
		if pos := stats.DeRefs - before - 1; pos > longest {
			longest = pos
		}
	}
	if longest < 2 || longest > 8 {
		t.Errorf("longest chain holds %d nodes at half occupancy of %d buckets, want 2..8",
			longest, st.Buckets())
	}
}

// TestServerSpansRecorded drives requests through the TCP path with a
// span tracer attached and checks that each request produced a span
// with the right op/status names, its key, and the lease wait of its own
// per-frame lease.
func TestServerSpansRecorded(t *testing.T) {
	store := smallStore()
	spans := obs.NewSpanTracer(store.Slots, 64, OpNames, StatusNames)
	srv, addr := startServer(t, Config{Store: store, Spans: spans, ProfLabels: true})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Set(7, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("Get(7) = %d,%v,%v", v, ok, err)
	}
	if _, ok, _ := c.Get(99999); ok {
		t.Fatal("phantom key")
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}

	got := spans.Snapshot()
	if len(got) != 4 || spans.Total() != 4 {
		t.Fatalf("recorded %d spans (total %d), want 4", len(got), spans.Total())
	}
	checks := []struct {
		op, status string
		key        uint64
	}{
		{"set", "ok", 7},
		{"get", "ok", 7},
		{"get", "not_found", 99999},
		{"stats", "ok", 0},
	}
	for i, want := range checks {
		sp := got[i]
		if sp.Op != want.op || sp.Status != want.status || sp.Key != want.key {
			t.Errorf("span %d = %s/%s key %d, want %s/%s key %d",
				i, sp.Op, sp.Status, sp.Key, want.op, want.status, want.key)
		}
		if sp.DurNS < 0 || sp.ID == 0 || sp.LeaseWaitNS < 0 {
			t.Errorf("span %d has id %d dur %d lease wait %d", i, sp.ID, sp.DurNS, sp.LeaseWaitNS)
		}
	}

	// The per-op histograms saw the same requests.
	if n := srv.Hists().MergedOp(int(OpGet) - 1).Count; n != 2 {
		t.Errorf("get histogram count = %d, want 2", n)
	}
	if n := srv.Hists().MergedOp(int(OpSet) - 1).Count; n != 1 {
		t.Errorf("set histogram count = %d, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c.Close()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown audit: %v", err)
	}
}
