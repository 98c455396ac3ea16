package server

import (
	"context"
	"errors"
	"net"
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
	return StoreConfig{Shards: 2, Slots: 4, NodesPerShard: 1 << 10, Buckets: 16}
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

// TestBackpressureBusy pins every slot with idle connections and
// verifies the next connection is turned away with StatusBusy instead
// of queueing forever.
func TestBackpressureBusy(t *testing.T) {
	cfg := Config{
		Store:        StoreConfig{Shards: 1, Slots: 2, NodesPerShard: 256, Buckets: 4},
		LeaseMaxWait: 30 * time.Millisecond,
	}
	srv, addr := startServer(t, cfg)
	defer srv.Shutdown(context.Background())

	var pinned []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Set(uint64(i), 1); err != nil { // forces the lease
			t.Fatal(err)
		}
		pinned = append(pinned, c)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set(99, 1); !errors.Is(err, ErrBusy) {
		t.Fatalf("third connection: err = %v, want ErrBusy", err)
	}
	pinned[0].Close()
	// The freed slot becomes leasable; a fresh connection succeeds.
	deadlineOk := false
	for i := 0; i < 50; i++ {
		c2, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c2.Set(100, 1); err == nil {
			c2.Close()
			deadlineOk = true
			break
		}
		c2.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !deadlineOk {
		t.Fatal("slot never freed after connection close")
	}
}

// TestConnectionDeathFreesSlotViaTTL kills a connection's process-side
// abruptly and verifies the reaper path exists for handlers that never
// run their cleanup: here we simulate by leasing directly from the pool
// and abandoning the lease.
func TestConnectionDeathFreesSlotViaTTL(t *testing.T) {
	srv, addr := startServer(t, Config{
		Store:    StoreConfig{Shards: 1, Slots: 1, NodesPerShard: 256, Buckets: 4},
		LeaseTTL: 50 * time.Millisecond,
	})
	defer srv.Shutdown(context.Background())

	// Abandon a lease taken out-of-band (the moral equivalent of a
	// handler goroutine dying without its deferred Release).
	if _, err := srv.Pool().Lease(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set(1, 1); err != nil {
		t.Fatalf("Set after abandoned lease: %v (reaper never reclaimed)", err)
	}
	if exp := srv.Pool().Stats().Expiries; exp != 1 {
		t.Fatalf("expiries = %d, want 1", exp)
	}
}

// TestGracefulShutdownZeroLeaks is the satellite acceptance test: many
// concurrent connections (more than slots) churn keys — including keys
// left live at shutdown — then SIGTERM-equivalent Shutdown must drain
// cleanly with zero arena leaks and zero announcement-row violations.
func TestGracefulShutdownZeroLeaks(t *testing.T) {
	inj := chaos.NewInjector(7, chaos.Faults{DelayProb: 0.1, DelaySpins: 16, GoschedProb: 0.1, GoschedBurst: 1})
	srv, addr := startServer(t, Config{
		Store: StoreConfig{Shards: 2, Slots: 3, NodesPerShard: 1 << 11, Buckets: 16},
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
	var total uint64
	for _, n := range st.ShardOps {
		if n == 0 {
			t.Errorf("a shard saw zero ops: %v (shard hash degenerate?)", st.ShardOps)
		}
		total += n
	}
	if total == 0 {
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
	// c now idles, holding a lease, blocked in no read at all (client
	// side); the server handler is blocked in ReadFrame.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with idle conn: %v", err)
	}
}

func TestStoreShardBalance(t *testing.T) {
	st, err := NewStore(StoreConfig{Shards: 4, Slots: 1, NodesPerShard: 256, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, st.Shards())
	for k := uint64(0); k < 4096; k++ {
		counts[st.Shard(k)]++
	}
	for i, n := range counts {
		if n < 512 || n > 1536 {
			t.Errorf("shard %d got %d of 4096 sequential keys (want ~1024)", i, n)
		}
	}
}

// TestStoreGeometry pins the index sizing rule: one bucket per 4 nodes of
// the shard's ceiling (not of its first segment), rounded down to a
// power of two, never below 16; an explicit bucket count is honoured.
func TestStoreGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  StoreConfig
		want int
	}{
		{"default", StoreConfig{}, 1 << 14},
		{"fixed", StoreConfig{NodesPerShard: 1 << 10}, 256},
		{"fixed, not a power of two", StoreConfig{NodesPerShard: 1000}, 128},
		{"growable: ceiling, not first segment", StoreConfig{NodesPerShard: 1 << 10, MaxNodesPerShard: 1 << 13}, 2048},
		{"ceiling below the first segment", StoreConfig{NodesPerShard: 1 << 10, MaxNodesPerShard: 64}, 256},
		{"tiny", StoreConfig{NodesPerShard: 8}, 16},
		{"explicit", StoreConfig{NodesPerShard: 1 << 10, MaxNodesPerShard: 1 << 13, Buckets: 32}, 32},
	} {
		c.cfg.Shards, c.cfg.Slots = 1, 1
		if got := c.cfg.ArenaConfig().RootLinks; got != c.want+2 {
			t.Errorf("%s: ArenaConfig().RootLinks = %d, want %d buckets + 2", c.name, got, c.want)
		}
		st, err := NewStore(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := st.Buckets(); got != c.want {
			t.Errorf("%s: %d buckets per shard, want %d", c.name, got, c.want)
		}
	}
}

// TestStoreChainsStayShort fills a small store to half its node budget
// and measures every key's chain position as a count: a Get dereferences
// the bucket head plus one link per node up to the key.
func TestStoreChainsStayShort(t *testing.T) {
	srv, err := New(Config{Store: StoreConfig{Shards: 2, Slots: 2, NodesPerShard: 1 << 12}})
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
	const keys = 1 << 12 // half of 2 shards × 4096 nodes
	for k := uint64(0); k < keys; k++ {
		if _, err := st.Set(lease, k, k); err != nil {
			t.Fatal(err)
		}
	}
	longest := uint64(0)
	for k := uint64(0); k < keys; k++ {
		stats := lease.Thread(st.Shard(k)).Stats()
		before := stats.DeRefs
		if v, ok := st.Get(lease, k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
		if pos := stats.DeRefs - before - 1; pos > longest {
			longest = pos
		}
	}
	if longest < 2 || longest > 8 {
		t.Errorf("longest chain holds %d nodes at half occupancy of %d buckets/shard, want 2..8",
			longest, st.Buckets())
	}
}

// TestServerSpansRecorded drives requests through the TCP path with a
// span tracer attached and checks that each request produced a span
// with the right op/status names, the shard it routed to, and the
// connection's lease wait on its first request only.
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
	wantShard := srv.Store().Shard(7)
	checks := []struct {
		op, status string
		shard      int
	}{
		{"set", "ok", wantShard},
		{"get", "ok", wantShard},
		{"get", "not_found", srv.Store().Shard(99999)},
		{"stats", "ok", 0},
	}
	for i, want := range checks {
		sp := got[i]
		if sp.Op != want.op || sp.Status != want.status || sp.Shard != want.shard {
			t.Errorf("span %d = %s/%s shard %d, want %s/%s shard %d",
				i, sp.Op, sp.Status, sp.Shard, want.op, want.status, want.shard)
		}
		if sp.DurNS < 0 || sp.ID == 0 {
			t.Errorf("span %d has id %d dur %d", i, sp.ID, sp.DurNS)
		}
		if i > 0 && sp.LeaseWaitNS != 0 {
			t.Errorf("span %d carries lease wait %d; only the first request should", i, sp.LeaseWaitNS)
		}
	}

	// The per-op×shard histograms saw the same requests.
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
