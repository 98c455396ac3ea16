package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/core"
	"wfrc/internal/mm"
	"wfrc/internal/obs"
	"wfrc/internal/slotpool"
)

// Config parameterizes a Server.
type Config struct {
	// Store configures the sharded KV store.
	Store StoreConfig
	// LeaseTTL bounds how long a connection may hold its slot lease
	// without completing a request (default 30s; the lease renews on
	// every request, so only a dead or wedged connection expires).
	LeaseTTL time.Duration
	// LeaseMaxWait bounds how long a new connection waits for a free
	// slot before being turned away with StatusBusy (default 2s).
	LeaseMaxWait time.Duration
	// Hook is forwarded to the slotpool for chaos injection.
	Hook func(slotpool.Point)
	// Spans, when set, records a span per request: the server opens it
	// before dispatch, the slot pool annotates lease-wait/quarantine
	// phases (the tracer is installed as the pool's Annotator), and the
	// span ID is installed as the slot's thread tag on the target shard's
	// core scheme so help events carry it.  The tracer must cover at
	// least Store.Slots lanes.
	Spans *obs.SpanTracer
	// ProfLabels attaches pprof labels ("op", "shard") to the handler
	// goroutine around each request, so CPU profiles break down by
	// protocol op and store shard.  Label contexts are precomputed at
	// construction; the per-request cost is two SetGoroutineLabels calls.
	ProfLabels bool
}

// StatsReply is the JSON body of an OpStats response: the server-side
// counters a load generator folds into its report without scraping the
// Prometheus endpoint.
type StatsReply struct {
	Pool        slotpool.Stats `json:"pool"`
	ShardOps    []uint64       `json:"shard_ops"`
	Conns       int64          `json:"conns"`
	ConnsTotal  uint64         `json:"conns_total"`
	Busy        uint64         `json:"busy_rejects"`
	ProtoErrors uint64         `json:"proto_errors"`
	// Growable and Capacity describe the store's arenas (README
	// "Capacity model"): per-shard attached/max node counts and segment
	// attach counters.  Capacity is present on every server; on a fixed
	// store each entry reports Segments == 1 and Nodes == MaxNodes.
	Growable bool            `json:"growable"`
	Capacity []ShardCapacity `json:"capacity"`
	// RequestsNative and RequestsRESP count requests by front-end
	// protocol (RESP commands count one each, including multi-key ones).
	RequestsNative uint64 `json:"requests_native"`
	RequestsRESP   uint64 `json:"requests_resp"`
	// Memory is the memory-lifecycle snapshot (schema v5): per-shard
	// retired/reclaimed/floating counters with reclamation-lag quantiles,
	// plus occupancy gauges.  wfrc-load folds it into its report so CI
	// can gate on the floating-garbage high-water mark.
	Memory *obs.MemSnapshot `json:"memory,omitempty"`
}

// Server serves the KV protocol over TCP.  One slot lease per
// connection: the lease is taken after accept, renewed on every
// request, and released when the connection ends — the TTL reaper
// reclaims the slot of a connection that died without cleanup.
type Server struct {
	cfg   Config
	store *Store
	pool  *slotpool.Pool

	spans *obs.SpanTracer
	cores []*core.Scheme // per shard; nil where the scheme is not the wait-free core
	hists *obs.OpShardHist
	// labelCtx[op-1][shard] are precomputed pprof label contexts; nil
	// when ProfLabels is off.  labelBase restores the unlabeled state.
	labelCtx  [][]context.Context
	labelBase context.Context

	mu    sync.Mutex
	lns   []net.Listener // every Serve'd listener (native + RESP ports share the Server)
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	draining atomic.Bool

	curConns    atomic.Int64
	connsTotal  atomic.Uint64
	busy        atomic.Uint64
	protoErrors atomic.Uint64
	reqsNative  atomic.Uint64
	reqsRESP    atomic.Uint64

	// collector aggregates per-scheme counters for the INFO command and
	// for /metrics (wfrc-kv registers it on the obs HTTP server).
	collector *obs.Collector
	// memCollector aggregates the memory-lifecycle telemetry: one
	// mm.LifecycleTracker per shard scheme plus occupancy gauges (ZCT
	// depth, delta-cache fill, arena segments, live value blocks).  It
	// backs the INFO "# Memory" section, the /metrics wfrc_mem_* families
	// and StatsReply.Memory.
	memCollector *obs.LifecycleCollector
}

// New builds the store and its slot pool.
func New(cfg Config) (*Server, error) {
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.LeaseMaxWait == 0 {
		cfg.LeaseMaxWait = 2 * time.Second
	}
	store, err := NewStore(cfg.Store)
	if err != nil {
		return nil, err
	}
	// The nil check matters: assigning a nil *obs.SpanTracer directly
	// would make the interface non-nil and panic inside the pool.
	var ann slotpool.Annotator
	if cfg.Spans != nil {
		ann = cfg.Spans
	}
	pool, err := slotpool.New(slotpool.Config{
		Slots:     store.cfg.Slots,
		LeaseTTL:  cfg.LeaseTTL,
		MaxWait:   cfg.LeaseMaxWait,
		Hook:      cfg.Hook,
		Annotator: ann,
	}, store.Schemes()...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		pool:      pool,
		spans:     cfg.Spans,
		cores:     store.CoreSchemes(),
		hists:     obs.NewOpShardHist(OpNames[1:], store.Shards()),
		conns:     make(map[net.Conn]struct{}),
		collector: obs.NewCollector(),
	}
	s.memCollector = obs.NewLifecycleCollector()
	for i, cs := range s.cores {
		if cs == nil {
			continue
		}
		scheme := fmt.Sprintf("waitfree-shard%d", i)
		for _, th := range pool.SlotThreads(i) {
			s.collector.Attach(scheme, th.ID(), th.Stats())
		}
		cs := cs
		s.collector.AttachGauge("wfrc_ann_scan_violations", scheme, func() int64 { return int64(cs.AnnScanViolations()) })

		// Memory-lifecycle telemetry: the tracker stamps every retire and
		// times the retire→free lag; the gauges read occupancy the tracker
		// cannot see.  All wait-free reads — the sampler never blocks the
		// reclamation hot path.
		tr := mm.NewLifecycleTracker(cs.Arena().MaxNodes())
		cs.SetLifecycleSink(tr)
		s.memCollector.AttachTracker(scheme, tr)
		s.memCollector.AttachMemGauge("wfrc_mem_zct_depth", scheme, func() int64 {
			z, _ := cs.DeferredOccupancy()
			return z
		})
		s.memCollector.AttachMemGauge("wfrc_mem_dcache_live", scheme, func() int64 {
			_, d := cs.DeferredOccupancy()
			return d
		})
		s.memCollector.AttachMemGauge("wfrc_mem_arena_segments", scheme, func() int64 {
			return int64(cs.Segments())
		})
		// Capture the stats pointers once: core's Stats() folds batched
		// hot-path counters into the struct and must only be called on
		// the owning goroutine (or, as here, before traffic starts); the
		// gauge then reads the published field like the collector does.
		var stats []*mm.OpStats
		for _, th := range pool.SlotThreads(i) {
			stats = append(stats, th.Stats())
		}
		s.memCollector.AttachMemGauge("wfrc_mem_pin_fastpaths", scheme, func() int64 {
			var n uint64
			for _, st := range stats {
				n += st.PinFastPaths
			}
			return int64(n)
		})
	}
	if vs := store.Values(); vs != nil {
		s.memCollector.AttachMemGauge("wfrc_mem_value_blocks_live", "values", vs.LiveBlocks)
		s.memCollector.AttachMemGauge("wfrc_mem_value_segments", "values", func() int64 {
			n := 0
			for ci := 0; ci < vs.Allocator().Classes(); ci++ {
				n += vs.Allocator().SegmentsAttached(ci)
			}
			return int64(n)
		})
	}
	if cfg.ProfLabels {
		s.labelBase = context.Background()
		s.labelCtx = make([][]context.Context, len(OpNames)-1)
		for i := range s.labelCtx {
			s.labelCtx[i] = make([]context.Context, store.Shards())
			for sh := 0; sh < store.Shards(); sh++ {
				s.labelCtx[i][sh] = pprof.WithLabels(context.Background(),
					pprof.Labels("op", OpNames[i+1], "shard", strconv.Itoa(sh)))
			}
		}
	}
	return s, nil
}

// Hists returns the per-op×shard server-side latency histograms, for
// Prometheus registration (obs.Server.AddProm(s.Hists().WriteProm)).
func (s *Server) Hists() *obs.OpShardHist { return s.hists }

// Store returns the sharded store, for observability attachment.
func (s *Server) Store() *Store { return s.store }

// Pool returns the slot pool, for observability attachment.
func (s *Server) Pool() *slotpool.Pool { return s.pool }

// Collector returns the per-scheme counter collector that backs the
// INFO command; wfrc-kv registers it on the obs HTTP server so /metrics
// and INFO render the same snapshot.
func (s *Server) Collector() *obs.Collector { return s.collector }

// MemCollector returns the memory-lifecycle collector; wfrc-kv registers
// its WriteProm on the obs HTTP server and starts its periodic sampler.
func (s *Server) MemCollector() *obs.LifecycleCollector { return s.memCollector }

// Serve accepts connections on ln until Shutdown closes it.  It may be
// called for several listeners (e.g. a native port and a conventional
// :6379 RESP port); every listener serves both protocols by sniffing.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.curConns.Add(-1)
	s.wg.Done()
}

// handleConn sniffs the protocol and dispatches.  A native frame's
// first byte is always 0x00 (the length prefix is big-endian and
// MaxFrame is 1<<16), while a RESP command starts with '*', '$', or an
// inline command character — so one peeked byte disambiguates and both
// protocols share every listener.
func (s *Server) handleConn(conn net.Conn) {
	s.curConns.Add(1)
	s.connsTotal.Add(1)
	defer s.dropConn(conn)

	r := bufio.NewReader(conn)
	first, err := r.Peek(1)
	if err != nil {
		return
	}
	if first[0] != 0x00 {
		s.handleRESP(conn, r)
		return
	}
	s.handleNative(conn, r)
}

func (s *Server) handleNative(conn net.Conn, r *bufio.Reader) {
	w := bufio.NewWriter(conn)

	lease, err := s.pool.Lease(context.Background())
	if err != nil {
		// Backpressure: tell the client to retry rather than hanging it.
		s.busy.Add(1)
		WriteFrame(w, []byte{StatusBusy})
		w.Flush()
		return
	}
	defer lease.Release()

	var buf []byte
	resp := make([]byte, 0, 64)
	for {
		buf, err = ReadFrame(r, buf)
		if err != nil {
			return // EOF, death, or drain deadline: the deferred Release cleans up
		}
		req, err := DecodeRequest(buf)
		if err != nil {
			s.protoErrors.Add(1)
			resp = appendErr(resp[:0], err)
			WriteFrame(w, resp)
			w.Flush()
			return
		}
		s.reqsNative.Add(1)
		// A long-idle connection's lease may have been reaped; do not
		// touch the slot bundle through a dead lease.
		if !lease.Renew() {
			s.busy.Add(1)
			WriteFrame(w, []byte{StatusBusy})
			w.Flush()
			return
		}
		resp = s.observeRequest(resp[:0], lease, req)
		if err := WriteFrame(w, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		if s.draining.Load() {
			return // finish the in-flight request, then part cleanly
		}
	}
}

// observeRequest wraps serveRequest with the observability hot path:
// span open/close (with the span ID installed as the shard core's
// thread tag so help events join to it), per-op×shard latency
// recording, and pprof labels.  Everything here is zero-alloc and
// lock-free — see the AllocsPerRun guards in internal/obs.
func (s *Server) observeRequest(dst []byte, l *slotpool.Lease, req Request) []byte {
	opIdx := int(req.Op) - 1
	if opIdx < 0 || opIdx >= len(OpNames)-1 {
		return s.serveRequest(dst, l, req) // unknown op: protocol error path
	}
	shard := 0
	if req.Op != OpStats && req.Op != OpBatch {
		shard = s.store.Shard(req.Key)
	}
	if s.labelCtx != nil {
		pprof.SetGoroutineLabels(s.labelCtx[opIdx][shard])
	}
	slot := l.Slot()
	tagged := false
	var helps0 uint64
	if s.spans != nil {
		id := s.spans.Start(slot, req.Op, shard, req.Key)
		if req.Op != OpStats && req.Op != OpBatch && s.cores[shard] != nil {
			// Reading our own thread's counter is race-free: the lessee
			// goroutine is the thread.
			helps0 = l.Thread(shard).Stats().HelpsReceived
			s.cores[shard].SetThreadTag(slot, id)
			tagged = true
		}
	}
	start := time.Now()
	dst = s.serveRequest(dst, l, req)
	s.hists.Record(opIdx, shard, time.Since(start))
	if s.spans != nil {
		var helps uint32
		if tagged {
			s.cores[shard].SetThreadTag(slot, 0)
			helps = uint32(l.Thread(shard).Stats().HelpsReceived - helps0)
		}
		status := uint8(StatusErr)
		if len(dst) > 0 {
			status = dst[0]
		}
		s.spans.Finish(slot, status, helps)
	}
	if s.labelCtx != nil {
		pprof.SetGoroutineLabels(s.labelBase)
	}
	return dst
}

func (s *Server) serveRequest(dst []byte, l *slotpool.Lease, req Request) []byte {
	switch req.Op {
	case OpGet:
		if v, ok := s.store.Get(l, req.Key); ok {
			return appendU64(append(dst, StatusOK), v)
		}
		return append(dst, StatusNotFound)
	case OpSet:
		inserted, err := s.store.Set(l, req.Key, req.Value)
		if err != nil {
			return appendErr(dst, err)
		}
		var ins uint64
		if inserted {
			ins = 1
		}
		return appendU64(append(dst, StatusOK), ins)
	case OpDel:
		if s.store.Delete(l, req.Key) {
			return append(dst, StatusOK)
		}
		return append(dst, StatusNotFound)
	case OpCAS:
		// With the value layer on, reserved-bit words are rejected so a
		// tagged (block-ref) word can never match old: the in-place CAS
		// then cannot overwrite a block-backed value (see Store.Set).
		if s.store.MaxValue() > 0 && (req.Old|req.Value)>>63 != 0 {
			return appendErr(dst, ErrReservedBit)
		}
		swapped, found := s.store.CompareAndSet(l, req.Key, req.Old, req.Value)
		switch {
		case !found:
			return append(dst, StatusNotFound)
		case !swapped:
			return append(dst, StatusCASFail)
		default:
			return append(dst, StatusOK)
		}
	case OpStats:
		body, err := json.Marshal(s.Stats())
		if err != nil {
			return appendErr(dst, err)
		}
		return append(append(dst, StatusOK), body...)
	case OpBatch:
		// One frame, one lease, many ops: sub-responses are
		// length-prefixed because Get bodies and error bodies differ in
		// size.  Decode already restricted sub-ops to Get/Set/Del/CAS.
		dst = append(dst, StatusOK)
		var sub []byte
		for _, r := range req.Sub {
			sub = s.serveRequest(sub[:0], l, r)
			dst = append(dst, byte(len(sub)>>8), byte(len(sub)))
			dst = append(dst, sub...)
		}
		return dst
	default:
		return appendErr(dst, fmt.Errorf("unknown op %d", req.Op))
	}
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendErr(dst []byte, err error) []byte {
	return append(append(dst, StatusErr), err.Error()...)
}

// Stats snapshots the server-side counters.
func (s *Server) Stats() StatsReply {
	return StatsReply{
		Pool:        s.pool.Stats(),
		ShardOps:    s.store.OpCounts(),
		Conns:       s.curConns.Load(),
		ConnsTotal:  s.connsTotal.Load(),
		Busy:        s.busy.Load(),
		ProtoErrors: s.protoErrors.Load(),
		Growable:    s.store.Growable(),
		Capacity:    s.store.Capacity(),

		RequestsNative: s.reqsNative.Load(),
		RequestsRESP:   s.reqsRESP.Load(),
		Memory:         s.memCollector.Sample(),
	}
}

// WriteProm writes the server's front-end counters in Prometheus text
// format — one requests-total family labelled by protocol, so dashboards
// can split native from RESP traffic.
func (s *Server) WriteProm(w io.Writer) error {
	const name = "wfrc_server_requests_total"
	_, err := fmt.Fprintf(w,
		"# HELP %s Requests served, by front-end protocol.\n# TYPE %s counter\n%s{proto=\"native\"} %d\n%s{proto=\"resp\"} %d\n",
		name, name, name, s.reqsNative.Load(), name, s.reqsRESP.Load())
	return err
}

// Shutdown drains the server: stop accepting, nudge every connection
// to finish its in-flight request and part, wait for handlers, drain
// and close the slot pool, then audit every shard scheme.  The
// returned error joins any audit violations — a clean shutdown is the
// zero-leak proof the acceptance criteria ask for.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	// Connections blocked in ReadFrame wake up via the read deadline;
	// handlers already mid-request notice the draining flag after
	// responding.
	deadline := time.Now().Add(50 * time.Millisecond)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	for conn := range s.conns {
		conn.SetReadDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: handlers still running: %w", ctx.Err())
	}

	if err := s.pool.Drain(ctx); err != nil {
		return err
	}
	s.pool.Close()

	var errs []error
	if v := s.pool.Stats().Violations; v > 0 {
		errs = append(errs, fmt.Errorf("server: %d slot-reuse hygiene violations", v))
	}
	errs = append(errs, s.store.Audit()...)
	return errors.Join(errs...)
}
