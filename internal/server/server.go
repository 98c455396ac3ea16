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
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/mm"
	"wfrc/internal/obs"
	"wfrc/internal/slotpool"
)

// Config parameterizes a Server.
type Config struct {
	// Store configures the KV store.
	Store StoreConfig
	// LeaseMaxWait bounds how long a request waits for a free slot
	// before it is answered with StatusBusy (default 2s).
	LeaseMaxWait time.Duration
	// Hook is forwarded to the slotpool for chaos injection.
	Hook func(slotpool.Point)
	// Spans, when set, records a span per request: the server opens it
	// before dispatch, the slot pool annotates lease-wait/quarantine
	// phases (the tracer is installed as the pool's Annotator), and the
	// span ID is installed as the slot's thread tag on the core scheme
	// so help events carry it.  The tracer must cover at least
	// Store.Slots lanes.
	Spans *obs.SpanTracer
	// ProfLabels attaches a pprof label ("op") to the handler goroutine
	// around each request, so CPU profiles break down by protocol op.
	// Label contexts are precomputed at construction; the per-request
	// cost is two SetGoroutineLabels calls.
	ProfLabels bool
}

// StatsReply is the JSON body of an OpStats response: the server-side
// counters a load generator folds into its report without scraping the
// Prometheus endpoint.
type StatsReply struct {
	Pool        slotpool.Stats `json:"pool"`
	Conns       int64          `json:"conns"`
	ConnsTotal  uint64         `json:"conns_total"`
	Busy        uint64         `json:"busy_rejects"`
	ProtoErrors uint64         `json:"proto_errors"`
	// Growable reports whether the store's arena can attach segments at
	// runtime (README "Capacity model"); the attached count is Memory's
	// wfrc_mem_arena_segments gauge.
	Growable bool `json:"growable"`
	// RequestsNative and RequestsRESP count requests by front-end
	// protocol (RESP commands count one each, including multi-key ones).
	RequestsNative uint64 `json:"requests_native"`
	RequestsRESP   uint64 `json:"requests_resp"`
	// Memory is the memory-lifecycle snapshot: the scheme's
	// retired/reclaimed/floating counters with reclamation-lag quantiles,
	// plus occupancy gauges.  wfrc-load folds it into its report so CI
	// can gate on the floating-garbage high-water mark.
	Memory *obs.MemSnapshot `json:"memory,omitempty"`
}

// Server serves the KV protocol over TCP.  Both front-ends lease per
// parsed unit: a native frame or a RESP batch takes one slot lease
// after it is decoded and releases it before the reply is written, so
// an idle or slow connection holds no slot and any number of
// connections share the slots.
type Server struct {
	cfg   Config
	store *Store
	pool  *slotpool.Pool

	spans *obs.SpanTracer
	// hists holds one latency histogram per op and slot: each column has
	// a single writer, and /metrics merges the columns per op.
	hists *obs.OpShardHist
	// labelCtx[op-1] are precomputed pprof label contexts; nil when
	// ProfLabels is off.  labelBase restores the unlabeled state.
	labelCtx  []context.Context
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
	// mm.LifecycleTracker on the scheme plus occupancy gauges (ZCT
	// depth, delta-cache fill, arena segments, live value blocks).  It
	// backs the INFO "# Memory" section, the /metrics wfrc_mem_* families
	// and StatsReply.Memory.
	memCollector *obs.LifecycleCollector
}

// New builds the store and its slot pool.
func New(cfg Config) (*Server, error) {
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
		MaxWait:   cfg.LeaseMaxWait,
		Hook:      cfg.Hook,
		Annotator: ann,
	}, store.scheme)
	if err != nil {
		return nil, err
	}
	cs := store.scheme
	s := &Server{
		cfg:          cfg,
		store:        store,
		pool:         pool,
		spans:        cfg.Spans,
		hists:        obs.NewOpShardHist(OpNames[1:], store.cfg.Slots),
		conns:        make(map[net.Conn]struct{}),
		collector:    obs.NewCollector(),
		memCollector: obs.NewLifecycleCollector(),
	}
	const scheme = "waitfree"
	// Capture the stats pointers once: core's Stats() folds batched
	// hot-path counters into the struct and must only be called on the
	// owning goroutine (or, as here, before traffic starts); the pin gauge
	// then reads the published field like the collector does.
	var stats []*mm.OpStats
	for _, th := range pool.SlotThreads() {
		s.collector.Attach(scheme, th.ID(), th.Stats())
		stats = append(stats, th.Stats())
	}
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
	s.memCollector.AttachMemGauge("wfrc_mem_pin_fastpaths", scheme, func() int64 {
		var n uint64
		for _, st := range stats {
			n += st.PinFastPaths
		}
		return int64(n)
	})
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
		s.labelCtx = make([]context.Context, len(OpNames)-1)
		for i := range s.labelCtx {
			s.labelCtx[i] = pprof.WithLabels(context.Background(), pprof.Labels("op", OpNames[i+1]))
		}
	}
	return s, nil
}

// Hists returns the per-op server-side latency histograms (one column
// per slot), for Prometheus registration
// (obs.Server.AddProm(s.Hists().WriteProm)) and MergedOp reads.
func (s *Server) Hists() *obs.OpShardHist { return s.hists }

// Store returns the store, for observability attachment.
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

// handleNative serves one native connection, a frame at a time: block
// in ReadFrame holding nothing, decode, lease one slot for the frame (an
// OpBatch frame is one batched lease), serve, release, and only then
// write the reply.  A frame that finds no slot within LeaseMaxWait is
// answered StatusBusy and the connection stays open for the next one.
func (s *Server) handleNative(conn net.Conn, r *bufio.Reader) {
	w := bufio.NewWriter(conn)
	var buf []byte
	resp := make([]byte, 0, 64)
	for {
		var err error
		buf, err = ReadFrame(r, buf)
		if err != nil {
			return // EOF, death, or drain deadline
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
		var lease slotpool.Lease
		if req.Op == OpBatch {
			lease, err = s.pool.LeaseBatch(context.Background(), len(req.Sub))
		} else {
			lease, err = s.pool.Lease(context.Background())
		}
		if err != nil {
			s.busy.Add(1)
			resp = append(resp[:0], StatusBusy)
		} else {
			resp = s.observeRequest(resp[:0], lease, req)
			lease.Release()
		}
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
// span open/close (with the span ID installed as the slot's thread tag
// so help events join to it), per-op latency recording, and pprof
// labels.  Everything here is zero-alloc and lock-free — see the
// AllocsPerRun guards in internal/obs.
func (s *Server) observeRequest(dst []byte, l slotpool.Lease, req Request) []byte {
	opIdx := int(req.Op) - 1
	if opIdx < 0 || opIdx >= len(OpNames)-1 {
		return s.serveRequest(dst, l, req) // unknown op: protocol error path
	}
	if s.labelCtx != nil {
		pprof.SetGoroutineLabels(s.labelCtx[opIdx])
	}
	slot := l.Slot()
	tagged := false
	var helps0 uint64
	if s.spans != nil {
		id := s.spans.Start(slot, req.Op, 0, req.Key)
		if req.Op != OpStats && req.Op != OpBatch {
			// Reading our own thread's counter is race-free: the lessee
			// goroutine is the thread.
			helps0 = l.Thread().Stats().HelpsReceived
			s.store.scheme.SetThreadTag(slot, id)
			tagged = true
		}
	}
	start := time.Now()
	dst = s.serveRequest(dst, l, req)
	s.hists.Record(opIdx, slot, time.Since(start))
	if s.spans != nil {
		var helps uint32
		if tagged {
			s.store.scheme.SetThreadTag(slot, 0)
			helps = uint32(l.Thread().Stats().HelpsReceived - helps0)
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

func (s *Server) serveRequest(dst []byte, l slotpool.Lease, req Request) []byte {
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
		Conns:       s.curConns.Load(),
		ConnsTotal:  s.connsTotal.Load(),
		Busy:        s.busy.Load(),
		ProtoErrors: s.protoErrors.Load(),
		Growable:    s.store.Growable(),

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
// and close the slot pool, then audit the scheme.  The
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
