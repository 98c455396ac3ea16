package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
	"wfrc/internal/obs"
	"wfrc/internal/resp"
	"wfrc/internal/schemes"
	"wfrc/internal/server"
	"wfrc/internal/slotpool"
	"wfrc/internal/value"
)

// The layer ladder replays the head of the workload's key stream,
// single-threaded, against each layer through public functions only.
// Rung times are per-op unit costs; a rung's self time is its time minus
// the rung beneath it.  Printed in order it is the ROADMAP item-2 table
// "where do a GET's nanoseconds go".
type ladder struct {
	workload string
	seed     uint64
	workers  int
	keys     []uint64      // one key per replayed op
	rtt      time.Duration // time slice of each loopback-server rung
	m        map[string]float64
	errs     []error
}

// ladderChunk is the timing granularity: each rung is timed in chunks
// of this many ops and reports the median chunk, so one preemption or
// GC cycle cannot move the figure.
const ladderChunk = 1024

func newLadder(workload string, seed uint64, workers, ops int, rtt time.Duration) *ladder {
	ops &^= 1 // rungs that pair ops (insert then delete) need an even count
	l := &ladder{workload: workload, seed: seed, workers: workers, rtt: rtt, m: map[string]float64{}}
	st := newStream(workload, seed, 0, workers)
	var last uint64
	for len(l.keys) < ops {
		o := st.next()
		if workload == wlPQChurn && o.kind == opRemove {
			// DeleteMin carries no key; the rungs below reuse the key
			// just inserted.
			o.key = last
		}
		last = o.key
		l.keys = append(l.keys, o.key)
	}
	return l
}

func (l *ladder) fail(format string, args ...any) {
	if len(l.errs) < 8 {
		l.errs = append(l.errs, fmt.Errorf(format, args...))
	}
}

// perOp runs fn(i) for i in [0, n) and returns the median per-op
// nanoseconds over chunks of chunk ops.
func perOp(n, chunk int, fn func(i int)) float64 {
	per := make([]float64, 0, n/chunk+1)
	for base := 0; base < n; base += chunk {
		end := min(base+chunk, n)
		t0 := nowNS()
		for i := base; i < end; i++ {
			fn(i)
		}
		per = append(per, float64(nowNS()-t0)/float64(end-base))
	}
	return median(per)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (l *ladder) run() error {
	n := len(l.keys)
	st := newStream(l.workload, l.seed, 0, l.workers)
	// In-process the generator shares the process with the system under
	// test, so it has no CPU of its own to read: its cost is this rung.
	// (The KV workloads overwrite it with the client process's CPU.)
	var sink op
	l.m["client.cpu_us_per_op"] = perOp(n, ladderChunk, func(int) { sink = st.next() }) / 1e3
	_ = sink

	steps := []func() error{
		func() error { return l.coreRung("waitfree", "core.") },
		func() error { return l.coreRung("waitfree-deferred", "core.deferred.") },
		l.hashmapRung, l.pqueueRung, l.storeRung, l.valueRung,
		l.protoCodecRung, l.respCodecRung, l.obsRung,
		func() error { return l.loopbackRung(false) },
		func() error { return l.loopbackRung(true) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	l.compose()
	return errors.Join(l.errs...)
}

// unitPrefix names the core unit-cost rungs that price this workload's
// DeRef/Release and Alloc/Release pairs.
func unitPrefix(workload string) string {
	if schemeFor(workload) == "waitfree-deferred" {
		return "core.deferred."
	}
	return "core."
}

// coreRung prices the scheme's primitives on one root link.
func (l *ladder) coreRung(schemeName, prefix string) error {
	f, err := schemes.ByName(schemeName)
	if err != nil {
		return err
	}
	s, err := f.New(arena.Config{Nodes: 1024, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 2},
		schemes.Options{Threads: l.workers})
	if err != nil {
		return err
	}
	t, err := s.Register()
	if err != nil {
		return err
	}
	root := s.Arena().NewRoot()
	a, err := t.Alloc()
	if err != nil {
		return err
	}
	b, err := t.Alloc()
	if err != nil {
		return err
	}
	t.StoreLink(root, arena.MakePtr(a, false))
	n := len(l.keys)
	l.m[prefix+"deref_release_ns"] = perOp(n, ladderChunk, func(int) {
		p := t.DeRef(root)
		t.Release(p.Handle())
	})
	cur, nxt := a, b
	caslink := perOp(n, ladderChunk, func(int) {
		if !t.CASLink(root, arena.MakePtr(cur, false), arena.MakePtr(nxt, false)) {
			l.fail("%sCASLink on an uncontended link failed", prefix)
		}
		cur, nxt = nxt, cur
	})
	if prefix == "core." {
		l.m["core.caslink_ns"] = caslink
	}
	l.m[prefix+"alloc_release_ns"] = perOp(n, ladderChunk, func(int) {
		h, err := t.Alloc()
		if err != nil {
			l.fail("%sAlloc: %v", prefix, err)
			return
		}
		t.Release(h)
	})
	t.CASLink(root, arena.MakePtr(cur, false), arena.NilPtr)
	t.Release(a)
	t.Release(b)
	schemes.Flush(t)
	for _, err := range schemes.AuditRC(s, nil) {
		l.fail("%saudit: %v", prefix, err)
	}
	t.Unregister()
	return nil
}

// hashmapRung replays the keys as Gets, then as Insert/Delete pairs on
// odd (absent) keys, against map-read's geometry.
func (l *ladder) hashmapRung() error {
	s, m, err := newMap(schemeFor(l.workload), l.workers)
	if err != nil {
		return err
	}
	t, err := s.Register()
	if err != nil {
		return err
	}
	n := len(l.keys)
	// A KV stream's keys are the first kvKeys integers, all present in
	// the store.  Doubling maps them onto this map's present (even) keys
	// across the whole key space, so lookups walk its sorted chains as
	// deep as the store's, not just their front halves.
	scale := uint64(1)
	if isKV(l.workload) {
		scale = mapKeySpace / kvKeys
	}
	d0 := t.Stats().DeRefs
	get := perOp(n, ladderChunk, func(i int) {
		k := l.keys[i] * scale % mapKeySpace
		v, ok := m.Get(t, k)
		if ok != (k%2 == 0) || (ok && v != valueOf(k)) {
			l.fail("hashmap.Get(%d) = %d,%v", k, v, ok)
		}
	})
	perLookup := float64(t.Stats().DeRefs-d0) / float64(n)
	l.m["ds.hashmap.get_ns"] = get
	l.m["ds.list.nodes_per_lookup"] = perLookup
	l.m["ds.hashmap.self_ns"] = get - perLookup*l.m[unitPrefix(l.workload)+"deref_release_ns"]
	l.m["ds.hashmap.update_ns"] = perOp(n, ladderChunk, func(i int) {
		k := l.keys[i&^1]%mapKeySpace | 1
		if i&1 == 0 {
			if ins, err := m.Insert(t, k, valueOf(k)); err != nil || !ins {
				l.fail("hashmap.Insert(%d) = %v,%v", k, ins, err)
			}
		} else if !m.Delete(t, k) {
			l.fail("hashmap.Delete(%d) missed", k)
		}
	})
	schemes.Flush(t)
	for _, err := range schemes.AuditRC(s, nil) {
		l.fail("hashmap audit: %v", err)
	}
	t.Unregister()
	return nil
}

// pqueueRung alternates blocks of Inserts and DeleteMins on pq-churn's
// geometry, timing the two separately.
func (l *ladder) pqueueRung() error {
	s, pq, err := newPQ(schemeFor(l.workload), l.workers, l.seed)
	if err != nil {
		return err
	}
	t, err := s.Register()
	if err != nil {
		return err
	}
	const block = 256
	st0 := *t.Stats()
	var ins, del []float64
	ops := 0
	for base := 0; base+block <= len(l.keys)/2; base += block {
		t0 := nowNS()
		for i := base; i < base+block; i++ {
			k := l.keys[i] & (pqKeySpace - 1)
			if err := pq.Insert(t, k, valueOf(k)); err != nil {
				l.fail("pqueue.Insert: %v", err)
			}
		}
		t1 := nowNS()
		for i := 0; i < block; i++ {
			if k, v, ok := pq.DeleteMin(t); !ok || v != valueOf(k) {
				l.fail("pqueue.DeleteMin = %d,%d,%v", k, v, ok)
			}
		}
		t2 := nowNS()
		ins = append(ins, float64(t1-t0)/block)
		del = append(del, float64(t2-t1)/block)
		ops += 2 * block
	}
	st1 := *t.Stats()
	l.m["ds.pqueue.insert_ns"] = median(ins)
	l.m["ds.pqueue.deletemin_ns"] = median(del)
	if ops > 0 {
		p := unitPrefix(l.workload)
		priced := float64(st1.DeRefs-st0.DeRefs)/float64(ops)*l.m[p+"deref_release_ns"] +
			float64(st1.Allocs-st0.Allocs)/float64(ops)*l.m[p+"alloc_release_ns"]
		l.m["ds.pqueue.self_ns"] = (median(ins)+median(del))/2 - priced
	}
	if n := pq.Len(); n != pqPrefill {
		l.fail("pqueue rung left %d entries, want %d", n, pqPrefill)
	}
	schemes.Flush(t)
	for _, err := range schemes.AuditRC(s, nil) {
		l.fail("pqueue audit: %v", err)
	}
	t.Unregister()
	return nil
}

// storeRung drives server.Store under one held lease with the binary's
// default geometry, then prices the slot pool's own operations.
func (l *ladder) storeRung() error {
	st, err := server.NewStore(server.StoreConfig{MaxValue: 16384})
	if err != nil {
		return err
	}
	pool, err := slotpool.New(slotpool.Config{Slots: 8, LeaseTTL: 30 * time.Second, MaxWait: 2 * time.Second},
		st.Schemes()...)
	if err != nil {
		return err
	}
	ctx := context.Background()
	lease, err := pool.Lease(ctx)
	if err != nil {
		return err
	}
	for k := uint64(0); k < kvKeys; k++ {
		if _, err := st.Set(lease, k, valueOf(k)); err != nil {
			return fmt.Errorf("store prefill: %w", err)
		}
	}
	n := len(l.keys)
	ops0 := st.OpCounts()
	get := perOp(n, ladderChunk, func(i int) {
		k := l.keys[i] % kvKeys
		if v, ok := st.Get(lease, k); !ok || v != valueOf(k) {
			l.fail("store.Get(%d) = %d,%v", k, v, ok)
		}
	})
	ops1 := st.OpCounts()
	lo, hi := ^uint64(0), uint64(0)
	for i := range ops0 {
		d := ops1[i] - ops0[i]
		lo, hi = min(lo, d), max(hi, d)
	}
	l.m["server.store.get_ns"] = get
	l.m["server.store.self_ns"] = get - l.m["ds.hashmap.get_ns"]
	if hi > 0 {
		l.m["server.store.shard_balance"] = float64(lo) / float64(hi)
	}
	set := func(i int) {
		k := l.keys[i] % kvKeys
		if _, err := st.Set(lease, k, valueOf(k)); err != nil {
			l.fail("store.Set(%d): %v", k, err)
		}
	}
	// Set replaces the node, so every op retires and reclaims one: the
	// path the lifecycle tracker sits on.  wfrc-kv always runs with the
	// tracker attached, so the rung's figure is the tracked one and the
	// untracked pass only prices the tracker.
	untracked := perOp(n, ladderChunk, set)
	for _, cs := range st.CoreSchemes() {
		cs.SetLifecycleSink(mm.NewLifecycleTracker(cs.Arena().MaxNodes()))
	}
	tracked := perOp(n, ladderChunk, set)
	l.m["server.store.set_ns"] = tracked
	l.m["mm.lifecycle_overhead_share"] = (tracked - untracked) / tracked

	var payload, got []byte
	for k := uint64(0); k < kvKeys; k++ {
		payload = appendPayload(payload[:0], k)
		if err := st.SetBytes(lease, k, payload); err != nil {
			return fmt.Errorf("store bytes prefill: %w", err)
		}
	}
	l.m["server.store.getbytes_ns"] = perOp(n, ladderChunk, func(i int) {
		k := l.keys[i] % kvKeys
		var ok bool
		got, ok = st.GetBytes(lease, k, got[:0])
		payload = appendPayload(payload[:0], k)
		if !ok || !bytes.Equal(got, payload) {
			l.fail("store.GetBytes(%d) wrong", k)
		}
	})
	l.m["server.store.setbytes_ns"] = perOp(n, ladderChunk, func(i int) {
		k := l.keys[i] % kvKeys
		payload = appendPayload(payload[:0], k)
		if err := st.SetBytes(lease, k, payload); err != nil {
			l.fail("store.SetBytes(%d): %v", k, err)
		}
	})

	l.m["slotpool.renew_ns"] = perOp(n, ladderChunk, func(int) {
		if !lease.Renew() {
			l.fail("slotpool: Renew on a live lease failed")
		}
	})
	lease.Release()
	l.m["slotpool.lease_release_ns"] = perOp(n, ladderChunk, func(int) {
		ls, err := pool.Lease(ctx)
		if err != nil {
			l.fail("slotpool.Lease: %v", err)
			return
		}
		ls.Release()
	})
	l.m["slotpool.leasebatch_ns_per_op"] = perOp(n/respDepth, ladderChunk/respDepth, func(int) {
		ls, err := pool.LeaseBatch(ctx, respDepth)
		if err != nil {
			l.fail("slotpool.LeaseBatch: %v", err)
			return
		}
		ls.Release()
	}) / respDepth

	if err := pool.Drain(ctx); err != nil {
		return err
	}
	pool.Close()
	if v := pool.Stats().Violations; v != 0 {
		l.fail("store rung: %d slot audit violations", v)
	}
	for _, err := range st.Audit() {
		l.fail("store audit: %v", err)
	}
	return nil
}

// valueRung prices the value layer with respPayload-byte payloads.  A
// ring of live words delays every free by ringSize allocations, so
// blocks cycle through the shared pool as they do under a server and
// the allocator's cache-hit share is not trivially 1.
func (l *ladder) valueRung() error {
	vs, err := value.New(value.Config{Threads: 1})
	if err != nil {
		return err
	}
	const ringSize = 1024
	var ring [ringSize]uint64
	var payload, got []byte
	for i := range ring {
		payload = appendPayload(payload[:0], uint64(i))
		if ring[i], err = vs.Alloc(0, payload); err != nil {
			return err
		}
	}
	n := len(l.keys)
	l.m["value.alloc_free_ns"] = perOp(n, ladderChunk, func(i int) {
		j := i % ringSize
		vs.Free(0, ring[j])
		payload = appendPayload(payload[:0], l.keys[i])
		w, err := vs.Alloc(0, payload)
		if err != nil {
			l.fail("value.Alloc: %v", err)
		}
		ring[j] = w
	})
	l.m["value.append_ns"] = perOp(n, ladderChunk, func(i int) {
		got = vs.AppendPayload(got[:0], ring[i%ringSize])
		if len(got) != respPayload {
			l.fail("value.AppendPayload returned %d bytes", len(got))
		}
	})
	as := vs.Stats()
	if as.AllocOps > 0 {
		l.m["alloc.cache_hit_share"] = float64(as.CacheHits) / float64(as.AllocOps)
		l.m["alloc.shared_steps_per_alloc"] = float64(as.SharedSteps) / float64(as.AllocOps)
	}
	l.m["alloc.alloc_steps_max"] = float64(as.AllocStepsMax)
	for _, w := range ring {
		vs.Free(0, w)
	}
	for _, err := range vs.Audit(nil) {
		l.fail("value audit: %v", err)
	}
	return nil
}

// protoCodecRung is one native request and its response through the
// codec and framing, over a bytes.Buffer instead of a socket.
func (l *ladder) protoCodecRung() error {
	var wire bytes.Buffer
	var enc, frame []byte
	n := len(l.keys)
	m0 := mallocs()
	l.m["server.proto.codec_ns"] = perOp(n, ladderChunk, func(i int) {
		k := l.keys[i]
		enc = server.EncodeRequest(enc[:0], server.Request{Op: server.OpGet, Key: k})
		server.WriteFrame(&wire, enc) // a bytes.Buffer write cannot fail
		frame, _ = server.ReadFrame(&wire, frame)
		if rq, err := server.DecodeRequest(frame); err != nil || rq.Key != k {
			l.fail("proto: request round trip of key %d: %v", k, err)
		}
		enc = binary.BigEndian.AppendUint64(append(enc[:0], server.StatusOK), valueOf(k))
		server.WriteFrame(&wire, enc)
		frame, _ = server.ReadFrame(&wire, frame)
		if rp, err := server.DecodeResponse(frame); err != nil || rp.Value != valueOf(k) {
			l.fail("proto: response round trip of key %d: %v", k, err)
		}
	})
	l.m["server.proto.allocs_per_op"] = float64(mallocs()-m0) / float64(n)
	return nil
}

// pipeConn is an in-memory net.Conn: what the client writes the server
// side reads, and the reverse.  Only Read and Write are ever called.
type pipeConn struct {
	net.Conn
	toServer, toClient bytes.Buffer
}

func (p *pipeConn) Read(b []byte) (int, error)  { return p.toClient.Read(b) }
func (p *pipeConn) Write(b []byte) (int, error) { return p.toServer.Write(b) }

// respCodecRung is one RESP command and its reply through the package's
// writer, command reader, reply writer and client-side reply parser.
// GETs and SETs alternate, as in kv-resp-pipeline.
func (l *ladder) respCodecRung() error {
	conn := &pipeConn{}
	cl := resp.NewClient(conn)
	rd := resp.NewReader(bufio.NewReader(&conn.toServer), 16384)
	var kb [20]byte
	var payload, reply []byte
	n := len(l.keys)
	m0 := mallocs()
	l.m["resp.codec_ns"] = perOp(n, ladderChunk, func(i int) {
		k := l.keys[i]
		key := strconv.AppendUint(kb[:0], k, 10)
		payload = appendPayload(payload[:0], k)
		isGet := i&1 == 0
		if isGet {
			cl.SendBytes(respGET, key)
			reply = resp.AppendBulk(reply[:0], payload)
		} else {
			cl.SendBytes(respSET, key, payload)
			reply = resp.AppendSimple(reply[:0], "OK")
		}
		if err := cl.Flush(); err != nil {
			l.fail("resp: flush: %v", err)
		}
		cmd, err := rd.ReadCommand()
		if err != nil || len(cmd.Args) < 2 || !bytes.Equal(cmd.Args[1], key) {
			l.fail("resp: command round trip of key %d: %v", k, err)
		}
		conn.toClient.Write(reply)
		r, err := cl.Receive()
		if err != nil || (isGet && !bytes.Equal(r.Str, payload)) {
			l.fail("resp: reply round trip of key %d: %v", k, err)
		}
	})
	l.m["resp.allocs_per_op"] = float64(mallocs()-m0) / float64(n)
	return nil
}

// obsRung prices one request span and one histogram record, the two
// per-request telemetry writes of the server's hot path.
func (l *ladder) obsRung() error {
	spans := obs.NewSpanTracer(8, 8192, server.OpNames, server.StatusNames)
	n := len(l.keys)
	l.m["obs.span_ns"] = perOp(n, ladderChunk, func(i int) {
		spans.Start(0, server.OpGet, i&3, l.keys[i])
		spans.Finish(0, server.StatusOK, 0)
	})
	h := obs.NewOpShardHist(server.OpNames[1:], 4)
	l.m["obs.hist_record_ns"] = perOp(n, ladderChunk, func(i int) {
		h.Record(0, i&3, time.Duration(1000+i&1023))
	})
	return nil
}

// loopbackRung runs an in-process server.New + Serve on loopback TCP
// and drives it through one connection with the workload's protocol
// shape — native single requests, or RESP pipelines for
// kv-resp-pipeline — for the rung's time slice.  With telemetry off the
// server has no span tracer and no pprof labels; with telemetry on it is
// configured like the wfrc-kv binary's defaults.
func (l *ladder) loopbackRung(telemetry bool) error {
	cfg := server.Config{Store: server.StoreConfig{MaxValue: 16384}}
	if telemetry {
		cfg.Spans = obs.NewSpanTracer(8, 8192, server.OpNames, server.StatusNames)
		cfg.ProfLabels = true
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if telemetry {
		ring := obs.NewTraceRing(4096)
		for _, cs := range srv.Store().CoreSchemes() {
			cs.SetHelpTracer(ring.CoreTracer())
		}
		defer srv.MemCollector().Start(time.Second)()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil {
			err = serr
		}
		return err
	}
	c, err := dialKV(ln.Addr().String())
	if err != nil {
		shutdown()
		return err
	}
	// In-process workloads have no wire shape of their own; the rung
	// then carries kv-get-rtt's stream.
	wire := l.workload
	if !isKV(wire) {
		wire = wlKVGetRTT
	}
	sys := &kvSystem{
		workload: wire, resp: wire == wlKVResp,
		conns:   []*kvConn{c},
		streams: []*stream{newStream(wire, l.seed, 0, l.workers)},
		reqs:    make([]uint64, 1),
	}
	body := sys.nativeWorker
	if sys.resp {
		body = sys.respWorker
	}
	if err := sys.prefill(); err != nil {
		c.c.Close()
		shutdown()
		return fmt.Errorf("loopback prefill: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// A loopback round trip is a few microseconds at the very least.
	smp := newSampler(1, int(l.rtt.Seconds()*1e6)+1024)
	win, err := drive(1, l.rtt, smp, nil, os.Getpid(), body)
	runtime.ReadMemStats(&ms1)
	stats := srv.Stats()
	c.c.Close()
	if serr := shutdown(); serr != nil {
		l.fail("loopback server drain audit: %v", serr)
	}
	if err != nil {
		return err
	}
	if win.failed != 0 {
		l.fail("loopback rung: %d of %d ops failed", win.failed, win.attempted)
	}
	if win.dropped != 0 {
		l.fail("loopback rung: %d latency samples overflowed the recorder", win.dropped)
	}
	perOpNS := win.p50
	if sys.resp {
		perOpNS /= respDepth
	}
	if !telemetry {
		l.m["server.rtt_inproc_ns"] = perOpNS
		l.m["server.heap_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(max(win.attempted, 1))
		l.m["server.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		return nil
	}
	l.m["rtt_telemetry_ns"] = perOpNS
	// The in-process workloads have no server in their window; their
	// slot-pool counters are this one's.  (The KV workloads overwrite
	// them with the real binary's.)
	l.m["slotpool.batch_factor"] = batchFactor(stats.Pool)
	l.m["slotpool.lease_wait_p99_us"] = stats.Pool.WaitP99Ns / 1e3
	l.m["slotpool.busy_rejects"] = float64(stats.Busy + stats.Pool.Timeouts)
	l.m["slotpool.audit_violations"] = float64(stats.Pool.Violations)
	return nil
}

func batchFactor(p slotpool.Stats) float64 {
	if p.LeasesBatched == 0 {
		return 0
	}
	return float64(p.BatchedOps) / float64(p.LeasesBatched)
}

// rungs are the per-op costs a loopback round trip decomposes into,
// picked by the workload's wire shape.
type rungs struct {
	shape                           string
	core                            float64 // nodes per lookup × DeRef+Release
	storeName, leaseName, codecName string
	store, lease, codec             float64
}

func ladderRungs(workload string, m map[string]float64) rungs {
	r := rungs{
		shape:     "one native GET",
		core:      m["ds.list.nodes_per_lookup"] * m[unitPrefix(workload)+"deref_release_ns"],
		storeName: "server.store Get", store: m["server.store.get_ns"],
		leaseName: "slotpool Lease.Renew", lease: m["slotpool.renew_ns"],
		codecName: "server.proto codec", codec: m["server.proto.codec_ns"],
	}
	if workload == wlKVResp {
		r.shape = "one op of a 32-deep RESP pipeline"
		r.storeName, r.store = "server.store GetBytes/SetBytes", (m["server.store.getbytes_ns"]+m["server.store.setbytes_ns"])/2
		r.leaseName, r.lease = "slotpool LeaseBatch(32)/32", m["slotpool.leasebatch_ns_per_op"]
		r.codecName, r.codec = "resp codec", m["resp.codec_ns"]
	}
	return r
}

// compose derives the self times that need more than one rung: what is
// left of the loopback round trip once the codec, the lease and the
// store op are subtracted is the socket and connection handling.
func (l *ladder) compose() {
	m := l.m
	r := ladderRungs(l.workload, m)
	rtt := m["server.rtt_inproc_ns"]
	net := rtt - (r.store + r.lease + r.codec)
	m["server.net_self_ns"] = net
	if rtt > 0 {
		m["server.net_share"] = net / rtt
	}
	if on := m["rtt_telemetry_ns"]; on > 0 {
		m["obs.overhead_share"] = (on - rtt) / on
	}
	// Closure: the rungs' self times, each clamped at zero, against the
	// measured round trip.  Subtraction makes them sum to the round trip
	// exactly unless a rung came out slower than the one above it; the
	// share says by how much that happened.
	sum := 0.0
	for _, p := range []float64{
		r.core, m["ds.hashmap.get_ns"] - r.core, r.store - m["ds.hashmap.get_ns"],
		r.lease, r.codec, net,
	} {
		sum += max(p, 0)
	}
	if rtt > 0 {
		m["server.ladder_closure_share"] = sum / rtt
	}
}
