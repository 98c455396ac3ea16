package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wfrc/internal/resp"
	"wfrc/internal/server"
)

// buildKV compiles the real wfrc-kv from the tree into dir/bin.  It
// runs before any timing; with a warm build cache it is a no-op check.
func buildKV(dir string) (string, error) {
	bin := filepath.Join(dir, "bin", "wfrc-kv")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs, "wfrc/cmd/wfrc-kv")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building wfrc-kv: %v\n%s", err, out)
	}
	return abs, nil
}

// kvServer is one running wfrc-kv process.
type kvServer struct {
	cmd  *exec.Cmd
	addr string
	exit chan error
	mu   sync.Mutex
	log  bytes.Buffer
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startKV execs the binary with default flags on an ephemeral loopback
// port and waits for its "listening on" line.
func startKV(bin, dir string) (*kvServer, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Dir = dir // a flight dump, if one is ever written, lands here
	// The server must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &kvServer{cmd: cmd, exit: make(chan error, 1)}
	cmd.Stderr = s
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		// Wait only after stdout is drained, as os/exec requires.
		s.exit <- cmd.Wait()
	}()
	select {
	case s.addr = <-addrCh:
		return s, nil
	case err := <-s.exit:
		return nil, fmt.Errorf("wfrc-kv exited before listening: %v\n%s", err, s.output())
	case <-time.After(20 * time.Second):
		cmd.Process.Kill()
		<-s.exit
		return nil, fmt.Errorf("wfrc-kv did not start listening\n%s", s.output())
	}
}

// Write collects the server's output for diagnostics.
func (s *kvServer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Write(p)
}

func (s *kvServer) output() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

func (s *kvServer) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM and requires exit status 0: wfrc-kv exits 0 only
// when its drain audit found zero leaks and zero announcement-row
// violations, so a clean stop is part of output verification.
func (s *kvServer) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling wfrc-kv: %w", err)
	}
	select {
	case err := <-s.exit:
		if err != nil {
			return fmt.Errorf("wfrc-kv drain audit: %v\n%s", err, s.output())
		}
		return nil
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exit
		return fmt.Errorf("wfrc-kv did not drain within 30s\n%s", s.output())
	}
}

// kill is the error-path teardown.
func (s *kvServer) kill() {
	s.cmd.Process.Kill()
	<-s.exit
}

// kvConn is one held connection of the load generator: native frames
// go through br/bw, RESP through the tree's pipelining client.
type kvConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	rc *resp.Client
	// scratch, reused across requests
	out, in, want []byte
	ops           [respDepth]op
}

func dialKV(addr string) (*kvConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10), rc: resp.NewClient(c)}, nil
}

// kvSystem drives the real wfrc-kv binary over loopback TCP: W
// connections held for the whole run, native single requests or RESP
// pipelines of respDepth.
type kvSystem struct {
	workload string
	resp     bool
	srv      *kvServer
	conns    []*kvConn
	streams  []*stream
	reqs     []uint64 // per-worker request counter (span request ids)
}

// setupKV is one complete set-up, timed from the exec of wfrc-kv: start
// the process, connect, prefill every key.
func setupKV(workload, bin, dir string, seed uint64, workers int) (*kvSystem, error) {
	srv, err := startKV(bin, dir)
	if err != nil {
		return nil, err
	}
	sys := &kvSystem{workload: workload, resp: workload == wlKVResp, srv: srv, reqs: make([]uint64, workers)}
	for w := 0; w < workers; w++ {
		c, err := dialKV(srv.addr)
		if err != nil {
			sys.abort()
			return nil, err
		}
		sys.conns = append(sys.conns, c)
		sys.streams = append(sys.streams, newStream(workload, seed, w, workers))
	}
	if err := sys.prefill(); err != nil {
		sys.abort()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	return sys, nil
}

func (s *kvSystem) abort() {
	for _, c := range s.conns {
		c.c.Close()
	}
	s.srv.kill()
}

// prefill stores every key through connection 0, in the workload's own
// protocol, and checks every reply.
func (s *kvSystem) prefill() error {
	c := s.conns[0]
	if !s.resp {
		const per = 512
		for base := uint64(0); base < kvKeys; base += per {
			req := server.Request{Op: server.OpBatch}
			for k := base; k < base+per; k++ {
				req.Sub = append(req.Sub, server.Request{Op: server.OpSet, Key: k, Value: valueOf(k)})
			}
			c.out = server.EncodeRequest(c.out[:0], req)
			if err := server.WriteFrame(c.bw, c.out); err != nil {
				return err
			}
			if err := c.bw.Flush(); err != nil {
				return err
			}
			var err error
			if c.in, err = server.ReadFrame(c.br, c.in); err != nil {
				return err
			}
			subs, err := server.DecodeBatchResponse(c.in)
			if err != nil {
				return err
			}
			for i, r := range subs {
				if r.Status != server.StatusOK {
					return fmt.Errorf("SET %d: status %d %s", base+uint64(i), r.Status, r.Body)
				}
			}
		}
		return nil
	}
	const per = 64
	for base := uint64(0); base < kvKeys; base += per {
		for k := base; k < base+per; k++ {
			c.sendSet(k)
		}
		for k := base; k < base+per; k++ {
			if r, err := c.rc.Receive(); err != nil || !isOK(r) {
				return fmt.Errorf("SET %d refused (%v)", k, err)
			}
		}
	}
	return nil
}

var (
	respGET = []byte("GET")
	respSET = []byte("SET")
)

func (c *kvConn) sendGet(key uint64) {
	var kb [20]byte
	c.rc.SendBytes(respGET, strconv.AppendUint(kb[:0], key, 10))
}

func (c *kvConn) sendSet(key uint64) {
	var kb [20]byte
	c.want = appendPayload(c.want[:0], key)
	c.rc.SendBytes(respSET, strconv.AppendUint(kb[:0], key, 10), c.want)
}

// isOK reports whether r is +OK.  An error reply is a failed op, not a
// broken connection.
func isOK(r resp.Reply) bool { return r.Kind == '+' && string(r.Str) == "OK" }

func (s *kvSystem) sutPID() int { return s.srv.pid() }

// beginTrace is a no-op: wfrc-kv's lifecycle tracker is always on.
func (s *kvSystem) beginTrace() {}

func (s *kvSystem) samplesPerOp() float64 {
	if s.resp {
		return 1.0 / respDepth
	}
	return 1
}

func (s *kvSystem) run(d time.Duration, smp *sampler, tr *tracer) (window, error) {
	body := s.nativeWorker
	if s.resp {
		body = s.respWorker
	}
	return drive(len(s.conns), d, smp, tr, s.sutPID(), body)
}

// nativeWorker issues one native request per round trip and times every
// one of them: the latency is the wait the client sees, encode to
// verified decode.
func (s *kvSystem) nativeWorker(w int, stop *atomic.Bool, rec *recorder, lane *spanLane) (tl workerTally) {
	c, st := s.conns[w], s.streams[w]
	req := s.reqs[w]
	for !stop.Load() {
		o := st.next()
		r := server.Request{Op: server.OpGet, Key: o.key}
		if o.kind == opWrite {
			r.Op, r.Value = server.OpSet, valueOf(o.key)
		}
		var t1, t2, t3 int64
		t0 := nowNS()
		c.out = server.EncodeRequest(c.out[:0], r)
		if lane != nil {
			t1 = nowNS()
		}
		if tl.err = server.WriteFrame(c.bw, c.out); tl.err != nil {
			return tl
		}
		if tl.err = c.bw.Flush(); tl.err != nil {
			return tl
		}
		if lane != nil {
			t2 = nowNS()
		}
		if c.in, tl.err = server.ReadFrame(c.br, c.in); tl.err != nil {
			return tl
		}
		if lane != nil {
			t3 = nowNS()
		}
		rp, err := server.DecodeResponse(c.in)
		if tl.err = err; err != nil {
			return tl
		}
		ok := rp.Status == server.StatusOK
		if o.kind == opRead {
			tl.reads++
			if ok {
				tl.hits++
			}
			ok = ok && rp.Value == valueOf(o.key)
		}
		t4 := nowNS()
		tl.attempted++
		if !ok {
			// Error reply, Busy, NotFound on a prefilled key or a wrong
			// value: a failed op has no latency.
			tl.failed++
		} else if rec != nil {
			rec.add(t4 - t0)
		}
		if lane != nil {
			id := lane.record(spRequest, 0, uint32(req), t0, t4)
			lane.record(spEncode, id, uint32(req), t0, t1)
			lane.record(spWrite, id, uint32(req), t1, t2)
			lane.record(spWait, id, uint32(req), t2, t3)
			lane.record(spDecode, id, uint32(req), t3, t4)
		}
		req++
	}
	s.reqs[w] = req
	return tl
}

// respWorker pipelines respDepth commands per round trip.  One latency
// sample is one batch round trip; throughput counts the batch's ops.
func (s *kvSystem) respWorker(w int, stop *atomic.Bool, rec *recorder, lane *spanLane) (tl workerTally) {
	c, st := s.conns[w], s.streams[w]
	req := s.reqs[w]
	for !stop.Load() {
		t0 := nowNS()
		for i := range c.ops {
			o := st.next()
			c.ops[i] = o
			if o.kind == opRead {
				c.sendGet(o.key)
			} else {
				c.sendSet(o.key)
			}
		}
		t1 := nowNS()
		if tl.err = c.rc.Flush(); tl.err != nil {
			return tl
		}
		t2 := nowNS()
		t3 := t2
		failed := uint64(0)
		for i, o := range c.ops {
			r, err := c.rc.Receive()
			if tl.err = err; err != nil {
				return tl
			}
			if i == 0 {
				t3 = nowNS() // the wait ends when the first reply is in
			}
			if o.kind == opWrite {
				if !isOK(r) {
					failed++
				}
				continue
			}
			tl.reads++
			found := r.Kind == '$' && !r.Null
			if found {
				tl.hits++
			}
			c.want = appendPayload(c.want[:0], o.key)
			if !found || !bytes.Equal(r.Str, c.want) {
				failed++
			}
		}
		t4 := nowNS()
		tl.attempted += respDepth
		tl.failed += failed
		if rec != nil && failed == 0 {
			rec.add(t4 - t0)
		}
		if lane != nil {
			id := lane.record(spRequest, 0, uint32(req), t0, t4)
			lane.record(spEncode, id, uint32(req), t0, t1)
			lane.record(spWrite, id, uint32(req), t1, t2)
			lane.record(spWait, id, uint32(req), t2, t3)
			lane.record(spDecode, id, uint32(req), t3, t4)
		}
		req++
	}
	s.reqs[w] = req
	return tl
}

// counters reads the server's public counters over the wire: the STATS
// op (slot pool, busy rejects, memory-lifecycle snapshot) and the RESP
// INFO command (per-shard core OpStats).
func (s *kvSystem) counters() (layerCounters, error) {
	var c layerCounters
	nc, err := server.Dial(s.srv.addr)
	if err != nil {
		return c, err
	}
	st, err := nc.Stats()
	nc.Close()
	if err != nil {
		return c, fmt.Errorf("STATS: %w", err)
	}
	c.pool = st.Pool
	c.busy = st.Busy + st.Pool.Timeouts
	if st.Memory != nil {
		for _, snap := range st.Memory.Schemes {
			c.life.Retired += snap.Retired
			c.life.Reclaimed += snap.Reclaimed
			c.life.Floating += snap.Floating
			// Summing per-shard high-water marks over-approximates the
			// simultaneous peak, which keeps it a conservative guard.
			c.life.FloatingHWM += snap.FloatingHWM
			c.life.Lag.P99NS = max(c.life.Lag.P99NS, snap.Lag.P99NS)
		}
	}
	rc, err := resp.Dial(s.srv.addr)
	if err != nil {
		return c, err
	}
	reply, err := rc.Do("INFO")
	rc.Close()
	if err != nil {
		return c, fmt.Errorf("INFO: %w", err)
	}
	if err := reply.Err(); err != nil {
		return c, err
	}
	parseInfo(string(reply.Str), &c)
	return c, nil
}

// parseInfo folds the "# scheme_*" sections of an INFO document into
// the merged core counters: sums for totals, maxima for *_max_steps.
func parseInfo(doc string, c *layerCounters) {
	inScheme := false
	for _, line := range strings.Split(doc, "\r\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			inScheme = strings.HasPrefix(name, "scheme_")
			continue
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok || !inScheme {
			continue
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			continue
		}
		st := &c.stats
		switch k {
		case "derefs":
			st.DeRefs += n
		case "deref_max_steps":
			st.DeRefMaxSteps = max(st.DeRefMaxSteps, n)
		case "helps_given":
			st.HelpsGiven += n
		case "help_scans":
			st.HelpScans += n
		case "ann_scan_violations":
			st.AnnScanViolations += n
		case "allocs":
			st.Allocs += n
		case "alloc_max_steps":
			st.AllocMaxSteps = max(st.AllocMaxSteps, n)
		case "frees":
			st.Frees += n
		case "free_max_steps":
			st.FreeMaxSteps = max(st.FreeMaxSteps, n)
		case "cas_failures":
			st.CASFailures += n
		}
	}
}

// finish closes the connections and stops the server; a non-zero exit
// (failed drain audit) fails the run.
func (s *kvSystem) finish() error {
	var errs []error
	for _, c := range s.conns {
		if err := c.c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := s.srv.stop(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
