package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"wfrc/internal/resp"
)

// respStore is smallStore with the variable-size value layer enabled.
func respStore() StoreConfig {
	cfg := smallStore()
	cfg.MaxValue = 4096
	return cfg
}

func TestRESPBasic(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if r, err := c.Do("PING"); err != nil || string(r.Str) != "PONG" {
		t.Fatalf("PING: %v %q", err, r.Str)
	}
	if r, err := c.Do("ECHO", "hello"); err != nil || string(r.Str) != "hello" {
		t.Fatalf("ECHO: %v %q", err, r.Str)
	}
	if r, err := c.Do("GET", "absent"); err != nil || !r.Null {
		t.Fatalf("GET absent: %v %+v", err, r)
	}
	if r, err := c.Do("SET", "k1", "short"); err != nil || string(r.Str) != "OK" {
		t.Fatalf("SET: %v %+v", err, r)
	}
	if r, err := c.Do("GET", "k1"); err != nil || string(r.Str) != "short" {
		t.Fatalf("GET: %v %q", err, r.Str)
	}

	// A 4 KiB value round-trips through the block-ref path.
	big := bytes.Repeat([]byte("wait-free!"), 410)[:4096]
	if r, err := c.DoBytes([]byte("SET"), []byte("big"), big); err != nil || string(r.Str) != "OK" {
		t.Fatalf("SET 4KiB: %v %+v", err, r)
	}
	if r, err := c.Do("GET", "big"); err != nil || !bytes.Equal(r.Str, big) {
		t.Fatalf("GET 4KiB: %v (got %d bytes, want %d)", err, len(r.Str), len(big))
	}
	// Oversized values are rejected with an error, not a closed conn.
	if r, err := c.DoBytes([]byte("SET"), []byte("huge"), make([]byte, 4097)); err != nil || !r.IsError() {
		t.Fatalf("SET oversized: %v %+v", err, r)
	}

	if r, err := c.Do("DEL", "k1", "big", "absent"); err != nil || r.Int != 2 {
		t.Fatalf("DEL: %v %+v", err, r)
	}
	if r, err := c.Do("EXISTS", "k1"); err != nil || r.Int != 0 {
		t.Fatalf("EXISTS after DEL: %v %+v", err, r)
	}
	if r, err := c.Do("NoSuchCmd"); err != nil || !r.IsError() || string(r.Str) != "ERR unknown command 'NOSUCHCMD'" {
		t.Fatalf("unknown command: %v %+v", err, r)
	}

	r, err := c.Do("INFO")
	if err != nil || r.IsError() {
		t.Fatalf("INFO: %v %+v", err, r)
	}
	info := string(r.Str)
	for _, want := range []string{"# Server", "# Stats", "requests_resp:", "# scheme_waitfree_shard0", "derefs:"} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}
}

// TestRESPDispatchAllocs pins the command dispatch: a name resolves
// case-insensitively to its op once, and counting and executing a parsed
// GET or SET allocates nothing.
func TestRESPDispatchAllocs(t *testing.T) {
	srv, err := New(Config{Store: respStore()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	item := func(args ...string) *respItem {
		it := &respItem{}
		for _, a := range args {
			it.cmd.Args = append(it.cmd.Args, []byte(a))
		}
		it.op = resolveRESP(&it.cmd)
		return it
	}
	for name, want := range map[string]respOp{
		"get": respGet, "Set": respSet, "UNLINK": respUnlink, "mset": respMSet,
		"info": respInfo, "GETX": respUnknown, "GE": respUnknown, "": respUnknown,
	} {
		if got := item(name).op; got != want {
			t.Errorf("resolveRESP(%q) = %d, want %d", name, got, want)
		}
	}
	if got := resolveRESP(&resp.Command{}); got != respUnknown {
		t.Errorf("resolveRESP(empty command) = %d, want unknown", got)
	}

	lease, err := srv.pool.Lease(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	sess := respSession{s: srv}
	set, get := item("set", "42", strings.Repeat("v", 64)), item("GET", "42")
	run := func() {
		sess.out = sess.out[:0]
		if respOps(set)+respOps(get) != 2 {
			t.Fatal("GET and SET must weigh one store op each")
		}
		if !sess.serveCommand(lease, set) || !sess.serveCommand(lease, get) {
			t.Fatal("serveCommand asked to close the connection")
		}
	}
	run() // grow sess.out and sess.scratch once
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("dispatching a parsed SET+GET allocates %v times, want 0", n)
	}
	if want := "+OK\r\n$64\r\n" + strings.Repeat("v", 64) + "\r\n"; string(sess.out) != want {
		t.Errorf("replies = %q, want %q", sess.out, want)
	}
}

// TestRESPMGETOneLease pins the acceptance criterion: an MGET of 16
// keys takes exactly one slot-bundle lease, accounted as one batched
// lease carrying 16 operations.
func TestRESPMGETOneLease(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 16)
	args := []string{"MGET"}
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		if r, err := c.Do("SET", keys[i], fmt.Sprintf("v%d", i)); err != nil || r.IsError() {
			t.Fatalf("SET %s: %v %+v", keys[i], err, r)
		}
		args = append(args, keys[i])
	}

	before := srv.Pool().Stats()
	r, err := c.Do(args...)
	if err != nil || r.IsError() {
		t.Fatalf("MGET: %v %+v", err, r)
	}
	if len(r.Elems) != 16 {
		t.Fatalf("MGET returned %d elements, want 16", len(r.Elems))
	}
	for i, e := range r.Elems {
		if want := fmt.Sprintf("v%d", i); string(e.Str) != want {
			t.Errorf("MGET[%d] = %q, want %q", i, e.Str, want)
		}
	}
	after := srv.Pool().Stats()
	if got := after.Leases - before.Leases; got != 1 {
		t.Errorf("MGET of 16 keys took %d leases, want exactly 1", got)
	}
	if got := after.LeasesBatched - before.LeasesBatched; got != 1 {
		t.Errorf("MGET batched-lease delta = %d, want 1", got)
	}
	if got := after.BatchedOps - before.BatchedOps; got != 16 {
		t.Errorf("MGET batched-ops delta = %d, want 16", got)
	}
}

// TestRESPPipeline drives many commands through one flush: the loop
// parses what each read delivers, executes it in batches, and replies
// come back in order.
func TestRESPPipeline(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200
	for i := 0; i < n; i++ {
		c.Send("SET", fmt.Sprintf("p:%d", i), fmt.Sprintf("val-%d", i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, err := c.Receive()
		if err != nil || r.IsError() {
			t.Fatalf("pipelined SET %d: %v %+v", i, err, r)
		}
	}
	for i := 0; i < n; i++ {
		c.Send("GET", fmt.Sprintf("p:%d", i))
	}
	for i := 0; i < n; i++ {
		r, err := c.Receive()
		if err != nil || string(r.Str) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("pipelined GET %d: %v %q", i, err, r.Str)
		}
	}
	// The burst must have amortized leases: far fewer grants than ops.
	st := srv.Pool().Stats()
	if st.BatchedOps == 0 || st.Leases >= 2*n {
		t.Errorf("pipelining did not batch leases: %+v", st)
	}
}

// TestRESPValueChurnDrainAudit churns block-backed values (every
// Replace retires the old node, whose free hook must release its
// blocks) and then shuts down: the drain audit proves zero node leaks
// AND zero value-block leaks.
func TestRESPValueChurnDrainAudit(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte{0xab}, 4096)
	for round := 0; round < 30; round++ {
		for k := 0; k < 8; k++ {
			key := []byte(fmt.Sprintf("churn:%d", k))
			if r, err := c.DoBytes([]byte("SET"), key, payload); err != nil || r.IsError() {
				t.Fatalf("round %d SET %s: %v %+v", round, key, err, r)
			}
		}
	}
	// Leave half the keys live so the audit separates live refs from
	// leaked ones, delete the rest.
	for k := 0; k < 4; k++ {
		if r, err := c.Do("DEL", fmt.Sprintf("churn:%d", k)); err != nil || r.Int != 1 {
			t.Fatalf("DEL churn:%d: %v %+v", k, err, r)
		}
	}
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain audit: %v", err)
	}
}

// replayConn is an in-memory net.Conn for driving the RESP loop without
// a socket: Read hands out the scripted stream at most chunk bytes at a
// time and then io.EOF, Write discards and counts.  Only Read and Write
// are ever called.
type replayConn struct {
	net.Conn
	in      []byte
	chunk   int
	reads   int
	onRead  func(reads int)
	written int
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.onRead != nil {
		c.onRead(c.reads)
	}
	c.reads++
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in[:min(c.chunk, len(c.in))])
	c.in = c.in[n:]
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error) {
	c.written += len(p)
	return len(p), nil
}

// TestRESPSteadyStateAllocs is the allocation floor of the whole
// connection loop, driven one 32-deep batch per read.  The loop itself
// allocates nothing once warm: a GET-only pipeline costs exactly the
// batch's Lease object (slotpool.grant), 1/32 per command.  With half
// the commands SETs of 64 B values, internal/alloc adds a shared-pool
// list node or two per batch as value blocks recycle (0.073 here; the
// share depends on how SETs and frees alternate).  Both are outside this
// package.  The two-goroutine front-end read about 6 per command.
func TestRESPSteadyStateAllocs(t *testing.T) {
	const depth, warm, measured = 32, 50, 200
	val := strings.Repeat("v", 64)
	okReply, valReply := len("+OK\r\n"), len("$64\r\n")+len(val)+len("\r\n")
	for _, tc := range []struct {
		name    string
		sets    int // of the depth commands; the rest are GETs of set keys
		ceiling float64
	}{
		{"GET and SET", depth / 2, 0.1},
		{"GET only", 0, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(Config{Store: respStore()})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown(context.Background())

			var prime, batch []byte
			for i := 0; i < depth; i++ {
				key := strconv.Itoa(i)
				prime = resp.AppendCommandStrings(prime, "SET", key, val)
				if i < tc.sets {
					batch = resp.AppendCommandStrings(batch, "SET", key, val)
				} else {
					batch = resp.AppendCommandStrings(batch, "GET", key)
				}
			}
			var before, after runtime.MemStats
			conn := &replayConn{in: append(prime, bytes.Repeat(batch, warm+measured)...), chunk: len(prime)}
			conn.onRead = func(reads int) {
				conn.chunk = len(batch) // after the priming read
				if reads == 1+warm {
					runtime.ReadMemStats(&before)
				}
			}
			srv.handleRESP(conn, bufio.NewReader(conn))
			runtime.ReadMemStats(&after)

			want := depth*okReply + (warm+measured)*(tc.sets*okReply+(depth-tc.sets)*valReply)
			if conn.written != want {
				t.Fatalf("wrote %d reply bytes, want %d", conn.written, want)
			}
			if got, want := srv.Stats().RequestsRESP, uint64((1+warm+measured)*depth); got != want {
				t.Errorf("requests_resp = %d, want %d", got, want)
			}
			perCmd := float64(after.Mallocs-before.Mallocs) / (measured * depth)
			if perCmd > tc.ceiling {
				t.Errorf("steady state allocates %.3f objects per command, want <= %v", perCmd, tc.ceiling)
			}
			t.Logf("%.3f objects per command", perCmd)
		})
	}
}

// TestRESPOversize round-trips commands at the edges of the read buffer
// and the value limit, each pipelined between small ones: a value of
// exactly MaxValue, and an MSET several times the read buffer.  One byte
// over MaxValue is a per-command error; one byte over the bulk ceiling
// (the larger of MaxValue and resp.MaxInline) is a protocol error,
// answered after the replies before it, and closes the connection.
func TestRESPOversize(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	maxValue := srv.Store().MaxValue()
	big := bytes.Repeat([]byte("wait-free!"), maxValue/10+1)[:maxValue]
	mset := [][]byte{[]byte("MSET")}
	for i := 0; i < 40; i++ {
		mset = append(mset, []byte(fmt.Sprintf("m:%d", i)), bytes.Repeat([]byte{byte('a' + i%26)}, 1000))
	}
	if n := len(resp.AppendCommand(nil, mset...)); n <= 2*resp.BufSize {
		t.Fatalf("MSET encodes to %d bytes, want more than two read buffers (%d)", n, 2*resp.BufSize)
	}
	c.Send("SET", "small", "s")
	c.SendBytes([]byte("SET"), []byte("big"), big)
	c.Send("GET", "small")
	c.SendBytes(mset...)
	c.Send("GET", "big")
	c.Send("GET", "m:39")
	c.SendBytes([]byte("SET"), []byte("huge"), append(big, 'x'))
	c.Send("PING")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"OK", "OK", "s", "OK", string(big), string(mset[80]), "", "PONG"} {
		r, err := c.Receive()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if want == "" {
			if !r.IsError() {
				t.Fatalf("reply %d: one byte over MaxValue accepted: %+v", i, r)
			}
			continue
		}
		if r.IsError() || string(r.Str) != want {
			t.Fatalf("reply %d = %.40q (error %v), want %.40q", i, r.Str, r.IsError(), want)
		}
	}

	// The header alone is the violation: no payload need follow it.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	fmt.Fprintf(raw, "PING\r\n*2\r\n$4\r\nECHO\r\n$2\r\nhi\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$%d\r\n", resp.MaxInline+1)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("connection not closed after the protocol error: %v", err)
	}
	want := fmt.Sprintf("+PONG\r\n$2\r\nhi\r\n-ERR Protocol error: Protocol error: invalid bulk length (%d exceeds %d byte limit)\r\n",
		resp.MaxInline+1, resp.MaxInline)
	if string(got) != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestRESPPartialCommandHoldsNoLease: the lease is taken only after a
// full parse, so with a single slot a sender stalled mid-command starves
// nobody, and the drain still wakes it and audits clean.
func TestRESPPartialCommandHoldsNoLease(t *testing.T) {
	cfg := respStore()
	cfg.Slots = 1
	srv, addr := startServer(t, Config{Store: cfg})

	a, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// One write, so the PONG proves the loop has seen the torn SET too.
	if _, err := a.Write([]byte("PING\r\n*3\r\n$3\r\nSET\r\n$1\r\n1\r\n$5\r\nab")); err != nil {
		t.Fatal(err)
	}
	pong := make([]byte, len("+PONG\r\n"))
	if _, err := io.ReadFull(a, pong); err != nil || string(pong) != "+PONG\r\n" {
		t.Fatalf("stalled sender's PING: %q, %v", pong, err)
	}

	b, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	if r, err := b.Do("GET", "1"); err != nil || r.IsError() || !r.Null {
		t.Fatalf("GET beside a stalled sender: %+v, %v; want a null reply", r, err)
	}
	if d := time.Since(start); d > srv.cfg.LeaseMaxWait/2 {
		t.Errorf("GET beside a stalled sender took %v, LeaseMaxWait is %v", d, srv.cfg.LeaseMaxWait)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start = time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain with a sender stalled mid-command: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("drain took %v, want the 50 ms read-deadline wake-up plus margin", d)
	}
}

// TestRESPRequestCounter: the per-batch add keeps the per-command
// meaning of requests_resp in all three places it is reported.
func TestRESPRequestCounter(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 32; i++ {
		switch i % 3 {
		case 0:
			c.Send("SET", strconv.Itoa(i), "v")
		case 1:
			c.Send("MGET", "1", "2", "3") // multi-key commands count one
		default:
			c.Send("PING")
		}
	}
	for i := 0; i < 32; i++ {
		if r, err := c.Receive(); err != nil || r.IsError() {
			t.Fatalf("reply %d: %+v, %v", i, r, err)
		}
	}
	if got := srv.Stats().RequestsRESP; got != 32 {
		t.Errorf("after a 32-deep pipeline: requests_resp = %d, want 32", got)
	}
	// INFO counts itself, as it always has.
	if r, err := c.Do("INFO"); err != nil || !strings.Contains(string(r.Str), "requests_resp:33\r\n") {
		t.Errorf("INFO after the pipeline does not report requests_resp:33 (%v):\n%s", err, r.Str)
	}
	var prom bytes.Buffer
	srv.WriteProm(&prom)
	if want := `wfrc_server_requests_total{proto="resp"} 33`; !strings.Contains(prom.String(), want) {
		t.Errorf("/metrics lacks %q:\n%s", want, prom.String())
	}

	// A batch cut short counts only the commands answered: two before a
	// protocol error, two up to and including a QUIT.
	for _, tc := range []struct{ in, want string }{
		{"PING\r\nPING\r\n*1\r\n$x\r\nPING\r\n", "+PONG\r\n+PONG\r\n-ERR Protocol error: Protocol error: invalid bulk length\r\n"},
		{"PING\r\nQUIT\r\nPING\r\n", "+PONG\r\n+OK\r\n"},
	} {
		before := srv.Stats().RequestsRESP
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		raw.Write([]byte(tc.in))
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(raw)
		raw.Close()
		if err != nil || string(got) != tc.want {
			t.Errorf("%q: got %q, %v; want %q and a closed connection", tc.in, got, err, tc.want)
		}
		if n := srv.Stats().RequestsRESP - before; n != 2 {
			t.Errorf("%q: counted %d requests, want 2", tc.in, n)
		}
	}
	if got := srv.Stats().ProtoErrors; got != 1 {
		t.Errorf("proto_errors = %d, want 1", got)
	}
}

// TestProtocolSniff runs a native and a RESP client against the same
// listener; the first byte routes each connection to its front-end.
func TestProtocolSniff(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())

	nc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	rc, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// Numeric keys are shared across protocols: the RESP key "42" is the
	// native key 42.
	if r, err := rc.Do("SET", "42", "1234"); err != nil || r.IsError() {
		t.Fatalf("RESP SET: %v %+v", err, r)
	}
	if _, ok, err := nc.Get(42); err != nil || !ok {
		t.Fatalf("native GET of RESP-set key: ok=%v err=%v", ok, err)
	}
	if _, err := nc.Set(43, 777); err != nil {
		t.Fatal(err)
	}
	if r, err := rc.Do("GET", "43"); err != nil || string(r.Str) != "777" {
		t.Fatalf("RESP GET of native-set key: %v %q", err, r.Str)
	}

	st, err := nc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RequestsNative == 0 || st.RequestsRESP == 0 {
		t.Errorf("per-protocol counters: native=%d resp=%d, want both > 0",
			st.RequestsNative, st.RequestsRESP)
	}
}

// TestCrossProtocolOverwrite churns one key space through BOTH
// protocols: RESP SETs install 4 KiB block-backed values, native Sets
// overwrite the same keys with bare words.  A native in-place overwrite
// of a tagged word would orphan its blocks, so the drain audit is the
// assertion; reserved-bit forgeries must be rejected outright.
func TestCrossProtocolOverwrite(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})

	nc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte{0xcd}, 4096)
	for round := 0; round < 20; round++ {
		for k := uint64(0); k < 8; k++ {
			key := []byte(fmt.Sprintf("%d", k))
			if r, err := rc.DoBytes([]byte("SET"), key, payload); err != nil || r.IsError() {
				t.Fatalf("round %d RESP SET %s: %v %+v", round, key, err, r)
			}
			// The native overwrite of the block-backed value must retire
			// the old node (freeing its blocks), not clobber the word.
			if _, err := nc.Set(k, k*10+uint64(round)); err != nil {
				t.Fatalf("round %d native Set %d: %v", round, k, err)
			}
		}
	}
	// After a native overwrite the value is a bare word again, readable
	// from both sides.
	if v, ok, err := nc.Get(3); err != nil || !ok || v != 30+19 {
		t.Fatalf("native Get(3) = %d,%v,%v; want %d", v, ok, err, 30+19)
	}
	if r, err := rc.Do("GET", "3"); err != nil || string(r.Str) != fmt.Sprintf("%d", 30+19) {
		t.Fatalf("RESP GET 3 = %q, %v", r.Str, err)
	}

	// Reserved-bit words cannot be forged through Set or matched by CAS.
	if _, err := nc.Set(99, 1<<63); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("native Set with bit 63 accepted: %v", err)
	}
	if _, _, err := nc.CompareAndSet(99, 1<<63, 1); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("native CAS with bit-63 old accepted: %v", err)
	}
	nc.Close()
	rc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain audit after cross-protocol churn: %v", err)
	}
}

// TestNativeBatchOp exercises OpBatch: several sub-requests in one
// frame, one length-prefixed sub-response each, all under the
// connection's single lease.
func TestNativeBatchOp(t *testing.T) {
	srv, addr := startServer(t, Config{Store: smallStore()})
	defer srv.Shutdown(context.Background())

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := Request{Op: OpBatch, Sub: []Request{
		{Op: OpSet, Key: 1, Value: 100},
		{Op: OpSet, Key: 2, Value: 200},
		{Op: OpGet, Key: 1},
		{Op: OpDel, Key: 2},
		{Op: OpGet, Key: 2},
		{Op: OpCAS, Key: 1, Old: 100, Value: 101},
	}}
	if err := WriteFrame(conn, EncodeRequest(nil, req)); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := DecodeBatchResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != len(req.Sub) {
		t.Fatalf("got %d sub-responses, want %d", len(subs), len(req.Sub))
	}
	wantStatus := []uint8{StatusOK, StatusOK, StatusOK, StatusOK, StatusNotFound, StatusOK}
	for i, sub := range subs {
		if sub.Status != wantStatus[i] {
			t.Errorf("sub %d: status %d, want %d", i, sub.Status, wantStatus[i])
		}
	}
	if subs[2].Value != 100 {
		t.Errorf("batched Get = %d, want 100", subs[2].Value)
	}

	// Malformed batches are rejected at decode.
	if _, err := DecodeRequest(EncodeRequest(nil, Request{Op: OpBatch, Sub: []Request{{Op: OpStats}}})); err == nil {
		t.Error("batch with OpStats sub-request accepted")
	}
	if _, err := DecodeRequest([]byte{OpBatch, 0, 0}); err == nil {
		t.Error("empty batch accepted")
	}
}
