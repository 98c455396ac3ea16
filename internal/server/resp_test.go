package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
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

// TestRESPPipeline drives many commands through one flush: the reader
// parses ahead, the executor drains them in batches, and replies come
// back in order.
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
