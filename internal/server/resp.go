// RESP front-end: the server speaks enough of the Redis serialization
// protocol (RESP2) that redis-benchmark, redis-cli, and memtier drive
// the wait-free store directly.  Both protocols share every listener —
// handleConn sniffs the first byte — and differ only in framing; all
// operations land in the same store through the same slotpool leases.
//
// The front-end runs each connection to completion in one loop: fill the
// read buffer, parse every complete command in place, take ONE slot
// lease for what was parsed (slotpool.LeaseBatch — the batch is the
// lease amortization unit), execute in arrival order, write all replies
// with a single write, consume the parsed bytes, go round.  A lone
// command costs a plain Lease; a pipeline burst or a multi-key command
// (MGET/MSET/DEL) costs one batched lease however many keys it touches,
// which is the acceptance criterion the TestRESPMGETOneLease test pins
// down.  The lease is taken only after a full parse, so a half-received
// command holds no slot and a slow sender never stalls the store.
//
// Aliasing contract: a parsed command's Args point into the
// connection's read buffer and are valid until that buffer is next
// consumed or filled.  A batch is therefore executed, and its replies
// built, before the loop reads again; nothing keeps an argument past
// serveBatch.
//
// Commands: GET SET DEL UNLINK EXISTS MGET MSET PING ECHO INFO SELECT
// QUIT, plus tolerant no-ops for CONFIG/COMMAND/CLIENT so stock tools'
// handshakes succeed.  Keys are mapped to the store's uint64 keyspace:
// decimal strings map to their integer value (so native and RESP
// clients can interoperate on numeric keys), everything else hashes
// with FNV-1a.  Values ride the internal/value layer when the store has
// one (StoreConfig.MaxValue), else they must be decimal uint64s.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strconv"

	"wfrc/internal/obs"
	"wfrc/internal/resp"
	"wfrc/internal/slotpool"
	"wfrc/internal/value"
)

// respMaxBatch bounds how many parsed commands share one lease and one
// write.
const respMaxBatch = 64

// respItem is one parsed command with its name resolved.
type respItem struct {
	cmd resp.Command
	op  respOp
}

// respOp is a command name resolved once, at parse time, so the executor
// dispatches on an integer instead of upper-casing the name (two heap
// allocations) every time it looks at the command.
type respOp uint8

const (
	respUnknown respOp = iota
	respGet
	respSet
	respDel
	respUnlink
	respExists
	respMGet
	respMSet
	respPing
	respEcho
	respQuit
	respSelect
	respClient
	respCommand
	respConfig
	respInfo
)

// respOpNames is indexed by respOp; respUnknown has no name.
var respOpNames = [...]string{
	respGet: "GET", respSet: "SET", respDel: "DEL", respUnlink: "UNLINK",
	respExists: "EXISTS", respMGet: "MGET", respMSet: "MSET",
	respPing: "PING", respEcho: "ECHO", respQuit: "QUIT",
	respSelect: "SELECT", respClient: "CLIENT", respCommand: "COMMAND",
	respConfig: "CONFIG", respInfo: "INFO",
}

// resolveRESP matches the command name against the known names, ASCII
// case-insensitively and without allocating.
func resolveRESP(cmd *resp.Command) respOp {
	if len(cmd.Args) == 0 {
		return respUnknown
	}
	name := cmd.Args[0]
next:
	for op := respGet; int(op) < len(respOpNames); op++ {
		want := respOpNames[op]
		if len(name) != len(want) {
			continue
		}
		for i := 0; i < len(want); i++ {
			c := name[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != want[i] {
				continue next
			}
		}
		return op
	}
	return respUnknown
}

// handleRESP serves one RESP connection.  br holds whatever the protocol
// sniff buffered; everything after that is read straight from conn.
func (s *Server) handleRESP(conn net.Conn, br *bufio.Reader) {
	maxBulk := s.store.MaxValue()
	if maxBulk < resp.MaxInline {
		// Command arguments (keys, INFO section names) need headroom even
		// when the value layer is off or tiny.
		maxBulk = resp.MaxInline
	}
	sess := respSession{s: s, conn: conn}
	parser := resp.Parser{MaxBulk: maxBulk}
	var rb resp.Buffer
	// Takes over what the sniff buffered: a bufio.Reader that holds bytes
	// hands them out without reading further.
	if rb.Fill(br, 1) != nil {
		return
	}
	batch := make([]respItem, 0, respMaxBatch)
	for {
		parser.Reset()
		batch = batch[:0]
		need := 0
		var perr error
		for len(batch) < respMaxBatch {
			cmd, n, more, err := parser.Parse(rb.Bytes())
			rb.Consume(n)
			if more > 0 || err != nil {
				need, perr = more, err
				break
			}
			batch = append(batch, respItem{cmd: cmd, op: resolveRESP(&cmd)})
		}
		if len(batch) > 0 || perr != nil {
			if !sess.serveBatch(batch, perr) {
				return
			}
			if s.draining.Load() {
				return // replies written; part cleanly mid-drain
			}
		}
		// Blocked here, the loop is woken by Shutdown's read deadline.
		if need > 0 && rb.Fill(conn, need) != nil {
			return // EOF, death, or drain deadline: a torn command is dropped
		}
	}
}

// respSession is one connection's executor state.
type respSession struct {
	s    *Server
	conn net.Conn
	// out accumulates a batch's replies for the single write; scratch
	// holds decoded payloads between GetBytes and AppendBulk.
	out     []byte
	scratch []byte
}

// serveBatch leases, executes, and answers one parsed batch, then the
// protocol error that ended the parse, if any.  It returns false when
// the connection should close (protocol error, QUIT, or a dead socket).
func (sess *respSession) serveBatch(batch []respItem, perr error) bool {
	s := sess.s
	ops := 0
	for i := range batch {
		ops += respOps(&batch[i])
		if batch[i].op == respQuit {
			// Nothing after QUIT is weighed, counted or answered.
			batch, perr = batch[:i+1], nil
			break
		}
	}
	// One add per batch: the counter's line is shared by every connection.
	s.reqsRESP.Add(uint64(len(batch)))
	var lease slotpool.Lease
	busy := false
	if ops > 0 {
		var err error
		if ops == 1 && len(batch) == 1 {
			lease, err = s.pool.Lease(context.Background())
		} else {
			lease, err = s.pool.LeaseBatch(context.Background(), ops)
		}
		if err != nil {
			s.busy.Add(1)
			busy = true
		}
	}

	alive := perr == nil
	sess.out = sess.out[:0]
	for i := range batch {
		it := &batch[i]
		if busy && respOps(it) > 0 {
			sess.out = resp.AppendError(sess.out, "BUSY no thread slot free, retry")
			continue
		}
		alive = sess.serveCommand(lease, it) && alive
	}
	if ops > 0 && !busy {
		lease.Release()
	}
	if perr != nil {
		s.protoErrors.Add(1)
		sess.out = resp.AppendError(sess.out, "ERR Protocol error: "+perr.Error())
	}
	if _, err := sess.conn.Write(sess.out); err != nil {
		return false
	}
	return alive
}

// respOps counts the store operations a command will perform — the
// batch's LeaseBatch amortization weight.  Protocol-only commands
// (PING, INFO, ...) weigh zero and never need a lease.
func respOps(it *respItem) int {
	switch it.op {
	case respGet, respSet:
		return 1
	case respDel, respUnlink, respExists, respMGet:
		return max(len(it.cmd.Args)-1, 1)
	case respMSet:
		return max((len(it.cmd.Args)-1)/2, 1)
	default:
		return 0
	}
}

// serveCommand appends one command's reply to sess.out.  It returns
// false to close the connection (QUIT).
func (sess *respSession) serveCommand(l slotpool.Lease, it *respItem) bool {
	s := sess.s
	args := it.cmd.Args
	switch it.op {
	case respPing:
		if len(args) > 1 {
			sess.out = resp.AppendBulk(sess.out, args[1])
		} else {
			sess.out = resp.AppendSimple(sess.out, "PONG")
		}
	case respEcho:
		if len(args) != 2 {
			sess.out = respWrongArgs(sess.out, "echo")
			break
		}
		sess.out = resp.AppendBulk(sess.out, args[1])
	case respQuit:
		sess.out = resp.AppendSimple(sess.out, "OK")
		return false
	case respSelect, respClient:
		// Single keyspace; client tracking options are irrelevant here.
		sess.out = resp.AppendSimple(sess.out, "OK")
	case respCommand:
		sess.out = resp.AppendArrayHeader(sess.out, 0)
	case respConfig:
		if len(args) > 1 && bytes.EqualFold(args[1], []byte("GET")) {
			sess.out = resp.AppendArrayHeader(sess.out, 0)
		} else {
			sess.out = resp.AppendSimple(sess.out, "OK")
		}
	case respGet:
		if len(args) != 2 {
			sess.out = respWrongArgs(sess.out, "get")
			break
		}
		sess.appendGet(l, respKey(args[1]))
	case respSet:
		if len(args) < 3 {
			sess.out = respWrongArgs(sess.out, "set")
			break
		}
		// Expiry/conditional options (EX/PX/NX/XX) are accepted and
		// ignored: the tier has no TTL reaper yet, and benchmarks set them
		// rarely.
		if err := sess.set(l, respKey(args[1]), args[2]); err != nil {
			sess.out = resp.AppendError(sess.out, "ERR "+err.Error())
		} else {
			sess.out = resp.AppendSimple(sess.out, "OK")
		}
	case respDel, respUnlink:
		if len(args) < 2 {
			sess.out = respWrongArgs(sess.out, "del")
			break
		}
		n := 0
		for _, k := range args[1:] {
			if s.store.Delete(l, respKey(k)) {
				n++
			}
		}
		sess.out = resp.AppendInt(sess.out, int64(n))
	case respExists:
		if len(args) < 2 {
			sess.out = respWrongArgs(sess.out, "exists")
			break
		}
		n := 0
		for _, k := range args[1:] {
			if _, ok := s.store.Get(l, respKey(k)); ok {
				n++
			}
		}
		sess.out = resp.AppendInt(sess.out, int64(n))
	case respMGet:
		if len(args) < 2 {
			sess.out = respWrongArgs(sess.out, "mget")
			break
		}
		sess.out = resp.AppendArrayHeader(sess.out, len(args)-1)
		for _, k := range args[1:] {
			sess.appendGet(l, respKey(k))
		}
	case respMSet:
		if len(args) < 3 || (len(args)-1)%2 != 0 {
			sess.out = respWrongArgs(sess.out, "mset")
			break
		}
		var firstErr error
		for i := 1; i < len(args); i += 2 {
			if err := sess.set(l, respKey(args[i]), args[i+1]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if firstErr != nil {
			sess.out = resp.AppendError(sess.out, "ERR "+firstErr.Error())
		} else {
			sess.out = resp.AppendSimple(sess.out, "OK")
		}
	case respInfo:
		var buf bytes.Buffer
		if err := s.collector.WriteInfo(&buf, s.infoSections()...); err != nil {
			sess.out = resp.AppendError(sess.out, "ERR "+err.Error())
			break
		}
		sess.out = resp.AppendBulk(sess.out, buf.Bytes())
	default:
		sess.out = resp.AppendError(sess.out, "ERR unknown command '"+it.cmd.Name()+"'")
	}
	return true
}

// appendGet appends key's value as a bulk string, or a null.
func (sess *respSession) appendGet(l slotpool.Lease, key uint64) {
	sess.scratch = sess.scratch[:0]
	b, ok := sess.s.store.GetBytes(l, key, sess.scratch)
	sess.scratch = b
	if !ok {
		sess.out = resp.AppendNull(sess.out)
		return
	}
	sess.out = resp.AppendBulk(sess.out, sess.scratch)
}

// set stores one payload, through the value layer when present, else as
// a native decimal uint64.
func (sess *respSession) set(l slotpool.Lease, key uint64, payload []byte) error {
	st := sess.s.store
	if st.Values() == nil {
		v, err := strconv.ParseUint(string(payload), 10, 64)
		if err != nil || value.IsValue(v) {
			return errors.New("value layer disabled (StoreConfig.MaxValue=0): values must be decimal uint64 under 2^63")
		}
		_, err = st.Set(l, key, v)
		return err
	}
	if len(payload) > st.MaxValue() {
		return &value.ErrTooLarge{N: len(payload), Max: st.MaxValue()}
	}
	return st.SetBytes(l, key, payload)
}

// infoSections builds the server-level INFO sections; the collector
// appends the per-scheme counters after them.
func (s *Server) infoSections() []obs.InfoSection {
	pool := s.pool.Stats()
	// Resample the memory lifecycle so an INFO probe never reads a
	// minutes-old snapshot on a server running without the periodic
	// sampler (InfoSection renders the last published sample).
	s.memCollector.Sample()
	return []obs.InfoSection{
		{Name: "Server", Fields: []obs.InfoField{
			obs.Field("wfrc_version", "dev"),
			obs.Field("slots", pool.Slots),
			obs.Field("max_value_bytes", s.store.MaxValue()),
		}},
		{Name: "Clients", Fields: []obs.InfoField{
			obs.Field("connected_clients", s.curConns.Load()),
			obs.Field("total_connections_received", s.connsTotal.Load()),
		}},
		{Name: "Stats", Fields: []obs.InfoField{
			obs.Field("requests_native", s.reqsNative.Load()),
			obs.Field("requests_resp", s.reqsRESP.Load()),
			obs.Field("busy_rejects", s.busy.Load()),
			obs.Field("proto_errors", s.protoErrors.Load()),
			obs.Field("leases", pool.Leases),
			obs.Field("leases_batched", pool.LeasesBatched),
			obs.Field("batched_ops", pool.BatchedOps),
		}},
		s.memCollector.InfoSection(),
	}
}

// respKey maps a RESP key to the store's uint64 keyspace.  Decimal
// strings that fit uint64 map to their value — numeric keys interop
// with native clients — and everything else hashes with FNV-1a (64).
// Hash collisions alias keys, the usual trade of a fixed-width
// keyspace; at 2^64 they are negligible for cache workloads.
func respKey(b []byte) uint64 {
	if n := len(b); n >= 1 && n <= 19 {
		v := uint64(0)
		numeric := true
		for _, c := range b {
			if c < '0' || c > '9' {
				numeric = false
				break
			}
			v = v*10 + uint64(c-'0')
		}
		if numeric {
			return v
		}
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func respWrongArgs(dst []byte, cmd string) []byte {
	return resp.AppendError(dst, "ERR wrong number of arguments for '"+cmd+"' command")
}
