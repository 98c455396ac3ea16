// Package resp implements the subset of the Redis RESP2 wire protocol
// that wfrc-kv speaks, so standard tooling — redis-cli, redis-benchmark,
// memtier_benchmark — can drive the wait-free KV store directly.
//
// The server side is a command Parser (client → server direction:
// multi-bulk command arrays plus the legacy inline form), which parses
// in place in the Buffer a connection reads into, and reply append
// functions (server → client: simple strings, errors, integers, bulk
// strings, arrays).  Reader wraps the two around a stream for callers
// that want copies.  The client side (client.go) speaks the reverse
// direction and pipelines.
//
// RESP2 grammar, as much of it as a cache tier needs:
//
//	command  := "*" count CRLF (bulk){count}   — the multi-bulk form
//	          | text CRLF                      — inline: space-split words
//	bulk     := "$" len CRLF bytes{len} CRLF
//	reply    := "+" text CRLF | "-" text CRLF | ":" int CRLF
//	          | bulk | "$-1" CRLF              — null bulk
//	          | "*" count CRLF reply{count} | "*-1" CRLF
//
// The Parser is defensive the way a network front-end must be: bulk
// lengths above MaxBulk, element counts above MaxArgs, junk prefixes and
// malformed frames all return a *ProtoError, which the server renders as
// an -ERR reply and then closes the connection (the Redis behaviour for
// protocol errors — once framing is lost, the stream cannot be
// resynchronized).
package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
)

// Wire limits.  MaxBulk bounds one bulk-string payload (a value), and
// MaxArgs one command's element count; both bound what a command may
// grow to as it arrives.  A length prefix is only a claim: nothing is
// ever allocated on one.
const (
	MaxBulk = 64 << 20 // hard protocol ceiling; servers configure lower
	MaxArgs = 1 << 20
	// MaxInline bounds one inline-command line.
	MaxInline = 64 << 10
)

// ProtoError is a protocol-framing error: the stream is no longer
// parseable and the connection must close after reporting it.
type ProtoError struct{ msg string }

func (e *ProtoError) Error() string { return e.msg }

func protoErrf(format string, args ...any) *ProtoError {
	return &ProtoError{msg: fmt.Sprintf(format, args...)}
}

// Command is one parsed client command: Args[0] is the (case-preserved)
// name, the rest its arguments.  From Parser.Parse the slices alias the
// caller's buffer: they are valid until that buffer is next consumed or
// filled, so a command is executed before its bytes are given up.
// Reader.ReadCommand returns copies, which the caller may keep.
type Command struct {
	Args [][]byte
}

// Name returns the upper-cased command name ("" for an empty command).
func (c *Command) Name() string {
	if len(c.Args) == 0 {
		return ""
	}
	return string(bytes.ToUpper(c.Args[0]))
}

// Parser parses commands in place from a buffer its caller owns; it is
// the one implementation of the command grammar.  It holds no stream
// state, only the argument vector the commands of one batch share, so a
// steady-state parse allocates nothing.
type Parser struct {
	// MaxBulk is the per-argument ceiling this server accepts (≤ MaxBulk).
	MaxBulk int
	argv    [][]byte
}

// Reset gives up the Args of every command parsed so far.
func (p *Parser) Reset() { p.argv = p.argv[:0] }

// Parse parses the first command in b, multi-bulk or inline.  Whatever
// else it returns, the caller consumes n bytes of b: the command's own
// and those of blank inline lines before it, which are skipped as Redis
// skips them.  need == 0 reports a complete command.  need > 0 reports
// that b ends inside one: none of its bytes are consumed, there is no
// error, and the outcome cannot change before b[n:] is need bytes long
// (one more than it holds, or the end of the bulk payload it stops in,
// so a large value is not re-scanned per piece).  Nothing is allocated
// on a claimed count or length.  A *ProtoError means the stream is
// corrupt and the connection must close after the error reply.
func (p *Parser) Parse(b []byte) (cmd Command, n, need int, err error) {
	start := len(p.argv)
	if n, need, err = p.parse(b); need > 0 || err != nil {
		p.argv = p.argv[:start]
		return Command{}, n, need, err
	}
	return Command{Args: p.argv[start:len(p.argv):len(p.argv)]}, n, 0, nil
}

func (p *Parser) parse(b []byte) (n, need int, err error) {
	for {
		if n == len(b) {
			return n, 1, nil
		}
		if b[n] == '*' {
			break
		}
		// The legacy inline form: space-separated words on one line.
		// Quoting is not supported (redis-benchmark and redis-cli always
		// use multi-bulk; inline exists for telnet-style poking).
		line, end, err := readLine(b, n)
		if end == 0 {
			return n, len(b) - n + 1, err
		}
		words := len(p.argv)
		for {
			line = bytes.TrimLeftFunc(line, unicode.IsSpace)
			if len(line) == 0 {
				break
			}
			i := bytes.IndexFunc(line, unicode.IsSpace)
			if i < 0 {
				i = len(line)
			}
			p.argv = append(p.argv, line[:i])
			line = line[i:]
		}
		n = end
		if len(p.argv) > words {
			return n, 0, nil
		}
	}
	line, pos, err := readLine(b, n+1)
	if pos == 0 {
		return n, len(b) - n + 1, err
	}
	count, ok := parseInt(line)
	if !ok || count < 0 || count > MaxArgs {
		return n, 0, protoErrf("Protocol error: invalid multibulk length")
	}
	for ; count > 0; count-- {
		if pos == len(b) {
			return n, len(b) - n + 1, nil
		}
		if b[pos] != '$' {
			return n, 0, protoErrf("Protocol error: expected '$', got '%c'", b[pos])
		}
		line, data, err := readLine(b, pos+1)
		if data == 0 {
			return n, len(b) - n + 1, err
		}
		size, ok := parseInt(line)
		if !ok || size < 0 {
			return n, 0, protoErrf("Protocol error: invalid bulk length")
		}
		if size > int64(p.MaxBulk) {
			return n, 0, protoErrf("Protocol error: invalid bulk length (%d exceeds %d byte limit)", size, p.MaxBulk)
		}
		pos = data + int(size) + 2
		if pos > len(b) {
			return n, pos - n, nil
		}
		if b[pos-2] != '\r' || b[pos-1] != '\n' {
			return n, 0, protoErrf("Protocol error: bulk string missing CRLF terminator")
		}
		p.argv = append(p.argv, b[data:pos-2])
	}
	return pos, 0, nil
}

// readLine returns the CRLF-terminated line of b that starts at from,
// without its terminator, and the offset just past it; end == 0 with a
// nil error means the terminator has not arrived.  Bare LF is rejected:
// RESP lines are CRLF by definition, and accepting LF would make inline
// parsing ambiguous.
func readLine(b []byte, from int) (line []byte, end int, err error) {
	i := bytes.IndexByte(b[from:], '\n')
	if i < 0 && len(b)-from < MaxInline {
		return nil, 0, nil
	}
	if i < 0 || i >= MaxInline {
		return nil, 0, protoErrf("Protocol error: too big inline request")
	}
	if i < 1 || b[from+i-1] != '\r' {
		return nil, 0, protoErrf("Protocol error: expected CRLF line terminator")
	}
	return b[from : from+i-1], from + i + 1, nil
}

// parseInt parses a decimal integer the way Redis does: an optional
// sign, digits, nothing else, within int64.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg || b[0] == '+' {
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' || u > math.MaxInt64/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		return -int64(u), u <= 1<<63
	}
	return int64(u), u <= math.MaxInt64
}

// BufSize is a fresh Buffer's size: room for a full batch of ordinary
// commands, so one read usually delivers a whole pipeline.
const BufSize = 16 << 10

// Buffer is the read buffer commands are parsed in.
type Buffer struct {
	buf  []byte
	r, w int
}

// Bytes returns what is received and not yet consumed.
func (b *Buffer) Bytes() []byte { return b.buf[b.r:b.w] }

// Consume gives up the first n of those bytes.
func (b *Buffer) Consume(n int) { b.r += n }

// Fill moves the unconsumed bytes to the front and reads from src until
// at least need of them are held.  The buffer doubles when a command
// outgrows it — on bytes received, never on a claimed length — and goes
// back to BufSize once what is left of such a command fits again.
func (b *Buffer) Fill(src io.Reader, need int) error {
	rest := b.Bytes()
	if len(b.buf) != BufSize && len(rest) <= BufSize {
		b.buf = make([]byte, BufSize)
	}
	b.r, b.w = 0, copy(b.buf, rest)
	for b.w < need {
		if b.w == len(b.buf) {
			b.buf = append(b.buf, make([]byte, len(b.buf))...)
		}
		n, err := src.Read(b.buf[b.w:])
		b.w += n
		if n == 0 && err != nil {
			return err
		}
	}
	return nil
}

// Reader parses client commands from a stream: a copying wrapper over
// Parser for callers that keep commands past the next read.
type Reader struct {
	br  *bufio.Reader
	p   Parser
	buf Buffer
}

// NewReader wraps r.  maxBulk bounds one bulk payload; zero selects
// MaxBulk.
func NewReader(r *bufio.Reader, maxBulk int) *Reader {
	if maxBulk <= 0 || maxBulk > MaxBulk {
		maxBulk = MaxBulk
	}
	return &Reader{br: r, p: Parser{MaxBulk: maxBulk}}
}

// ReadCommand parses one command, multi-bulk or inline, into freshly
// allocated Args.  io.EOF means a clean end of stream between commands,
// io.ErrUnexpectedEOF one torn mid-command; a *ProtoError means the
// stream is corrupt and the connection must close after the error reply.
func (r *Reader) ReadCommand() (Command, error) {
	r.p.Reset()
	for {
		cmd, n, need, err := r.p.Parse(r.buf.Bytes())
		r.buf.Consume(n)
		if err != nil {
			return Command{}, err
		}
		if need == 0 {
			return cmd.clone(), nil
		}
		if err := r.buf.Fill(r.br, need); err != nil {
			if err == io.EOF && len(r.buf.Bytes()) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return Command{}, err // EOF and timeouts propagate as-is: connection teardown
		}
	}
}

// clone copies the arguments out of the parse buffer.
func (c Command) clone() Command {
	args := make([][]byte, len(c.Args))
	for i, a := range c.Args {
		args[i] = bytes.Clone(a)
	}
	return Command{Args: args}
}

// --- reply encoding ---------------------------------------------------------
//
// Replies are append-style so the server composes a whole pipeline
// batch in one buffer and writes it with one syscall.

var crlf = []byte("\r\n")

// AppendSimple appends a "+text" simple-string reply.
func AppendSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, crlf...)
}

// AppendError appends a "-message" error reply.  Line breaks in msg are
// flattened: an error reply is one line by grammar.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, '-')
	for i := 0; i < len(msg); i++ {
		if c := msg[i]; c == '\r' || c == '\n' {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, crlf...)
}

// AppendInt appends a ":n" integer reply.
func AppendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, crlf...)
}

// AppendBulk appends a "$len\r\nbytes\r\n" bulk-string reply.
func AppendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, crlf...)
	dst = append(dst, b...)
	return append(dst, crlf...)
}

// AppendBulkString is AppendBulk for a string payload.
func AppendBulkString(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, crlf...)
	dst = append(dst, s...)
	return append(dst, crlf...)
}

// AppendNull appends the RESP2 null bulk "$-1".
func AppendNull(dst []byte) []byte { return append(dst, '$', '-', '1', '\r', '\n') }

// AppendArrayHeader appends a "*count" array header; the caller appends
// count replies after it.
func AppendArrayHeader(dst []byte, count int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(count), 10)
	return append(dst, crlf...)
}

// AppendCommand appends the multi-bulk encoding of a command — the
// client → server direction, also used by tests to feed the Reader.
func AppendCommand(dst []byte, args ...[]byte) []byte {
	dst = AppendArrayHeader(dst, len(args))
	for _, a := range args {
		dst = AppendBulk(dst, a)
	}
	return dst
}

// AppendCommandStrings is AppendCommand over string arguments.
func AppendCommandStrings(dst []byte, args ...string) []byte {
	dst = AppendArrayHeader(dst, len(args))
	for _, a := range args {
		dst = AppendBulkString(dst, a)
	}
	return dst
}
