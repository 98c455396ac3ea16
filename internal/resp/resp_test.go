package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func readerFor(s string, maxBulk int) *Reader {
	return NewReader(bufio.NewReader(strings.NewReader(s)), maxBulk)
}

// commandTable is the grammar's table: TestReadCommandTable reads each
// row whole, TestReadCommandTornReads one byte at a time, and both check
// the in-place parser at every split point.
var commandTable = []struct {
	name    string
	in      string
	maxBulk int
	want    [][]string // one entry per expected command
	wantErr string     // substring of the expected *ProtoError; "" = clean io.EOF
}{
	{
		name: "multibulk get",
		in:   "*2\r\n$3\r\nGET\r\n$5\r\nkey:1\r\n",
		want: [][]string{{"GET", "key:1"}},
	},
	{
		name: "multibulk binary value",
		in:   "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\n\x00\r\n\xff\r\n",
		want: [][]string{{"SET", "k", "\x00\r\n\xff"}},
	},
	{
		name: "pipelined commands",
		in:   "*1\r\n$4\r\nPING\r\n*2\r\n$4\r\nECHO\r\n$2\r\nhi\r\n",
		want: [][]string{{"PING"}, {"ECHO", "hi"}},
	},
	{
		name: "inline",
		in:   "PING\r\n",
		want: [][]string{{"PING"}},
	},
	{
		name: "inline with args and extra spaces",
		in:   "SET  a   b\r\n",
		want: [][]string{{"SET", "a", "b"}},
	},
	{
		name: "empty inline skipped",
		in:   "\r\n  \r\nPING\r\n",
		want: [][]string{{"PING"}},
	},
	{
		name: "inline INFO probe",
		in:   "INFO\r\n\r\ninfo  memory \r\n",
		want: [][]string{{"INFO"}, {"info", "memory"}},
	},
	{
		name: "zero-length bulk",
		in:   "*2\r\n$4\r\nECHO\r\n$0\r\n\r\n",
		want: [][]string{{"ECHO", ""}},
	},
	{
		name: "empty multibulk then command",
		in:   "*0\r\n*1\r\n$4\r\nPING\r\n",
		want: [][]string{{}, {"PING"}},
	},
	{
		name:    "oversized bulk rejected",
		in:      "*2\r\n$3\r\nSET\r\n$1048577\r\nx",
		maxBulk: 1 << 20,
		wantErr: "invalid bulk length",
	},
	{
		name:    "negative bulk length",
		in:      "*2\r\n$3\r\nGET\r\n$-5\r\nhello\r\n",
		wantErr: "invalid bulk length",
	},
	{
		name:    "non-numeric multibulk count",
		in:      "*lots\r\n",
		wantErr: "invalid multibulk length",
	},
	{
		name:    "huge multibulk count",
		in:      "*99999999999\r\n",
		wantErr: "invalid multibulk length",
	},
	{
		name:    "wrong element prefix",
		in:      "*1\r\n:42\r\n",
		wantErr: "expected '$'",
	},
	{
		name:    "bulk missing CRLF",
		in:      "*1\r\n$4\r\nPINGxx",
		wantErr: "missing CRLF",
	},
	{
		name:    "bare LF line",
		in:      "*1\n$4\r\nPING\r\n",
		wantErr: "CRLF",
	},
	{
		name:    "error after pipelined commands and a blank line",
		in:      "PING\r\n*1\r\n$4\r\nPING\r\n\r\n*1\r\n$x\r\n",
		want:    [][]string{{"PING"}, {"PING"}},
		wantErr: "invalid bulk length",
	},
	{
		name:    "inline line over MaxInline",
		in:      "*1\r\n$" + strings.Repeat("9", MaxInline),
		wantErr: "too big inline request",
	},
}

func TestReadCommandTable(t *testing.T) {
	for _, tc := range commandTable {
		t.Run(tc.name, func(t *testing.T) {
			checkSplits(t, []byte(tc.in), tc.maxBulk)
			checkRow(t, readerFor(tc.in, tc.maxBulk), tc.want, tc.wantErr)
		})
	}
}

// checkRow reads one table row through r: the wanted commands, then the
// wanted *ProtoError or a clean io.EOF.
func checkRow(t *testing.T, r *Reader, wantCmds [][]string, wantErr string) {
	t.Helper()
	for i, want := range wantCmds {
		cmd, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("command %d: %v", i, err)
		}
		if len(cmd.Args) != len(want) {
			t.Fatalf("command %d: got %d args, want %d", i, len(cmd.Args), len(want))
		}
		for j, w := range want {
			if string(cmd.Args[j]) != w {
				t.Fatalf("command %d arg %d: got %q, want %q", i, j, cmd.Args[j], w)
			}
		}
	}
	_, err := r.ReadCommand()
	if wantErr != "" {
		var pe *ProtoError
		if !errors.As(err, &pe) {
			t.Fatalf("got err %v, want *ProtoError containing %q", err, wantErr)
		}
		if !strings.Contains(pe.Error(), wantErr) {
			t.Fatalf("error %q does not contain %q", pe.Error(), wantErr)
		}
		return
	}
	if err != io.EOF {
		t.Fatalf("after last command: got %v, want io.EOF", err)
	}
}

// parsed is what a connection loop gets out of one buffer: the complete
// commands and where each ends, then either a *ProtoError's text or an
// incomplete tail that starts at off and cannot complete before it is
// need bytes long.
type parsed struct {
	cmds    [][][]byte
	ends    []int
	off     int
	need    int
	errText string
}

func parseAll(b []byte, maxBulk int) parsed {
	var out parsed
	p := Parser{MaxBulk: maxBulk}
	for {
		cmd, n, need, err := p.Parse(b[out.off:])
		out.off += n
		if err != nil {
			out.errText = err.Error()
			return out
		}
		if need > 0 {
			out.need = need
			return out
		}
		out.cmds = append(out.cmds, cmd.Args)
		out.ends = append(out.ends, out.off)
	}
}

func equalArgs(a, b [][]byte) bool {
	return slices.EqualFunc(a, b, bytes.Equal)
}

// checkSplits pins the one-grammar property on input b.  Whole, the
// in-place parser and ReadCommand yield byte-equal arguments and the
// same end of stream.  Cut at every point k, the in-place parser yields
// the same leading commands and then either reports the tail incomplete
// — no error, nothing consumed but blank inline lines, and a need that
// is more than it holds and no more than the command turns out to take —
// or reports the very *ProtoError the whole input ends in.
func checkSplits(t *testing.T, b []byte, maxBulk int) {
	t.Helper()
	if maxBulk <= 0 {
		maxBulk = MaxBulk
	}
	whole := parseAll(b, maxBulk)

	r := NewReader(bufio.NewReader(bytes.NewReader(b)), maxBulk)
	for i, want := range whole.cmds {
		cmd, err := r.ReadCommand()
		if err != nil || !equalArgs(cmd.Args, want) {
			t.Fatalf("command %d: ReadCommand = %q, %v; in place %q", i, cmd.Args, err, want)
		}
	}
	wantEnd := whole.errText
	if wantEnd == "" {
		wantEnd = io.EOF.Error()
		if whole.off < len(b) {
			wantEnd = io.ErrUnexpectedEOF.Error()
		}
	}
	if _, err := r.ReadCommand(); err == nil || err.Error() != wantEnd {
		t.Fatalf("end of stream: ReadCommand = %v; in place %q", err, wantEnd)
	}

	for k := 0; k < len(b); k++ {
		part := parseAll(b[:k], maxBulk)
		done := len(part.cmds)
		if done > len(whole.cmds) || !slices.Equal(part.ends, whole.ends[:done]) {
			t.Fatalf("split %d: commands end at %v, whole input's at %v", k, part.ends, whole.ends)
		}
		for i, args := range part.cmds {
			if !equalArgs(args, whole.cmds[i]) {
				t.Fatalf("split %d command %d: %q, whole input gives %q", k, i, args, whole.cmds[i])
			}
		}
		if part.errText != "" {
			if part.errText != whole.errText || done != len(whole.cmds) {
				t.Fatalf("split %d: error %q after %d commands, whole input: %q after %d",
					k, part.errText, done, whole.errText, len(whole.cmds))
			}
			continue
		}
		last := 0
		if done > 0 {
			last = part.ends[done-1]
		}
		if len(bytes.Fields(b[last:part.off])) != 0 {
			t.Fatalf("split %d: incomplete tail consumed %q", k, b[last:part.off])
		}
		if part.need <= k-part.off {
			t.Fatalf("split %d: need %d with %d bytes held", k, part.need, k-part.off)
		}
		if done < len(whole.cmds) && part.off+part.need > whole.ends[done] {
			t.Fatalf("split %d: need %d from offset %d, but the command ends at %d",
				k, part.need, part.off, whole.ends[done])
		}
	}
}

// TestReadCommandTornReads feeds every table row one byte at a time
// through a half-duplex reader: the parser must wait for more input at
// every boundary and still produce the same commands and errors, never
// misparse a torn prefix.
func TestReadCommandTornReads(t *testing.T) {
	for _, tc := range commandTable {
		t.Run(tc.name, func(t *testing.T) {
			checkRow(t, NewReader(bufio.NewReader(&oneByteReader{s: tc.in}), tc.maxBulk), tc.want, tc.wantErr)
		})
	}
	full := "*3\r\n$4\r\nMSET\r\n$1\r\nk\r\n$11\r\nhello world\r\n"
	checkSplits(t, []byte(full), 0)
	checkRow(t, NewReader(bufio.NewReader(&oneByteReader{s: full}), 0), [][]string{{"MSET", "k", "hello world"}}, "")
	// A command torn by EOF mid-bulk is an unexpected EOF, not a clean end.
	r := readerFor("*2\r\n$3\r\nGET\r\n$5\r\nab", 0)
	if _, err := r.ReadCommand(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn command: got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestClaimedSizesAllocateNothing is the hostile-header regression: a
// count or a bulk length is a claim, and neither the in-place parser nor
// ReadCommand may allocate in proportion to it.  Memory follows bytes
// received.
func TestClaimedSizesAllocateNothing(t *testing.T) {
	for _, in := range []string{
		"*1048576\r\n",                // MaxArgs arguments, none sent
		"*1\r\n$67108864\r\n",         // one MaxBulk argument, none of it sent
		"*1048576\r\n$67108864\r\nab", // both
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readerFor(in, 0).ReadCommand()
		p := Parser{MaxBulk: MaxBulk}
		_, n, need, perr := p.Parse([]byte(in))
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Errorf("%q: ReadCommand = %v, want io.ErrUnexpectedEOF", in, err)
		}
		if n != 0 || need <= len(in) || perr != nil {
			t.Errorf("%q: Parse consumed %d, need %d, err %v; want incomplete", in, n, need, perr)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Errorf("%q allocated %d bytes, want < 64 KiB", in, grew)
		}
	}
}

// TestBufferFollowsBytesReceived pins the read buffer's growth and
// shrink rule: it doubles as an oversized command actually arrives,
// never on a claimed length, and is back to BufSize once that command is
// consumed.
func TestBufferFollowsBytesReceived(t *testing.T) {
	var b Buffer
	if err := b.Fill(strings.NewReader(""), 1<<30); err != io.EOF || len(b.buf) != BufSize {
		t.Fatalf("claim with no bytes: err %v, buffer %d bytes; want io.EOF and %d", err, len(b.buf), BufSize)
	}

	big := strings.Repeat("0123456789abcdef", 5*BufSize/16)
	src := &oneByteReader{s: big + "next command"}
	if err := b.Fill(src, len(big)); err != nil {
		t.Fatal(err)
	}
	if string(b.Bytes()) != big {
		t.Fatal("oversized command corrupted while the buffer grew")
	}
	if len(b.buf) <= BufSize || len(b.buf) > 2*len(big) {
		t.Errorf("buffer is %d bytes for %d received, want more than %d and at most double what arrived",
			len(b.buf), len(big), BufSize)
	}
	b.Consume(len(big))
	if err := b.Fill(src, len("next command")); err != nil {
		t.Fatal(err)
	}
	if len(b.buf) != BufSize || string(b.Bytes()) != "next command" {
		t.Errorf("after the oversized command: buffer %d bytes holding %q, want %d holding the next command",
			len(b.buf), b.Bytes(), BufSize)
	}
}

// oneByteReader returns one byte per Read call, forcing the parser to
// hit every torn-read boundary.
type oneByteReader struct {
	s string
	i int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	p[0] = r.s[r.i]
	r.i++
	return 1, nil
}

func TestAppendReplies(t *testing.T) {
	cases := []struct {
		got  []byte
		want string
	}{
		{AppendSimple(nil, "OK"), "+OK\r\n"},
		{AppendError(nil, "ERR boom"), "-ERR boom\r\n"},
		{AppendError(nil, "ERR two\r\nlines"), "-ERR two  lines\r\n"},
		{AppendInt(nil, -7), ":-7\r\n"},
		{AppendBulk(nil, []byte("abc")), "$3\r\nabc\r\n"},
		{AppendBulk(nil, nil), "$0\r\n\r\n"},
		{AppendBulkString(nil, "hi"), "$2\r\nhi\r\n"},
		{AppendNull(nil), "$-1\r\n"},
		{AppendArrayHeader(nil, 2), "*2\r\n"},
		{AppendCommandStrings(nil, "GET", "k"), "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"},
	}
	for i, tc := range cases {
		if string(tc.got) != tc.want {
			t.Errorf("case %d: got %q, want %q", i, tc.got, tc.want)
		}
	}
}

// TestReplyRoundtrip drives the client-side reply parser over every
// reply shape the server emits.
func TestReplyRoundtrip(t *testing.T) {
	var buf []byte
	buf = AppendSimple(buf, "PONG")
	buf = AppendError(buf, "ERR no")
	buf = AppendInt(buf, 42)
	buf = AppendBulk(buf, []byte("payload"))
	buf = AppendNull(buf)
	buf = AppendArrayHeader(buf, 2)
	buf = AppendBulk(buf, []byte("a"))
	buf = AppendNull(buf)

	br := bufio.NewReader(bytes.NewReader(buf))
	r1, err := readReply(br)
	if err != nil || r1.Kind != '+' || string(r1.Str) != "PONG" {
		t.Fatalf("simple: %+v %v", r1, err)
	}
	r2, err := readReply(br)
	if err != nil || !r2.IsError() || r2.Err() == nil {
		t.Fatalf("error: %+v %v", r2, err)
	}
	r3, err := readReply(br)
	if err != nil || r3.Int != 42 {
		t.Fatalf("int: %+v %v", r3, err)
	}
	r4, err := readReply(br)
	if err != nil || string(r4.Str) != "payload" {
		t.Fatalf("bulk: %+v %v", r4, err)
	}
	r5, err := readReply(br)
	if err != nil || !r5.Null {
		t.Fatalf("null: %+v %v", r5, err)
	}
	r6, err := readReply(br)
	if err != nil || len(r6.Elems) != 2 || string(r6.Elems[0].Str) != "a" || !r6.Elems[1].Null {
		t.Fatalf("array: %+v %v", r6, err)
	}
	if _, err := readReply(br); err != io.EOF {
		t.Fatalf("end: %v", err)
	}
}
