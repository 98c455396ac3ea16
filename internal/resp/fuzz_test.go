package resp

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzRESP throws arbitrary bytes at the command Reader.  Invariants:
// the parser never panics, every parsed command re-encodes to something
// the parser accepts again (round-trip closure), the only error kinds
// that escape are *ProtoError, io.EOF and io.ErrUnexpectedEOF, and the
// in-place parser agrees with the Reader on the whole input and with
// itself at every split point (checkSplits).
//
// Run with `go test -fuzz FuzzRESP ./internal/resp` to explore; the
// seed corpus runs in normal `go test`.
func FuzzRESP(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$5\r\nkey:1\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$4\r\n\x00\r\n\xff\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("SET a b\r\n"))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n*2\r\n$4\r\nECHO\r\n$2\r\nhi\r\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$99999999\r\nx"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("$5\r\nstray\r\n"))
	f.Add([]byte("\r\n\r\nPING\r\n"))
	f.Add([]byte("INFO\r\n"))
	f.Add([]byte(" \r\n*0\r\n\r\nSET  a\tb \r\n*1\r\n$4\r\nPINGxx"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		if len(data) <= 2048 { // every split point: quadratic in len(data)
			checkSplits(t, data, 1<<20)
		}
		r := NewReader(bufio.NewReader(bytes.NewReader(data)), 1<<20)
		for i := 0; i < 1024; i++ {
			cmd, err := r.ReadCommand()
			if err != nil {
				var pe *ProtoError
				if err == io.EOF || err == io.ErrUnexpectedEOF || errors.As(err, &pe) {
					return
				}
				t.Fatalf("unexpected error kind: %v", err)
			}
			// Round-trip: the canonical re-encoding must parse back to
			// the same command.
			enc := AppendCommand(nil, cmd.Args...)
			r2 := NewReader(bufio.NewReader(bytes.NewReader(enc)), 1<<20)
			cmd2, err := r2.ReadCommand()
			if len(cmd.Args) == 0 {
				// "*0" has no canonical inline form; its encoding reads
				// as an empty multibulk again.
				if err != nil || len(cmd2.Args) != 0 {
					t.Fatalf("empty command round-trip: %v %v", cmd2, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("re-parse of %q: %v", enc, err)
			}
			if len(cmd2.Args) != len(cmd.Args) {
				t.Fatalf("round-trip arg count %d != %d", len(cmd2.Args), len(cmd.Args))
			}
			for j := range cmd.Args {
				if !bytes.Equal(cmd.Args[j], cmd2.Args[j]) {
					t.Fatalf("round-trip arg %d: %q != %q", j, cmd2.Args[j], cmd.Args[j])
				}
			}
		}
	})
}
