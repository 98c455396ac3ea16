// Package server is the network face of the repository: a KV service
// whose store is one wait-free hashmap over one arena and scheme
// instance, fronted by internal/slotpool so an unbounded population of
// TCP connections shares the scheme's fixed thread slots.
//
// Wire protocol (all integers big-endian):
//
//	frame    := len(uint32) payload
//	request  := op(uint8) args
//	  OpGet   args := key(uint64)
//	  OpSet   args := key(uint64) value(uint64)
//	  OpDel   args := key(uint64)
//	  OpCAS   args := key(uint64) old(uint64) new(uint64)
//	  OpStats args := (none)
//	  OpBatch args := count(uint16) sub-request...  (Get/Set/Del/CAS only)
//
// When the store's variable-size value layer is enabled (StoreConfig
// .MaxValue), bit 63 of a native Set/CAS value is reserved for the
// value-word tag (internal/value): the server rejects Set/CAS requests
// carrying it (StatusErr, ErrReservedBit), and a native Get of a key
// last written over RESP returns the raw tagged word.
//
//	response := status(uint8) body
//	  StatusOK       body := value(uint64) for Get; 1/0 inserted for Set;
//	                         (none) for Del; (none) for CAS
//	  StatusNotFound body := (none)
//	  StatusCASFail  body := (none)      // key present, value != old
//	  StatusBusy     body := (none)      // no slot free: backpressure, retry later
//	  StatusErr      body := utf8 message
//	  OpStats responds StatusOK with a JSON body (server.StatsReply).
//
// A frame larger than MaxFrame is a protocol error and closes the
// connection.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Ops.
const (
	OpGet   = 1
	OpSet   = 2
	OpDel   = 3
	OpCAS   = 4
	OpStats = 5
	// OpBatch carries several Get/Set/Del/CAS sub-requests in one frame:
	//
	//	args := count(uint16) sub-request...
	//
	// and responds StatusOK with count length-prefixed sub-responses:
	//
	//	body := (len(uint16) response)...
	//
	// The whole batch executes on the connection's one slot lease, in
	// order — the native analogue of a RESP pipeline flush.
	OpBatch = 6
)

// MaxBatch bounds the sub-requests of one OpBatch frame.
const MaxBatch = 1024

// Response statuses.
const (
	StatusOK       = 0
	StatusNotFound = 1
	StatusCASFail  = 2
	StatusBusy     = 3
	StatusErr      = 4
)

// OpNames maps op codes to names (index = op code; index 0 unused).
// Span tracers and metric labels index it directly.
var OpNames = []string{
	OpGet: "get", OpSet: "set", OpDel: "del", OpCAS: "cas", OpStats: "stats",
	OpBatch: "batch",
}

// StatusNames maps response status codes to names (index = status code).
var StatusNames = []string{
	StatusOK: "ok", StatusNotFound: "not_found", StatusCASFail: "cas_fail",
	StatusBusy: "busy", StatusErr: "err",
}

// MaxFrame bounds a frame payload; requests are tiny and stats replies
// are small JSON, so anything bigger is garbage or an attack.
const MaxFrame = 1 << 16

// ReadFrame reads one length-prefixed frame payload from r.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Request is a decoded client request.
type Request struct {
	Op    uint8
	Key   uint64
	Value uint64 // Set value / CAS new
	Old   uint64 // CAS old
	// Sub holds an OpBatch's sub-requests (Get/Set/Del/CAS only).
	Sub []Request
}

// argLens maps op → required argument byte count (OpBatch is variable
// and handled separately).
var argLens = map[uint8]int{OpGet: 8, OpSet: 16, OpDel: 8, OpCAS: 24, OpStats: 0}

// DecodeRequest parses a request payload.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) < 1 {
		return Request{}, fmt.Errorf("server: empty request")
	}
	req := Request{Op: p[0]}
	if req.Op == OpBatch {
		return decodeBatch(p[1:])
	}
	want, ok := argLens[req.Op]
	if !ok {
		return Request{}, fmt.Errorf("server: unknown op %d", req.Op)
	}
	if len(p)-1 != want {
		return Request{}, fmt.Errorf("server: op %d wants %d arg bytes, got %d", req.Op, want, len(p)-1)
	}
	a := p[1:]
	switch req.Op {
	case OpGet, OpDel:
		req.Key = binary.BigEndian.Uint64(a)
	case OpSet:
		req.Key = binary.BigEndian.Uint64(a)
		req.Value = binary.BigEndian.Uint64(a[8:])
	case OpCAS:
		req.Key = binary.BigEndian.Uint64(a)
		req.Old = binary.BigEndian.Uint64(a[8:])
		req.Value = binary.BigEndian.Uint64(a[16:])
	}
	return req, nil
}

// decodeBatch parses an OpBatch argument block.
func decodeBatch(a []byte) (Request, error) {
	if len(a) < 2 {
		return Request{}, fmt.Errorf("server: batch header truncated")
	}
	n := int(binary.BigEndian.Uint16(a))
	a = a[2:]
	if n < 1 || n > MaxBatch {
		return Request{}, fmt.Errorf("server: batch of %d sub-requests (want 1..%d)", n, MaxBatch)
	}
	req := Request{Op: OpBatch, Sub: make([]Request, 0, n)}
	for i := 0; i < n; i++ {
		if len(a) < 1 {
			return Request{}, fmt.Errorf("server: batch sub-request %d truncated", i)
		}
		op := a[0]
		want, ok := argLens[op]
		if !ok || op == OpStats {
			return Request{}, fmt.Errorf("server: batch sub-request %d has op %d (only get/set/del/cas may batch)", i, op)
		}
		if len(a)-1 < want {
			return Request{}, fmt.Errorf("server: batch sub-request %d truncated", i)
		}
		sub, err := DecodeRequest(a[:1+want])
		if err != nil {
			return Request{}, err
		}
		req.Sub = append(req.Sub, sub)
		a = a[1+want:]
	}
	if len(a) != 0 {
		return Request{}, fmt.Errorf("server: %d trailing bytes after batch", len(a))
	}
	return req, nil
}

// EncodeRequest appends the wire form of req to dst.
func EncodeRequest(dst []byte, req Request) []byte {
	dst = append(dst, req.Op)
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		dst = append(dst, b[:]...)
	}
	switch req.Op {
	case OpGet, OpDel:
		put(req.Key)
	case OpSet:
		put(req.Key)
		put(req.Value)
	case OpCAS:
		put(req.Key)
		put(req.Old)
		put(req.Value)
	case OpBatch:
		dst = append(dst, byte(len(req.Sub)>>8), byte(len(req.Sub)))
		for _, sub := range req.Sub {
			dst = EncodeRequest(dst, sub)
		}
	}
	return dst
}

// Response is a decoded server response.
type Response struct {
	Status uint8
	Value  uint64 // valid for StatusOK Get/Set
	Body   []byte // StatusErr message or OpStats JSON
}

// DecodeResponse parses a response payload.  Whether Value or Body is
// meaningful depends on the request op, which the client knows.
func DecodeResponse(p []byte) (Response, error) {
	if len(p) < 1 {
		return Response{}, fmt.Errorf("server: empty response")
	}
	resp := Response{Status: p[0]}
	rest := p[1:]
	if resp.Status == StatusErr || len(rest) > 8 {
		resp.Body = append([]byte(nil), rest...)
		return resp, nil
	}
	if len(rest) == 8 {
		resp.Value = binary.BigEndian.Uint64(rest)
	} else if len(rest) != 0 {
		return Response{}, fmt.Errorf("server: response body of %d bytes", len(rest))
	}
	return resp, nil
}

// DecodeBatchResponse parses an OpBatch response payload: the leading
// status, then one decoded Response per sub-request.  Clients must use
// it (not DecodeResponse) for batch replies — sub-responses are
// length-prefixed, so the flat heuristic of DecodeResponse does not
// apply.
func DecodeBatchResponse(p []byte) ([]Response, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("server: empty response")
	}
	if p[0] != StatusOK {
		r, err := DecodeResponse(p)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("server: batch failed: status %d %s", r.Status, r.Body)
	}
	var out []Response
	a := p[1:]
	for len(a) > 0 {
		if len(a) < 2 {
			return nil, fmt.Errorf("server: batch sub-response header truncated")
		}
		n := int(binary.BigEndian.Uint16(a))
		a = a[2:]
		if len(a) < n {
			return nil, fmt.Errorf("server: batch sub-response of %d bytes truncated", n)
		}
		r, err := DecodeResponse(a[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		a = a[n:]
	}
	return out, nil
}
