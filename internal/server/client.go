package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
)

// ErrBusy reports the server's backpressure response: no thread slot
// was free for this request.  The connection stays open; retry on it
// after a short backoff.
var ErrBusy = errors.New("server: busy (no thread slot free)")

// Client is a minimal blocking client for the KV protocol, used by the
// load generator and tests.  One request in flight at a time; not safe
// for concurrent use.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	req  []byte
	resp []byte
}

// Dial connects to a wfrc-kv server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundtrip(req Request) (Response, error) {
	c.req = EncodeRequest(c.req[:0], req)
	if err := WriteFrame(c.w, c.req); err != nil {
		return Response{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Response{}, err
	}
	var err error
	c.resp, err = ReadFrame(c.r, c.resp)
	if err != nil {
		return Response{}, err
	}
	resp, err := DecodeResponse(c.resp)
	if err != nil {
		return Response{}, err
	}
	switch resp.Status {
	case StatusBusy:
		return resp, ErrBusy
	case StatusErr:
		return resp, fmt.Errorf("server: %s", resp.Body)
	}
	return resp, nil
}

// Get reads key.
func (c *Client) Get(key uint64) (value uint64, ok bool, err error) {
	resp, err := c.roundtrip(Request{Op: OpGet, Key: key})
	if err != nil {
		return 0, false, err
	}
	return resp.Value, resp.Status == StatusOK, nil
}

// Set upserts key→value; it reports whether a new entry was inserted.
func (c *Client) Set(key, value uint64) (inserted bool, err error) {
	resp, err := c.roundtrip(Request{Op: OpSet, Key: key, Value: value})
	if err != nil {
		return false, err
	}
	return resp.Value == 1, nil
}

// Delete removes key, reporting whether it was present.
func (c *Client) Delete(key uint64) (bool, error) {
	resp, err := c.roundtrip(Request{Op: OpDel, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == StatusOK, nil
}

// CompareAndSet replaces key's value with new iff it equals old.
func (c *Client) CompareAndSet(key, old, new uint64) (swapped, found bool, err error) {
	resp, err := c.roundtrip(Request{Op: OpCAS, Key: key, Old: old, Value: new})
	if err != nil {
		return false, false, err
	}
	return resp.Status == StatusOK, resp.Status != StatusNotFound, nil
}

// Stats fetches the server-side counters.
func (c *Client) Stats() (StatsReply, error) {
	resp, err := c.roundtrip(Request{Op: OpStats})
	if err != nil {
		return StatsReply{}, err
	}
	var sr StatsReply
	if err := json.Unmarshal(resp.Body, &sr); err != nil {
		return StatsReply{}, fmt.Errorf("server: decoding stats: %w", err)
	}
	return sr, nil
}
