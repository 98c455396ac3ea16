package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Server exposes a collector (and optionally a trace ring) over HTTP:
//
//	/metrics      Prometheus text exposition (see prom.go)
//	/trace        JSON snapshot of the help-event ring
//	/spans        JSON snapshot of the request-span flight recorder
//	/debug/vars   expvar (includes the "wfrc" merged snapshot)
//	/debug/pprof  the standard pprof endpoints
//
// The binaries wire it behind an -obs-addr flag; with the flag unset no
// server, collector or tracer exists and the schemes run exactly as
// before.
type Server struct {
	c     *Collector
	ring  *TraceRing
	spans atomic.Pointer[SpanTracer]
	ln    net.Listener
	srv   *http.Server

	promMu    sync.Mutex
	promExtra []func(io.Writer) error
}

// expvarOnce guards the process-global expvar publication (expvar
// panics on duplicate names; tests may start several Servers).
var (
	expvarOnce sync.Once
	expvarC    *Collector
	expvarMu   sync.Mutex
)

// Serve starts an observability server on addr (host:port; use port 0
// for an ephemeral port, see Addr).  ring may be nil, in which case
// /trace reports an empty event list.  The server runs until Close.
func Serve(addr string, c *Collector, ring *TraceRing) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{c: c, ring: ring, ln: ln}

	expvarMu.Lock()
	expvarC = c
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("wfrc", expvar.Func(func() interface{} {
			expvarMu.Lock()
			cur := expvarC
			expvarMu.Unlock()
			if cur == nil {
				return nil
			}
			snap := cur.Snapshot()
			return snap.Schemes
		}))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/trace", s.trace)
	mux.HandleFunc("/spans", s.spansHandler)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the server's listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetSpans attaches a request-span tracer, making /spans serve its
// flight recorder.  nil detaches; without a tracer /spans reports an
// empty span list.
func (s *Server) SetSpans(t *SpanTracer) { s.spans.Store(t) }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// AddProm registers an extra Prometheus exposition writer appended to
// every /metrics response after the collector's own families.  Layers
// with their own metric families — the slot pool's lease gauges and
// wait histogram, the KV store's op counter and capacity gauges — plug
// in here instead of running a second scrape endpoint.  The writer must
// emit well-formed text exposition and be safe for concurrent calls.
func (s *Server) AddProm(f func(io.Writer) error) {
	s.promMu.Lock()
	defer s.promMu.Unlock()
	s.promExtra = append(s.promExtra, f)
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteProm(w, s.c.Snapshot())
	s.promMu.Lock()
	extra := append([]func(io.Writer) error(nil), s.promExtra...)
	s.promMu.Unlock()
	for _, f := range extra {
		_ = f(w)
	}
}

// traceResponse is the /trace JSON payload.
type traceResponse struct {
	// Total counts every event ever recorded; Events holds the ring's
	// current window, oldest first.
	Total  uint64      `json:"total"`
	Events []HelpEvent `json:"events"`
}

// spansResponse is the /spans JSON payload.
type spansResponse struct {
	// Total counts every span ever finished; Spans holds the flight
	// recorder's current window, oldest first.
	Total uint64 `json:"total"`
	Spans []Span `json:"spans"`
}

func (s *Server) spansHandler(w http.ResponseWriter, _ *http.Request) {
	resp := spansResponse{Spans: []Span{}}
	if t := s.spans.Load(); t != nil {
		resp.Total = t.Total()
		resp.Spans = t.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func (s *Server) trace(w http.ResponseWriter, _ *http.Request) {
	resp := traceResponse{Events: []HelpEvent{}}
	if s.ring != nil {
		resp.Total = s.ring.Total()
		resp.Events = s.ring.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
