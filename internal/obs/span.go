package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span tracing follows one KV request through every layer of the stack.
// The server opens a span when a decoded request starts executing on a
// leased thread slot and finishes it when the response is built; the
// slot pool annotates the span with the lease-wait it paid and whether
// its slot came out of audit quarantine; and the core scheme's help
// tracer stamps every recorded HelpEvent with the active span IDs of
// helper and helpee (core.Scheme.SetThreadTag), so "my SET was slow
// because slot 3 helped slot 0's D1 announcement" is a join between
// /spans and /trace on one ID.
//
// # Concurrency model
//
// The hot path (Start, Finish, the slotpool annotations) is lock-free
// and allocation-free:
//
//   - Each thread slot owns one lane.  Between Start and Finish the
//     lane's staging fields belong to the slot's current lessee
//     goroutine and are plain (unsynchronized) fields; successive
//     lessees of a slot are ordered by the pool's free queue, so
//     handoff is race-free.  Cross-goroutine annotations (the lease
//     grant happens in the lessee itself; a quarantine notice comes
//     from the releasing goroutine) go through per-lane atomics.
//   - Finish publishes the completed span into a seqlock event ring,
//     the implementation TraceRing's help events use too (ring.go):
//     one fetch-and-add claims a cell, seq is stored last, and readers
//     discard cells they raced with.  Record cost is a constant number
//     of the writer's own steps.
//
// The ring doubles as the flight recorder: it is always on, and its
// current window is dumped as JSON on SIGQUIT, on an audit violation,
// and via the /spans HTTP endpoint (WriteFlightDump, Server.SetSpans).

// Span is one completed request span as exposed over /spans and in
// flight-recorder dumps.
type Span struct {
	// ID is the span's process-unique ID; HelpEvent.HelperSpan and
	// HelpeeSpan join against it.
	ID uint64 `json:"id"`
	// Slot is the thread-slot (lease) the request executed on — the
	// Helper/Helpee value of any help event it participated in.
	Slot int `json:"slot"`
	// Op and Status are protocol op and response status names.
	Op     string `json:"op"`
	Status string `json:"status"`
	Key    uint64 `json:"key"`
	// StartNS is the UnixNano start of request execution; DurNS its
	// duration.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// LeaseWaitNS is the slot-lease wait this request paid: every native
	// frame and every RESP batch takes its own lease.
	LeaseWaitNS int64 `json:"lease_wait_ns"`
	// Quarantined reports that the slot passed through audit quarantine
	// immediately before this lease — the request ran on a slot that a
	// helper had transiently pinned across the previous release.
	Quarantined bool `json:"quarantined"`
	// HelpsReceived counts DeRef calls within this request that adopted
	// a helper's answer (paper line D7) — nonzero means another slot's
	// goroutine did part of this request's work.
	HelpsReceived uint32 `json:"helps_received"`
}

// packSpan packs a span's small fields into one ring word:
// slot<<48 | helps<<16 | op<<8 | status<<1 | quarantined.
func packSpan(slot int, helps uint32, op, status uint8, quar bool) uint64 {
	var q uint64
	if quar {
		q = 1
	}
	if helps > 0xffff {
		helps = 0xffff
	}
	return uint64(uint16(slot))<<48 | uint64(uint16(helps))<<16 |
		uint64(op)<<8 | uint64(status&0x7f)<<1 | q
}

// lane is one slot's staging area for its in-flight span.
type lane struct {
	// Owned by the slot's current lessee between Start and Finish.
	id      uint64
	op      uint8
	key     uint64
	startNS int64
	waitNS  int64
	quar    bool

	// Cross-goroutine annotation mailboxes, consumed by the next Start.
	pendWait atomic.Int64
	pendQuar atomic.Uint32
	// active mirrors id atomically for cross-goroutine reads.
	active atomic.Uint64
}

// SpanTracer is the request-span layer: per-slot lanes plus the flight
// recorder, the span codec over the shared event ring (Cap and Total
// count completed spans).  Construct with NewSpanTracer; the zero value
// is not usable.
type SpanTracer struct {
	ring
	opNames     []string // indexed by op code
	statusNames []string // indexed by status code
	lanes       []lane
	seq         atomic.Uint64
	// now is the time source, swappable for deterministic tests.
	now func() int64
}

// NewSpanTracer returns a tracer for slots thread slots whose flight
// recorder holds the most recent size completed spans (rounded up to a
// power of two, minimum 16).  opNames and statusNames are indexed by
// the op/status codes passed to Start and Finish; out-of-range codes
// render as "op<N>"/"status<N>".
func NewSpanTracer(slots, size int, opNames, statusNames []string) *SpanTracer {
	t := &SpanTracer{
		opNames:     opNames,
		statusNames: statusNames,
		lanes:       make([]lane, slots),
		now:         func() int64 { return time.Now().UnixNano() },
	}
	t.init(size)
	return t
}

// Slots returns the number of lanes (thread slots) the tracer covers.
func (t *SpanTracer) Slots() int { return len(t.lanes) }

// Start opens a span for a request executing on slot and returns its
// ID, folding in any pending lease-wait/quarantine annotations from the
// slot pool.  Zero allocations, constant steps.  Callers install the
// returned ID as the slot's thread tag (core.Scheme.SetThreadTag) so
// help events record it.  The third argument is ignored: it named a
// store shard, and the signature is kept for benchmark/; goes with the
// next benchmark PR.
func (t *SpanTracer) Start(slot int, op uint8, _ int, key uint64) uint64 {
	if slot < 0 || slot >= len(t.lanes) {
		return 0
	}
	ln := &t.lanes[slot]
	id := t.seq.Add(1)
	ln.id = id
	ln.op = op
	ln.key = key
	ln.waitNS = ln.pendWait.Swap(0)
	ln.quar = ln.pendQuar.Swap(0) != 0
	ln.startNS = t.now()
	ln.active.Store(id)
	return id
}

// Finish closes slot's in-flight span with the response status and the
// number of helped dereferences the request adopted, and publishes it
// to the flight recorder.  Zero allocations, constant steps.  A Finish
// without a matching Start is a no-op.
func (t *SpanTracer) Finish(slot int, status uint8, helps uint32) {
	if slot < 0 || slot >= len(t.lanes) {
		return
	}
	ln := &t.lanes[slot]
	if ln.id == 0 {
		return
	}
	dur := t.now() - ln.startNS
	t.put([ringWords]uint64{
		ln.id,
		ln.key,
		uint64(ln.startNS),
		uint64(dur),
		uint64(ln.waitNS),
		packSpan(slot, helps, ln.op, status, ln.quar),
	})
	ln.active.Store(0)
	ln.id = 0
}

// ActiveSpan returns the ID of slot's in-flight span, or 0.
func (t *SpanTracer) ActiveSpan(slot int) uint64 {
	if slot < 0 || slot >= len(t.lanes) {
		return 0
	}
	return t.lanes[slot].active.Load()
}

// LeaseGranted records the wait a fresh lease of slot paid; the next
// span started on the slot carries it as its lease-wait phase.  It
// implements the slotpool Annotator hook (structurally — neither
// package imports the other).
func (t *SpanTracer) LeaseGranted(slot int, wait time.Duration) {
	if slot >= 0 && slot < len(t.lanes) {
		t.lanes[slot].pendWait.Store(int64(wait))
	}
}

// SlotQuarantined records that slot went through audit quarantine; the
// next span started on it is flagged.  Slotpool Annotator hook.
func (t *SpanTracer) SlotQuarantined(slot int) {
	if slot >= 0 && slot < len(t.lanes) {
		t.lanes[slot].pendQuar.Store(1)
	}
}

func (t *SpanTracer) opName(op uint8) string {
	if int(op) < len(t.opNames) && t.opNames[op] != "" {
		return t.opNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

func (t *SpanTracer) statusName(st uint8) string {
	if int(st) < len(t.statusNames) && t.statusNames[st] != "" {
		return t.statusNames[st]
	}
	return fmt.Sprintf("status%d", st)
}

// Snapshot returns the flight recorder's currently readable spans,
// oldest first.
func (t *SpanTracer) Snapshot() []Span {
	out := make([]Span, 0, t.Cap())
	t.read(func(_ uint64, w *[ringWords]uint64) {
		packed := w[5]
		out = append(out, Span{
			ID:            w[0],
			Key:           w[1],
			StartNS:       int64(w[2]),
			DurNS:         int64(w[3]),
			LeaseWaitNS:   int64(w[4]),
			Slot:          int(uint16(packed >> 48)),
			HelpsReceived: uint32(uint16(packed >> 16)),
			Op:            t.opName(uint8(packed >> 8)),
			Status:        t.statusName(uint8(packed>>1) & 0x7f),
			Quarantined:   packed&1 != 0,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FlightDumpSchema identifies the flight-recorder dump layout.
const FlightDumpSchema = "wfrc-flight-v1"

// FlightDump is the flight-recorder dump document: the span ring's
// current window joined with the help-event ring's, so one file answers
// both "what ran recently" and "who helped whom during it".
type FlightDump struct {
	Schema     string      `json:"schema"`
	TotalSpans uint64      `json:"total_spans"`
	Spans      []Span      `json:"spans"`
	TotalHelps uint64      `json:"total_helps"`
	HelpEvents []HelpEvent `json:"help_events"`
}

// BuildFlightDump snapshots the tracer (and, when non-nil, the help
// ring) into a dump document.
func BuildFlightDump(t *SpanTracer, ring *TraceRing) FlightDump {
	d := FlightDump{Schema: FlightDumpSchema, Spans: []Span{}, HelpEvents: []HelpEvent{}}
	if t != nil {
		d.TotalSpans = t.Total()
		d.Spans = t.Snapshot()
	}
	if ring != nil {
		d.TotalHelps = ring.Total()
		d.HelpEvents = ring.Snapshot()
	}
	return d
}

// WriteFlightDump writes the dump as indented JSON.
func WriteFlightDump(w io.Writer, t *SpanTracer, ring *TraceRing) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildFlightDump(t, ring))
}

// JoinedHelps returns the help events whose helpee span ID joins a span
// present in the dump — the observable form of "request S was helped by
// slot H" that the span↔trace design exists to produce.
func (d *FlightDump) JoinedHelps() []HelpEvent {
	ids := make(map[uint64]bool, len(d.Spans))
	for _, sp := range d.Spans {
		ids[sp.ID] = true
	}
	var out []HelpEvent
	for _, ev := range d.HelpEvents {
		if ev.HelpeeSpan != 0 && ids[ev.HelpeeSpan] {
			out = append(out, ev)
		}
	}
	return out
}

// ValidateFlightDump parses and schema-checks a flight-recorder dump.
func ValidateFlightDump(data []byte) (*FlightDump, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("flight dump: not an object: %w", err)
	}
	for _, key := range []string{"schema", "total_spans", "spans", "total_helps", "help_events"} {
		if _, ok := raw[key]; !ok {
			return nil, fmt.Errorf("flight dump: missing top-level key %q", key)
		}
	}
	var schema string
	if err := json.Unmarshal(raw["schema"], &schema); err != nil || schema != FlightDumpSchema {
		return nil, fmt.Errorf("flight dump: schema %q, want %q", schema, FlightDumpSchema)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("flight dump: %w", err)
	}
	for i, sp := range d.Spans {
		if sp.ID == 0 {
			return nil, fmt.Errorf("flight dump: spans[%d] has zero id", i)
		}
		if sp.Op == "" || sp.Status == "" {
			return nil, fmt.Errorf("flight dump: spans[%d] missing op/status", i)
		}
		if sp.DurNS < 0 {
			return nil, fmt.Errorf("flight dump: spans[%d] negative duration", i)
		}
	}
	return &d, nil
}
