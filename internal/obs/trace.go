package obs

import (
	"sort"
	"time"

	"wfrc/internal/core"
)

// HelpEvent is one recorded helping interaction: at TimeNS (UnixNano),
// thread Helper answered thread Helpee's pending dereference
// announcement for Link at announcement slot Slot (the paper's H6
// answer CAS).  Seq is the event's global sequence number; gaps in a
// snapshot mean the ring wrapped over older events.
type HelpEvent struct {
	Seq    uint64 `json:"seq"`
	TimeNS int64  `json:"time_ns"`
	Helper int    `json:"helper"`
	Helpee int    `json:"helpee"`
	Slot   int    `json:"slot"`
	Link   uint64 `json:"link"`
	// HelperSpan and HelpeeSpan are the request-span IDs active on the
	// helper's and helpee's thread slots when the help happened (0 when
	// no span was in flight — e.g. bench runs without the KV stack).
	// They join against Span.ID in /spans and flight-recorder dumps.
	HelperSpan uint64 `json:"helper_span"`
	HelpeeSpan uint64 `json:"helpee_span"`
}

// TraceRing is the help-event codec over the shared event ring: a
// fixed-size, wait-free record of the most recent help events for
// post-mortem analysis of helping storms (who helped whom, how often,
// at which announcement slots).  Use it with
// core.(*Scheme).SetHelpTracer via CoreTracer.
type TraceRing struct{ ring }

// NewTraceRing returns a ring holding the most recent size events,
// rounded up to a power of two (minimum 16).
func NewTraceRing(size int) *TraceRing {
	r := &TraceRing{}
	r.init(size)
	return r
}

// Record stores ev (its Seq is assigned here).  Wait-free, zero-alloc.
func (r *TraceRing) Record(ev HelpEvent) {
	r.put([ringWords]uint64{
		uint64(ev.TimeNS),
		uint64(uint32(ev.Helper))<<32 | uint64(uint16(ev.Helpee))<<16 | uint64(uint16(ev.Slot)),
		ev.Link,
		ev.HelperSpan,
		ev.HelpeeSpan,
	})
}

// Snapshot returns the currently readable events, oldest first.
func (r *TraceRing) Snapshot() []HelpEvent {
	out := make([]HelpEvent, 0, r.Cap())
	r.read(func(seq uint64, w *[ringWords]uint64) {
		out = append(out, HelpEvent{
			Seq:        seq,
			TimeNS:     int64(w[0]),
			Helper:     int(uint32(w[1] >> 32)),
			Helpee:     int(uint16(w[1] >> 16)),
			Slot:       int(uint16(w[1])),
			Link:       w[2],
			HelperSpan: w[3],
			HelpeeSpan: w[4],
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// CoreTracer adapts the ring to core.(*Scheme).SetHelpTracer, stamping
// each help event with the wall-clock time of the answer CAS:
//
//	ring := obs.NewTraceRing(4096)
//	coreScheme.SetHelpTracer(ring.CoreTracer())
func (r *TraceRing) CoreTracer() func(core.HelpEvent) {
	return func(ev core.HelpEvent) {
		r.Record(HelpEvent{
			TimeNS:     time.Now().UnixNano(),
			Helper:     ev.Helper,
			Helpee:     ev.Helpee,
			Slot:       ev.Slot,
			Link:       uint64(ev.Link),
			HelperSpan: ev.HelperTag,
			HelpeeSpan: ev.HelpeeTag,
		})
	}
}
