package obs

import "sync/atomic"

// ringWords is the payload width of one ring cell: enough for a span
// (six words), and a help event uses five.
const ringWords = 6

// ringCell is one ring cell.  Every field is an individual atomic (not
// a struct behind a lock): the writer zeroes seq, stores the payload and
// publishes seq last, and the reader re-checks seq after reading the
// payload, discarding any cell it raced with.  This keeps put wait-free
// and the whole structure clean under the race detector.
type ringCell struct {
	seq atomic.Uint64 // claimed index + 1; 0 = never written / being written
	w   [ringWords]atomic.Uint64
}

// ring is the one seqlock event ring: a fixed power-of-two array of
// cells that writers claim with one fetch-and-add, overwriting the
// oldest event when full.  put is therefore a constant number of the
// writer's own steps, which preserves a helper's Lemma 3 step
// accounting.  TraceRing (help events) and SpanTracer's flight recorder
// (completed spans) are the two payload codecs over it.
type ring struct {
	mask   uint64
	cells  []ringCell
	cursor atomic.Uint64
}

// init sizes r to hold the most recent size events, rounded up to a
// power of two (minimum 16).
func (r *ring) init(size int) {
	n := 16
	for n < size {
		n <<= 1
	}
	r.mask = uint64(n - 1)
	r.cells = make([]ringCell, n)
}

// Cap returns the ring capacity in events.
func (r *ring) Cap() int { return len(r.cells) }

// Total returns how many events have ever been recorded (including
// those already overwritten).
func (r *ring) Total() uint64 { return r.cursor.Load() }

// put records one event.  Wait-free: one FAA plus a constant number of
// atomic stores.
func (r *ring) put(w [ringWords]uint64) {
	idx := r.cursor.Add(1) - 1
	c := &r.cells[idx&r.mask]
	c.seq.Store(0) // invalidate for readers while the payload changes
	for i := range w {
		c.w[i].Store(w[i])
	}
	c.seq.Store(idx + 1) // publish
}

// read calls f with the claim index and payload of every readable
// cell, in cell order.  Cells being overwritten during the scan are
// skipped, so a read during a run is a consistent sample rather than an
// exact window.  The one mix the check cannot see is a writer lapped
// inside its own put (a whole ring of events claimed while it was
// descheduled between two stores): its remaining stores land under the
// lapping writer's seq until it publishes its own.
func (r *ring) read(f func(idx uint64, w *[ringWords]uint64)) {
	for i := range r.cells {
		c := &r.cells[i]
		seq := c.seq.Load()
		if seq == 0 {
			continue
		}
		var w [ringWords]uint64
		for j := range w {
			w[j] = c.w[j].Load()
		}
		if c.seq.Load() != seq { // raced with a writer; discard
			continue
		}
		f(seq-1, &w)
	}
}
