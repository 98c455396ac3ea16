package obs

import "sync/atomic"

// ringWords is the payload width of one ring cell: enough for a span
// (six words), and a help event uses five.
const ringWords = 6

// ringCell is one ring cell.  Every field is an individual atomic (not
// a struct behind a lock): the writer claims the cell by a CAS of seq to
// an odd value, stores the payload and publishes the even value last,
// and the reader re-checks seq after reading the payload, discarding
// any cell it raced with.  This keeps put wait-free and the whole
// structure clean under the race detector.
type ringCell struct {
	seq atomic.Uint64 // 2·(claimed index + 1), +1 while being written; 0 = never written
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

// Total returns how many events have ever been claimed (including
// those already overwritten, and those a lapped writer dropped).
func (r *ring) Total() uint64 { return r.cursor.Load() }

// put records one event.  Wait-free: one FAA, one CAS and a constant
// number of atomic stores.  The CAS gives the cell one writer at a
// time: a writer that finds it being written, already holding a newer
// claim, or changed under the CAS drops its event rather than mix its
// payload with another writer's.  A writer lapped by a whole ring of
// claims therefore loses its event instead of tearing the lapper's.
func (r *ring) put(w [ringWords]uint64) {
	idx := r.cursor.Add(1) - 1
	c := &r.cells[idx&r.mask]
	seq := 2 * (idx + 1)
	old := c.seq.Load()
	if old&1 != 0 || old >= seq || !c.seq.CompareAndSwap(old, seq|1) {
		return
	}
	for i := range w {
		c.w[i].Store(w[i])
	}
	c.seq.Store(seq) // publish
}

// read calls f with the claim index and payload of every readable
// cell, in cell order.  Cells being written during the scan are
// skipped, so a read during a run is a consistent sample rather than an
// exact window.
func (r *ring) read(f func(idx uint64, w *[ringWords]uint64)) {
	for i := range r.cells {
		c := &r.cells[i]
		seq := c.seq.Load()
		if seq == 0 || seq&1 != 0 {
			continue
		}
		var w [ringWords]uint64
		for j := range w {
			w[j] = c.w[j].Load()
		}
		if c.seq.Load() != seq { // raced with a writer; discard
			continue
		}
		f(seq/2-1, &w)
	}
}
