package obs

import (
	"sync"
	"testing"
)

// TestRingConcurrentPayloads runs both payloads of the shared event ring
// at once: help-event writers on a TraceRing and span writers on a
// SpanTracer, beside a goroutine snapshotting both.  Every writer
// encodes its identity redundantly across the cell's words, so a torn
// cell (payload words from two writers) shows up as an event that
// disagrees with itself; under -race the seq protocol must also stay
// clean.
func TestRingConcurrentPayloads(t *testing.T) {
	const writers, perWriter = 4, 500
	helps := NewTraceRing(32)
	spans := NewSpanTracer(writers, 32, testOpNames, testStatusNames)

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range helps.Snapshot() {
				if ev.Helper < 0 || ev.Helper >= writers || ev.Helpee != ev.Helper || ev.Slot != ev.Helper ||
					ev.HelperSpan != ev.Link || ev.HelpeeSpan != ev.Link || ev.TimeNS != int64(ev.Link) {
					t.Errorf("torn help event: %+v", ev)
					return
				}
			}
			for _, sp := range spans.Snapshot() {
				if sp.Slot < 0 || sp.Slot >= writers || int(sp.HelpsReceived) != sp.Slot ||
					sp.Key>>32 != uint64(sp.Slot) || sp.Op != "get" || sp.Status != "ok" {
					t.Errorf("torn span: %+v", sp)
					return
				}
			}
		}
	}()

	var writerWG sync.WaitGroup
	writerWG.Add(2 * writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				n := uint64(w)<<32 | uint64(i)
				helps.Record(HelpEvent{TimeNS: int64(n), Helper: w, Helpee: w, Slot: w, Link: n, HelperSpan: n, HelpeeSpan: n})
			}
		}(w)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				spans.Start(w, 1, w, uint64(w)<<32|uint64(i))
				spans.Finish(w, 0, uint32(w))
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if helps.Total() != writers*perWriter || spans.Total() != writers*perWriter {
		t.Errorf("totals = %d help events, %d spans; want %d each", helps.Total(), spans.Total(), writers*perWriter)
	}
	if len(helps.Snapshot()) != helps.Cap() || len(spans.Snapshot()) != spans.Cap() {
		t.Errorf("a quiescent full ring must read back every cell")
	}
}
