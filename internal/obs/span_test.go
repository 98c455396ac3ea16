package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wfrc/internal/arena"
	"wfrc/internal/core"
)

// testNow installs a deterministic time source: every call advances by
// step, starting at start.
func testNow(t *SpanTracer, start, step int64) {
	tick := start
	t.now = func() int64 {
		v := tick
		tick += step
		return v
	}
}

var testOpNames = []string{"", "get", "set", "del", "cas", "stats"}
var testStatusNames = []string{"ok", "not_found", "cas_fail", "busy", "err"}

func TestSpanTracerBasics(t *testing.T) {
	tr := NewSpanTracer(2, 16, testOpNames, testStatusNames)
	testNow(tr, 1000, 50)

	tr.LeaseGranted(0, 1500*time.Nanosecond)
	id := tr.Start(0, 1, 0, 42)
	if id == 0 {
		t.Fatal("Start returned zero id")
	}
	if got := tr.ActiveSpan(0); got != id {
		t.Fatalf("ActiveSpan = %d, want %d", got, id)
	}
	tr.Finish(0, 0, 0)
	if got := tr.ActiveSpan(0); got != 0 {
		t.Fatalf("ActiveSpan after Finish = %d, want 0", got)
	}

	tr.SlotQuarantined(1)
	id2 := tr.Start(1, 2, 3, 7)
	tr.Finish(1, 1, 2)

	spans := tr.Snapshot()
	if len(spans) != 2 || tr.Total() != 2 {
		t.Fatalf("snapshot has %d spans (total %d), want 2", len(spans), tr.Total())
	}
	s0, s1 := spans[0], spans[1]
	if s0.ID != id || s0.Slot != 0 || s0.Op != "get" || s0.Status != "ok" ||
		s0.Key != 42 || s0.StartNS != 1000 || s0.DurNS != 50 ||
		s0.LeaseWaitNS != 1500 || s0.Quarantined || s0.HelpsReceived != 0 {
		t.Errorf("span 0 = %+v", s0)
	}
	if s1.ID != id2 || s1.Slot != 1 || s1.Op != "set" || s1.Status != "not_found" ||
		s1.Key != 7 || !s1.Quarantined || s1.HelpsReceived != 2 {
		t.Errorf("span 1 = %+v", s1)
	}
	// The lease-wait mailbox is one-shot: the next span on slot 0 does
	// not inherit it.
	tr.Start(0, 1, 0, 1)
	tr.Finish(0, 0, 0)
	spans = tr.Snapshot()
	if last := spans[len(spans)-1]; last.LeaseWaitNS != 0 || last.Quarantined {
		t.Errorf("annotations leaked into next span: %+v", last)
	}
}

func TestSpanTracerFinishWithoutStart(t *testing.T) {
	tr := NewSpanTracer(1, 16, nil, nil)
	tr.Finish(0, 0, 0) // no-op
	tr.Finish(7, 0, 0) // out of range: no-op
	tr.Start(-1, 1, 0, 0)
	if tr.Total() != 0 || len(tr.Snapshot()) != 0 {
		t.Fatalf("unmatched Finish recorded a span: total=%d", tr.Total())
	}
	if tr.opName(200) != "op200" || tr.statusName(9) != "status9" {
		t.Errorf("out-of-range names: %q %q", tr.opName(200), tr.statusName(9))
	}
}

func TestSpanRingWrap(t *testing.T) {
	tr := NewSpanTracer(1, 16, testOpNames, testStatusNames)
	testNow(tr, 0, 1)
	for i := 0; i < 40; i++ {
		tr.Start(0, 1, 0, uint64(i))
		tr.Finish(0, 0, 0)
	}
	spans := tr.Snapshot()
	if tr.Total() != 40 {
		t.Fatalf("total = %d, want 40", tr.Total())
	}
	if len(spans) != tr.Cap() {
		t.Fatalf("snapshot has %d spans, want capacity %d", len(spans), tr.Cap())
	}
	// The window is the most recent spans, sorted by ID.
	for i, sp := range spans {
		want := uint64(40 - tr.Cap() + i + 1)
		if sp.ID != want {
			t.Fatalf("spans[%d].ID = %d, want %d", i, sp.ID, want)
		}
	}
}

// TestSpansEndpointGolden pins the /spans JSON wire format.
func TestSpansEndpointGolden(t *testing.T) {
	tr := NewSpanTracer(2, 16, testOpNames, testStatusNames)
	testNow(tr, 1000, 50)
	tr.LeaseGranted(0, 1500*time.Nanosecond)
	tr.Start(0, 1, 0, 42)
	tr.Finish(0, 0, 0)
	tr.SlotQuarantined(1)
	tr.Start(1, 2, 3, 7)
	tr.Finish(1, 1, 2)

	srv, err := Serve("127.0.0.1:0", NewCollector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetSpans(tr)

	resp, err := http.Get("http://" + srv.Addr() + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "total": 2,
  "spans": [
    {
      "id": 1,
      "slot": 0,
      "op": "get",
      "status": "ok",
      "key": 42,
      "start_ns": 1000,
      "dur_ns": 50,
      "lease_wait_ns": 1500,
      "quarantined": false,
      "helps_received": 0
    },
    {
      "id": 2,
      "slot": 1,
      "op": "set",
      "status": "not_found",
      "key": 7,
      "start_ns": 1100,
      "dur_ns": 50,
      "lease_wait_ns": 0,
      "quarantined": true,
      "helps_received": 2
    }
  ]
}
`
	if string(body) != golden {
		t.Errorf("/spans body:\n%s\nwant:\n%s", body, golden)
	}
}

// TestFlightDumpGolden pins the flight-recorder dump format and the
// span↔help join it carries.
func TestFlightDumpGolden(t *testing.T) {
	tr := NewSpanTracer(2, 16, testOpNames, testStatusNames)
	testNow(tr, 1000, 50)
	tr.Start(0, 1, 0, 42)
	tr.Finish(0, 0, 1)
	tr.Start(1, 2, 0, 43)
	tr.Finish(1, 0, 0)

	ring := NewTraceRing(16)
	ring.Record(HelpEvent{
		TimeNS: 1111, Helper: 1, Helpee: 0, Slot: 3, Link: 9,
		HelperSpan: 2, HelpeeSpan: 1,
	})

	var buf bytes.Buffer
	if err := WriteFlightDump(&buf, tr, ring); err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "schema": "wfrc-flight-v1",
  "total_spans": 2,
  "spans": [
    {
      "id": 1,
      "slot": 0,
      "op": "get",
      "status": "ok",
      "key": 42,
      "start_ns": 1000,
      "dur_ns": 50,
      "lease_wait_ns": 0,
      "quarantined": false,
      "helps_received": 1
    },
    {
      "id": 2,
      "slot": 1,
      "op": "set",
      "status": "ok",
      "key": 43,
      "start_ns": 1100,
      "dur_ns": 50,
      "lease_wait_ns": 0,
      "quarantined": false,
      "helps_received": 0
    }
  ],
  "total_helps": 1,
  "help_events": [
    {
      "seq": 0,
      "time_ns": 1111,
      "helper": 1,
      "helpee": 0,
      "slot": 3,
      "link": 9,
      "helper_span": 2,
      "helpee_span": 1
    }
  ]
}
`
	if buf.String() != golden {
		t.Errorf("flight dump:\n%s\nwant:\n%s", buf.String(), golden)
	}

	d, err := ValidateFlightDump(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	joined := d.JoinedHelps()
	if len(joined) != 1 || joined[0].HelpeeSpan != 1 || joined[0].Helper != 1 {
		t.Fatalf("JoinedHelps = %+v, want one event joining span 1", joined)
	}
}

func TestValidateFlightDumpRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"not json", "nope", "not an object"},
		{"missing key", `{"schema":"wfrc-flight-v1","spans":[],"total_helps":0,"help_events":[]}`,
			`missing top-level key "total_spans"`},
		{"wrong schema", `{"schema":"v9","total_spans":0,"spans":[],"total_helps":0,"help_events":[]}`,
			`schema "v9"`},
		{"zero span id", `{"schema":"wfrc-flight-v1","total_spans":1,"spans":[{"id":0,"op":"get","status":"ok"}],"total_helps":0,"help_events":[]}`,
			"zero id"},
		{"missing op", `{"schema":"wfrc-flight-v1","total_spans":1,"spans":[{"id":1,"status":"ok"}],"total_helps":0,"help_events":[]}`,
			"missing op/status"},
		{"negative duration", `{"schema":"wfrc-flight-v1","total_spans":1,"spans":[{"id":1,"op":"get","status":"ok","dur_ns":-5}],"total_helps":0,"help_events":[]}`,
			"negative duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateFlightDump([]byte(tc.doc))
			if err == nil {
				t.Fatal("validation unexpectedly passed")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSpanHelpJoin drives the tentpole end to end on a real core scheme:
// a request span is opened for thread A and its ID installed as A's
// thread tag; A's dereference is stalled between D4 and D5 so B's
// CASLink must help it (H6); the recorded help event must carry both
// parties' span IDs, and the flight dump's join must connect the help
// back to A's request span — the "my SET was slow because slot B helped
// slot A" query.
func TestSpanHelpJoin(t *testing.T) {
	ar := arena.MustNew(arena.Config{Nodes: 8, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 1})
	s := core.MustNew(ar, core.Config{Threads: 2})
	ring := NewTraceRing(16)
	s.SetHelpTracer(ring.CoreTracer())
	defer s.SetHelpTracer(nil)
	tr := NewSpanTracer(2, 16, testOpNames, testStatusNames)

	tA, err := s.RegisterCore()
	if err != nil {
		t.Fatal(err)
	}
	tB, err := s.RegisterCore()
	if err != nil {
		t.Fatal(err)
	}
	root := ar.NewRoot()
	x, err := tB.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	y, err := tB.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	tB.StoreLink(root, arena.MakePtr(x, false))
	tB.Release(x)

	// Open a span per thread, exactly as the server's observeRequest
	// does, and install the IDs as thread tags.
	helpeeSpan := tr.Start(tA.ID(), 1, 0, 42) // A: a GET about to be helped
	s.SetThreadTag(tA.ID(), helpeeSpan)
	helperSpan := tr.Start(tB.ID(), 2, 0, 42) // B: the SET that will help
	s.SetThreadTag(tB.ID(), helperSpan)

	atD4 := make(chan struct{})
	goOn := make(chan struct{})
	fired := false
	tA.SetHook(func(p core.Point) {
		if p == core.PD4 && !fired {
			fired = true
			close(atD4)
			<-goOn
		}
	})

	got := make(chan arena.Ptr)
	go func() { got <- tA.DeRefLink(root) }()
	<-atD4
	if !tB.CASLink(root, arena.MakePtr(x, false), arena.MakePtr(y, false)) {
		t.Fatal("B's CASLink failed")
	}
	close(goOn)
	p := <-got
	if p.Handle() != y {
		t.Fatalf("A's DeRef returned %v, want helped answer %d", p, y)
	}

	s.SetThreadTag(tA.ID(), 0)
	s.SetThreadTag(tB.ID(), 0)
	tr.Finish(tA.ID(), 0, uint32(tA.Stats().HelpsReceived))
	tr.Finish(tB.ID(), 0, 0)

	events := ring.Snapshot()
	if len(events) != 1 {
		t.Fatalf("ring recorded %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.HelpeeSpan != helpeeSpan || ev.HelperSpan != helperSpan {
		t.Fatalf("help event spans = helper %d / helpee %d, want %d / %d",
			ev.HelperSpan, ev.HelpeeSpan, helperSpan, helpeeSpan)
	}
	if ev.Helper != tB.ID() || ev.Helpee != tA.ID() {
		t.Errorf("help event threads = %+v", ev)
	}

	// The dump-level join the CI gate and README example rely on.
	d := BuildFlightDump(tr, ring)
	joined := d.JoinedHelps()
	if len(joined) != 1 || joined[0].HelpeeSpan != helpeeSpan {
		t.Fatalf("JoinedHelps = %+v, want the helped GET's span %d", joined, helpeeSpan)
	}
	var helped *Span
	for i := range d.Spans {
		if d.Spans[i].ID == helpeeSpan {
			helped = &d.Spans[i]
		}
	}
	if helped == nil || helped.HelpsReceived != 1 {
		t.Fatalf("helped span = %+v, want helps_received 1", helped)
	}

	tA.Release(p.Handle())
	tB.Release(y)
	tA.Unregister()
	tB.Unregister()
}

// TestSpanTracerConcurrency hammers the hot path (one goroutine per
// slot, as the slot-lease discipline guarantees) against concurrent
// snapshots and flight dumps.  Run with -race: the ring's seq protocol
// must keep readers and writers apart without locks.
func TestSpanTracerConcurrency(t *testing.T) {
	const slots = 4
	tr := NewSpanTracer(slots, 64, testOpNames, testStatusNames)
	ring := NewTraceRing(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for slot := 0; slot < slots; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.LeaseGranted(slot, time.Duration(i))
				if slot == 0 && i%3 == 0 {
					tr.SlotQuarantined(slot)
				}
				id := tr.Start(slot, uint8(1+i%5), slot, uint64(i))
				ring.Record(HelpEvent{Helper: slot, HelpeeSpan: id})
				tr.Finish(slot, uint8(i%5), uint32(i%7))
			}
		}(slot)
	}
	for i := 0; i < 50; i++ {
		spans := tr.Snapshot()
		seen := make(map[uint64]bool, len(spans))
		for _, sp := range spans {
			if sp.ID == 0 || seen[sp.ID] {
				t.Errorf("snapshot span id %d zero or duplicated", sp.ID)
			}
			seen[sp.ID] = true
		}
		var buf bytes.Buffer
		if err := WriteFlightDump(&buf, tr, ring); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateFlightDump(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
