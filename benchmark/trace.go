package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Spans are recorded by the benchmark's own code, around each call into
// a layer; spans inside the program are a later issue.  They stay in
// memory during the window and are written when the run ends.

// Span names.  In-process workloads record the structure op; KV clients
// record one request span with four children.
const (
	spPQInsert = iota
	spPQDeleteMin
	spMapGet
	spMapInsert
	spMapDelete
	spRequest
	spEncode
	spWrite
	spWait
	spDecode
	spCount
)

var spanNames = [spCount]string{
	"ds.pqueue.insert", "ds.pqueue.deletemin",
	"ds.hashmap.get", "ds.hashmap.insert", "ds.hashmap.delete",
	"client.request", "client.encode", "client.write_flush", "client.wait_read", "client.decode",
}

type span struct {
	name       uint8
	parent     uint32 // 1-based index of the parent span in the same lane, 0 = root
	request    uint32
	start, end int64 // ns since clockBase
}

// spanLane is one worker's span buffer.  It never grows: once the
// preallocated capacity is used the remaining spans only feed the
// per-name totals, so tracing cost stays flat and the file stays small.
type spanLane struct {
	spans []span
	sumNS [spCount]int64
	count [spCount]uint64
	_     [8]uint64 // lanes are written by different workers
}

type tracer struct {
	lanes []spanLane
}

// spansPerLane bounds the spans kept per worker.
const spansPerLane = 1 << 16

func newTracer(workers int) *tracer {
	t := &tracer{lanes: make([]spanLane, workers)}
	for i := range t.lanes {
		t.lanes[i].spans = make([]span, 0, spansPerLane)
	}
	return t
}

// record adds one finished span to lane and returns its 1-based index
// (0 once the lane is full), which children use as their parent.
func (l *spanLane) record(name uint8, parent, request uint32, start, end int64) uint32 {
	l.sumNS[name] += end - start
	l.count[name]++
	if len(l.spans) == cap(l.spans) {
		return 0
	}
	l.spans = append(l.spans, span{name: name, parent: parent, request: request, start: start, end: end})
	return uint32(len(l.spans))
}

// meanNS is the mean duration of the named span over the whole traced
// window (all workers, including spans past the kept prefix).
func (t *tracer) meanNS(name int) (mean float64, n uint64) {
	var sum int64
	for i := range t.lanes {
		sum += t.lanes[i].sumNS[name]
		n += t.lanes[i].count[name]
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / float64(n), n
}

type spanJSON struct {
	ID        uint32 `json:"id"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	Parent    uint32 `json:"parent"`
	RequestID uint32 `json:"request_id"`
	Worker    int    `json:"worker"`
}

// write dumps the kept spans to <dir>/<workload>.trace.json.  Span IDs
// are made unique across lanes by offsetting each lane.
func (t *tracer) write(dir, workload string, host hostInfo, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"host\":%s,\"spans\":[\n", workload, seed, hostJSON)
	first := true
	var offset uint32
	for li := range t.lanes {
		for i, s := range t.lanes[li].spans {
			sj := spanJSON{
				ID: offset + uint32(i) + 1, Name: spanNames[s.name],
				StartNS: s.start, EndNS: s.end, RequestID: s.request, Worker: li,
			}
			if s.parent != 0 {
				sj.Parent = offset + s.parent
			}
			b, _ := json.Marshal(sj)
			if !first {
				w.WriteString(",\n")
			}
			first = false
			w.Write(b)
		}
		offset += uint32(len(t.lanes[li].spans))
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
