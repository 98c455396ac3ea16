package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a, b := streamHash(w, 7, 2, 4096), streamHash(w, 7, 2, 4096)
		if a != b {
			t.Errorf("%s: same seed gave hashes %x and %x", w, a, b)
		}
		if c := streamHash(w, 8, 2, 4096); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %x", w, a)
		}
	}
}

// Every KV key and every map-read update key must stay inside its
// worker's residue class and inside the key space, for any W.
func TestOwnKey(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		for w := 0; w < workers; w++ {
			for _, wl := range []string{wlMapRead, wlKVGetRTT, wlKVResp} {
				s := newStream(wl, 3, w, workers)
				space := uint64(kvKeys)
				if wl == wlMapRead {
					space = mapKeySpace
				}
				for i := 0; i < 20000; i++ {
					o := s.next()
					if o.key >= space {
						t.Fatalf("%s W=%d w=%d: key %d outside %d", wl, workers, w, o.key, space)
					}
					if (wl != wlMapRead || o.kind != opRead) && o.key%uint64(workers) != uint64(w) {
						t.Fatalf("%s W=%d w=%d: key %d not in the worker's class", wl, workers, w, o.key)
					}
				}
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	r := newRecorder(4)
	for _, ns := range []int64{30, 10, 20, 40, 50} {
		r.add(ns)
	}
	if r.dropped != 1 {
		t.Errorf("dropped = %d, want 1 (capacity 4)", r.dropped)
	}
	smp := &sampler{recs: []*recorder{r}, merged: make([]uint32, 4)}
	l := smp.collect()
	if got := l.quantileNS(0.5); math.Abs(got-25) > 1e-9 {
		t.Errorf("median of 10,20,30,40 = %v, want 25", got)
	}
	// A tied block is spread over [v-0.5, v+0.5): the quantile moves
	// inside the block with the rank instead of sticking to v.
	tied := latencies{sorted: []uint32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}}
	if lo, hi := tied.quantileNS(0.1), tied.quantileNS(0.9); !(6.5 < lo && lo < 7 && 7 < hi && hi < 7.5) {
		t.Errorf("tied block quantiles %v, %v do not interpolate inside [6.5, 7.5)", lo, hi)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		higher bool
		floor  float64
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, true, 0, verdictWithin},
		{"throughput fell 20%", []float64{80, 81, 79, 80, 80}, true, 0, verdictOutside},
		{"latency fell 20%", []float64{80, 81, 79, 80, 80}, false, 0, verdictWithin},
		{"latency rose 20%", []float64{120, 121, 119, 120, 120}, false, 0, verdictOutside},
		{"rose 20% but under the absolute floor", []float64{120, 121, 119, 120, 120}, false, 25, verdictWithin},
		{"noisy", []float64{60, 140, 100, 90, 120}, true, 0, verdictUnresolved},
		{"noisy but every run better", []float64{160, 240, 200, 190, 220}, true, 0, verdictWithin},
	} {
		if got, _ := verdict(base, c.b, c.higher, 0.10, c.floor); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := readBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !nameRE.MatchString(m.Name) {
			t.Errorf("end-to-end metric %d is %q [%s], want %q [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer metric %d is %q [%s], want %q [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// A short run of every workload, untraced and traced: the run must
// verify, and the result line must carry exactly the metrics of its
// kind, every end-to-end one non-zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{
				workload: w, seed: 5, trace: trace,
				seconds: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
				setups: 1, ladderOps: 2 * ladderChunk,
				outDir: "out", workers: workerCount(), log: io.Discard,
			}
			if testing.Verbose() {
				cfg.log = os.Stdout
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(back.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := back.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s missing or malformed: %+v", w, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.name, m.Value)
				}
			}
		}
	}
}
