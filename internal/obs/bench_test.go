package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sampleServerSection builds a plausible closed-loop server section
// with a populated server.memory.
func sampleServerSection() *BenchServer {
	srv := &BenchServer{
		Connections: 16, Slots: 4,
		Ops: 5000, ElapsedNS: int64(time.Second), OpsPerSec: 5000,
		LatencyP50NS: 40_000, LatencyP99NS: 900_000, LatencyP999NS: 1_500_000, LatencyMaxNS: 2_000_000,
		OpLatency: map[string]BenchOpLatency{
			"get": {Count: 3000, P50NS: 30_000, P99NS: 700_000, P999NS: 1_000_000, MaxNS: 1_500_000},
			"set": {Count: 2000, P50NS: 60_000, P99NS: 900_000, P999NS: 1_500_000, MaxNS: 2_000_000},
		},
		LeaseWaitP50NS: 1000, LeaseWaitP99NS: 64_000, LeaseWaitMeanNS: 2000,
		Protocol:    "native",
		Memory:      sampleMemCollector().Sample(),
		BusyRejects: 3,
	}
	return srv
}

// mutateJSON marshals a sample report, applies fn to the document and
// to its server section as generic maps, and re-marshals — used to
// build near-valid documents.
func mutateJSON(t *testing.T, fn func(doc, srv map[string]interface{})) []byte {
	t.Helper()
	data, err := json.Marshal(NewBenchReport(sampleServerSection()))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	fn(doc, doc["server"].(map[string]interface{}))
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rejectCase is one near-valid document and the text its rejection
// must mention.
type rejectCase struct {
	name     string
	mutate   func(doc, srv map[string]interface{})
	openLoop bool
	wantErr  string
}

func runRejectCases(t *testing.T, cases []rejectCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateBenchJSON(mutateJSON(t, tc.mutate), tc.openLoop)
			if err == nil {
				t.Fatal("validation unexpectedly passed")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	data, err := json.MarshalIndent(NewBenchReport(sampleServerSection()), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateBenchJSON(data, false)
	if err != nil {
		t.Fatalf("ValidateBenchJSON: %v", err)
	}
	if got.SchemaVersion != BenchSchemaVersion {
		t.Errorf("schema version = %d", got.SchemaVersion)
	}
	if got.Host.GoVersion == "" || got.Host.GOMAXPROCS == 0 {
		t.Errorf("host provenance missing: %+v", got.Host)
	}
	if _, err := time.Parse(time.RFC3339, got.GeneratedAt); err != nil {
		t.Errorf("generated_at: %v", err)
	}
	if got.Server == nil || got.Server.Ops != 5000 || got.Server.Protocol != "native" {
		t.Errorf("server section lost in round trip: %+v", got.Server)
	}
}

func TestValidateBenchJSONServerSection(t *testing.T) {
	data, err := json.Marshal(NewBenchReport(sampleServerSection()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateBenchJSON(data, false)
	if err != nil {
		t.Fatalf("server report rejected: %v", err)
	}
	if got.Server.Connections != 16 || got.Server.BusyRejects != 3 {
		t.Fatalf("server section lost in round trip: %+v", got.Server)
	}
	if got.Server.OpLatency["get"].Count != 3000 || got.Server.LatencyP999NS != 1_500_000 {
		t.Fatalf("latency fields lost in round trip: %+v", got.Server)
	}
	if got.Server.LeaseWaitMeanNS != 2000 {
		t.Errorf("lease wait mean = %v", got.Server.LeaseWaitMeanNS)
	}
}

func TestValidateBenchJSONRejects(t *testing.T) {
	t.Run("not json", func(t *testing.T) {
		if _, err := ValidateBenchJSON([]byte("nope"), false); err == nil {
			t.Error("non-JSON input validated")
		}
	})
	// The "v3" cases keep the names they had when the latency
	// trajectory was the schema's newest layer.
	runRejectCases(t, []rejectCase{
		{name: "missing top-level key", mutate: func(d, _ map[string]interface{}) { delete(d, "host") },
			wantErr: `missing key "host"`},
		{name: "wrong schema version", mutate: func(d, _ map[string]interface{}) { d["schema_version"] = 999 },
			wantErr: "schema_version 999"},
		{name: "retired schema version", mutate: func(d, _ map[string]interface{}) { d["schema_version"] = 5 },
			wantErr: "schema_version 5, want 6"},
		{name: "bad timestamp", mutate: func(d, _ map[string]interface{}) { d["generated_at"] = "yesterday" },
			wantErr: "not RFC 3339"},
		{name: "missing server section", mutate: func(d, _ map[string]interface{}) { delete(d, "server") },
			wantErr: `missing key "server"`},
		{name: "counter not number", mutate: func(_, srv map[string]interface{}) { srv["busy_rejects"] = "three" },
			wantErr: "busy_rejects"},
		{name: "server missing key", mutate: func(_, srv map[string]interface{}) { delete(srv, "audit_violations") },
			wantErr: `server: missing key "audit_violations"`},
		{name: "server missing lease_wait_mean_ns", mutate: func(_, srv map[string]interface{}) { delete(srv, "lease_wait_mean_ns") },
			wantErr: `server: missing key "lease_wait_mean_ns"`},
		{name: "v3 server missing op_latency", mutate: func(_, srv map[string]interface{}) { delete(srv, "op_latency") },
			wantErr: `missing key "op_latency"`},
		{name: "v3 server missing latency_p999_ns", mutate: func(_, srv map[string]interface{}) { delete(srv, "latency_p999_ns") },
			wantErr: `missing key "latency_p999_ns"`},
		{name: "v3 op_latency entry missing key", mutate: func(_, srv map[string]interface{}) {
			delete(srv["op_latency"].(map[string]interface{})["get"].(map[string]interface{}), "p999_ns")
		}, wantErr: `op_latency["get"]: missing key "p999_ns"`},
		{name: "v3 op_latency empty", mutate: func(_, srv map[string]interface{}) {
			srv["op_latency"] = map[string]interface{}{}
		}, wantErr: "op_latency is empty"},
	})
}

// TestValidateBenchJSONOpenLoop pins the gate wfrc-load relies on: the
// open_loop object is optional for a closed-loop run, mandatory for an
// open-loop one, and complete whenever present.
func TestValidateBenchJSONOpenLoop(t *testing.T) {
	srv := sampleServerSection()
	srv.Protocol = "resp"
	srv.OpenLoop = &BenchOpenLoop{
		TargetRate: 5000, AchievedRate: 4998, SLONS: 1_000_000,
		UnderSLOFraction: 0.997, LateSends: 12, MaxSchedLagNS: 2_500_000,
	}
	data, err := json.Marshal(NewBenchReport(srv))
	if err != nil {
		t.Fatal(err)
	}
	for _, openLoop := range []bool{true, false} {
		got, err := ValidateBenchJSON(data, openLoop)
		if err != nil {
			t.Fatalf("open-loop report rejected (openLoop=%v): %v", openLoop, err)
		}
		if got.Server.OpenLoop == nil || got.Server.OpenLoop.UnderSLOFraction != 0.997 {
			t.Fatalf("open_loop lost in round trip: %+v", got.Server.OpenLoop)
		}
		if got.Server.Protocol != "resp" {
			t.Fatalf("protocol lost: %q", got.Server.Protocol)
		}
	}

	// The same document without the object: fine for a closed-loop run,
	// rejected when the producer says the run was open-loop.
	closed, err := json.Marshal(NewBenchReport(sampleServerSection()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBenchJSON(closed, false); err != nil {
		t.Fatalf("closed-loop report rejected: %v", err)
	}
	if _, err := ValidateBenchJSON(closed, true); err == nil || !strings.Contains(err.Error(), `missing key "open_loop"`) {
		t.Fatalf("open-loop run without open_loop: err = %v", err)
	}

	// An open_loop object missing a required key is rejected either way.
	var doc map[string]interface{}
	json.Unmarshal(data, &doc)
	delete(doc["server"].(map[string]interface{})["open_loop"].(map[string]interface{}), "under_slo_fraction")
	truncated, _ := json.Marshal(doc)
	for _, openLoop := range []bool{true, false} {
		if _, err := ValidateBenchJSON(truncated, openLoop); err == nil ||
			!strings.Contains(err.Error(), "under_slo_fraction") {
			t.Fatalf("truncated open_loop (openLoop=%v): err = %v", openLoop, err)
		}
	}
}

func TestValidateBenchJSONServerMemory(t *testing.T) {
	data, err := json.Marshal(NewBenchReport(sampleServerSection()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateBenchJSON(data, false)
	if err != nil {
		t.Fatalf("ValidateBenchJSON: %v", err)
	}
	if got.Server.Memory == nil || got.Server.Memory.Schemes["alpha"].Retired != 3 {
		t.Fatalf("server.memory lost in round trip: %+v", got.Server.Memory)
	}
	if len(got.Server.Memory.Gauges) != 2 {
		t.Fatalf("memory gauges = %+v", got.Server.Memory.Gauges)
	}

	// The section is optional.
	without := mutateJSON(t, func(_, srv map[string]interface{}) { delete(srv, "memory") })
	if _, err := ValidateBenchJSON(without, false); err != nil {
		t.Fatalf("report without server.memory rejected: %v", err)
	}

	alpha := func(srv map[string]interface{}) map[string]interface{} {
		mem := srv["memory"].(map[string]interface{})
		return mem["schemes"].(map[string]interface{})["alpha"].(map[string]interface{})
	}
	runRejectCases(t, []rejectCase{
		{name: "memory missing schemes", mutate: func(_, srv map[string]interface{}) {
			delete(srv["memory"].(map[string]interface{}), "schemes")
		}, wantErr: `server.memory: missing key "schemes"`},
		{name: "scheme summary missing floating_hwm", mutate: func(_, srv map[string]interface{}) {
			delete(alpha(srv), "floating_hwm")
		}, wantErr: `missing key "floating_hwm"`},
		{name: "scheme summary missing lag", mutate: func(_, srv map[string]interface{}) {
			delete(alpha(srv), "lag")
		}, wantErr: `missing key "lag"`},
		{name: "negative floating gauge", mutate: func(_, srv map[string]interface{}) {
			alpha(srv)["floating"] = -4
		}, wantErr: "floating is negative"},
	})
}
