package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"
)

// BenchSchemaVersion identifies the layout of the one document this
// package still describes: the server report wfrc-load writes with
// -out.  Versions 1–4 and the experiment/matrix result rows went with
// their producers; ValidateBenchJSON accepts exactly this version.
const BenchSchemaVersion = 5

// BenchServer is the "server" section: one wfrc-load run against a
// wfrc-kv server.  Latency quantiles are the load generator's own;
// lease-wait quantiles, per-shard op counts, the memory sample and the
// audit counters come from the server's STATS response, so the report
// captures both ends of the backpressure story.
type BenchServer struct {
	Connections int `json:"connections"`
	Slots       int `json:"slots"`
	Shards      int `json:"shards"`

	Ops       uint64  `json:"ops"`
	ElapsedNS int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`

	LatencyP50NS  uint64 `json:"latency_p50_ns"`
	LatencyP99NS  uint64 `json:"latency_p99_ns"`
	LatencyP999NS uint64 `json:"latency_p999_ns"`
	LatencyMaxNS  uint64 `json:"latency_max_ns"`

	// OpLatency maps each protocol op ("get", "set", "del", "cas") to
	// its client-side latency quantiles.
	OpLatency map[string]BenchOpLatency `json:"op_latency,omitempty"`

	LeaseWaitP50NS  float64 `json:"lease_wait_p50_ns"`
	LeaseWaitP99NS  float64 `json:"lease_wait_p99_ns"`
	LeaseWaitMeanNS float64 `json:"lease_wait_mean_ns"`

	// Protocol is the wire protocol the load ran over: "native" or "resp".
	Protocol string `json:"protocol,omitempty"`
	// OpenLoop carries the coordinated-omission-free fields when the
	// run used a fixed arrival schedule; nil for closed-loop runs.
	OpenLoop *BenchOpenLoop `json:"open_loop,omitempty"`
	// Memory is the server's last lifecycle sample: per-scheme floating
	// garbage, lag quantiles and occupancy gauges.
	Memory *MemSnapshot `json:"memory,omitempty"`

	BusyRejects uint64 `json:"busy_rejects"`
	Expiries    uint64 `json:"lease_expiries"`

	ShardOps []uint64 `json:"shard_ops"`
	// ShardBalance is max(shard_ops)/mean(shard_ops); 1.0 is perfect
	// balance, and CI treats a large skew as a hashing regression.
	ShardBalance float64 `json:"shard_balance"`

	AuditViolations uint64 `json:"audit_violations"`
}

// SetShardOps stores the per-shard op counts and derives ShardBalance.
func (b *BenchServer) SetShardOps(ops []uint64) {
	b.ShardOps = ops
	b.Shards = len(ops)
	if len(ops) == 0 {
		return
	}
	var sum, max uint64
	for _, n := range ops {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum > 0 {
		b.ShardBalance = float64(max) * float64(len(ops)) / float64(sum)
	}
}

// BenchOpenLoop is the open-loop section of a server report.  The load
// generator sends on a fixed arrival schedule (request i is due at
// start + i/rate) and measures each latency from the request's
// *scheduled* instant, not its actual send — the Hdr-histogram
// coordinated-omission correction — so server stalls surface as tail
// latency instead of silently thinning the arrival stream.
type BenchOpenLoop struct {
	// TargetRate is the offered load in requests per second over all
	// connections; AchievedRate is completions per second measured.
	TargetRate   float64 `json:"target_rate"`
	AchievedRate float64 `json:"achieved_rate"`
	// SLONS is the latency SLO threshold; UnderSLOFraction the fraction
	// of requests whose schedule-corrected latency met it (1.0 = all).
	SLONS            uint64  `json:"slo_ns"`
	UnderSLOFraction float64 `json:"under_slo_fraction"`
	// LateSends counts requests that could not start at their scheduled
	// instant because the previous response was still outstanding (the
	// wait is part of their latency); MaxSchedLagNS is the largest such
	// gap.
	LateSends     uint64 `json:"late_sends"`
	MaxSchedLagNS uint64 `json:"max_sched_lag_ns"`
}

// BenchOpLatency is one op's entry in the "op_latency" map.
type BenchOpLatency struct {
	Count  uint64 `json:"count"`
	P50NS  uint64 `json:"p50_ns"`
	P99NS  uint64 `json:"p99_ns"`
	P999NS uint64 `json:"p999_ns"`
	MaxNS  uint64 `json:"max_ns"`
}

// BenchHost records the machine a report was generated on, so reports
// are only compared like for like.
type BenchHost struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// BenchReport is the document wfrc-load -out writes: one load run's
// server section plus provenance.  CI uploads it as an artifact.
type BenchReport struct {
	SchemaVersion int          `json:"schema_version"`
	GeneratedAt   string       `json:"generated_at"` // RFC 3339
	Host          BenchHost    `json:"host"`
	Server        *BenchServer `json:"server"`
}

// NewBenchReport returns a report for server, stamped with the current
// time and host.
func NewBenchReport(server *BenchServer) *BenchReport {
	return &BenchReport{
		SchemaVersion: BenchSchemaVersion,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Host: BenchHost{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Server: server,
	}
}

// The keys the schema promises in the server section, in each op_latency
// entry, in server.open_loop and in each server.memory.schemes entry.
var (
	requiredServerKeys = []string{
		"connections", "slots", "shards", "ops", "elapsed_ns", "ops_per_sec",
		"latency_p50_ns", "latency_p99_ns", "latency_p999_ns", "latency_max_ns", "op_latency",
		"lease_wait_p50_ns", "lease_wait_p99_ns", "lease_wait_mean_ns",
		"busy_rejects", "lease_expiries", "shard_ops", "shard_balance", "audit_violations",
	}
	requiredOpLatencyKeys = []string{"count", "p50_ns", "p99_ns", "p999_ns", "max_ns"}
	requiredOpenLoopKeys  = []string{
		"target_rate", "achieved_rate", "slo_ns", "under_slo_fraction",
		"late_sends", "max_sched_lag_ns",
	}
	requiredMemSchemeKeys = []string{"retired", "reclaimed", "floating", "floating_hwm", "lag"}
)

// requireKeys reports the first of keys that obj (named where in the
// error) lacks.
func requireKeys(obj map[string]json.RawMessage, where string, keys ...string) error {
	for _, key := range keys {
		if _, ok := obj[key]; !ok {
			return fmt.Errorf("bench json: %s: missing key %q", where, key)
		}
	}
	return nil
}

// ValidateBenchJSON checks that data is a schema-valid server report and
// returns it decoded.  The typed decode vouches for the JSON types;
// presence is then checked on the raw keys rather than trusting Go
// defaults, so a field silently dropped by a future edit fails the
// producer instead of reading as zero.  openLoop says the run that
// produced the document had a fixed arrival schedule, which makes the
// otherwise optional server.open_loop object mandatory.
func ValidateBenchJSON(data []byte, openLoop bool) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench json: %w", err)
	}
	if rep.SchemaVersion != BenchSchemaVersion {
		return nil, fmt.Errorf("bench json: schema_version %d, want %d", rep.SchemaVersion, BenchSchemaVersion)
	}
	if _, err := time.Parse(time.RFC3339, rep.GeneratedAt); err != nil {
		return nil, fmt.Errorf("bench json: generated_at %q is not RFC 3339: %w", rep.GeneratedAt, err)
	}

	// The same document again, as raw keys at every level the schema
	// names.  These decodes cannot fail where the typed one succeeded.
	var top, server map[string]json.RawMessage
	var nested struct {
		Server struct {
			OpLatency map[string]map[string]json.RawMessage `json:"op_latency"`
			OpenLoop  map[string]json.RawMessage            `json:"open_loop"`
			Memory    *struct {
				Schemes map[string]map[string]json.RawMessage `json:"schemes"`
			} `json:"memory"`
		} `json:"server"`
	}
	json.Unmarshal(data, &top)
	json.Unmarshal(top["server"], &server)
	json.Unmarshal(data, &nested)

	if err := requireKeys(top, "top level", "schema_version", "generated_at", "host", "server"); err != nil {
		return nil, err
	}
	if err := requireKeys(server, "server", requiredServerKeys...); err != nil {
		return nil, err
	}
	if len(nested.Server.OpLatency) == 0 {
		return nil, fmt.Errorf("bench json: server.op_latency is empty")
	}
	for op, fields := range nested.Server.OpLatency {
		if err := requireKeys(fields, fmt.Sprintf("server.op_latency[%q]", op), requiredOpLatencyKeys...); err != nil {
			return nil, err
		}
	}
	if _, ok := server["open_loop"]; ok || openLoop {
		if err := requireKeys(server, "server (open-loop run)", "open_loop"); err != nil {
			return nil, err
		}
		if err := requireKeys(nested.Server.OpenLoop, "server.open_loop", requiredOpenLoopKeys...); err != nil {
			return nil, err
		}
	}
	if mem := nested.Server.Memory; mem != nil {
		if mem.Schemes == nil {
			return nil, fmt.Errorf("bench json: server.memory: missing key \"schemes\"")
		}
		for name, fields := range mem.Schemes {
			where := fmt.Sprintf("server.memory.schemes[%q]", name)
			if err := requireKeys(fields, where, requiredMemSchemeKeys...); err != nil {
				return nil, err
			}
			if rep.Server.Memory.Schemes[name].Floating < 0 {
				return nil, fmt.Errorf("bench json: %s.floating is negative", where)
			}
		}
	}
	return &rep, nil
}
