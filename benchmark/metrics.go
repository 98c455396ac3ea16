package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric and its unit.  BENCHMARK.json lists the
// same names; the package test keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system would see, defined on
// every workload and taken from the untraced run.
var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics of the traced run; the layer is
// the module name that prefixes the metric.
var perLayer = []metricDef{
	{"core.deref_release_ns", "ns"},
	{"core.deferred.deref_release_ns", "ns"},
	{"core.caslink_ns", "ns"},
	{"core.alloc_release_ns", "ns"},
	{"core.deferred.alloc_release_ns", "ns"},
	{"core.alloc_max_steps", "steps"},
	{"core.free_max_steps", "steps"},
	{"core.deref_max_steps", "steps"},
	{"core.derefs_per_op", "1/op"},
	{"core.allocs_per_op", "1/op"},
	{"core.frees_per_op", "1/op"},
	{"core.help_scans_per_op", "1/op"},
	{"core.helps_per_mop", "1/Mop"},
	{"core.cas_failures_per_kop", "1/kop"},
	{"core.ann_scan_violations", "count"},
	{"core.pin_fastpath_share", "ratio"},
	{"core.deferred_flushes_per_kop", "1/kop"},
	{"core.deferred_decs_per_op", "1/op"},
	{"ds.pqueue.insert_ns", "ns"},
	{"ds.pqueue.deletemin_ns", "ns"},
	{"ds.pqueue.self_ns", "ns"},
	{"ds.hashmap.get_ns", "ns"},
	{"ds.hashmap.update_ns", "ns"},
	{"ds.hashmap.self_ns", "ns"},
	{"ds.list.nodes_per_lookup", "nodes"},
	{"mm.floating_hwm_nodes", "nodes"},
	{"mm.unreclaimed_end_nodes", "nodes"},
	{"mm.reclaim_lag_p99_us", "us"},
	{"mm.lifecycle_overhead_share", "ratio"},
	{"server.store.get_ns", "ns"},
	{"server.store.set_ns", "ns"},
	{"server.store.getbytes_ns", "ns"},
	{"server.store.setbytes_ns", "ns"},
	{"server.store.self_ns", "ns"},
	{"server.store.shard_balance", "ratio"},
	{"slotpool.lease_release_ns", "ns"},
	{"slotpool.renew_ns", "ns"},
	{"slotpool.leasebatch_ns_per_op", "ns"},
	{"slotpool.batch_factor", "ops/lease"},
	{"slotpool.lease_wait_p99_us", "us"},
	{"slotpool.busy_rejects", "count"},
	{"slotpool.audit_violations", "count"},
	{"value.alloc_free_ns", "ns"},
	{"value.append_ns", "ns"},
	{"alloc.cache_hit_share", "ratio"},
	{"alloc.shared_steps_per_alloc", "steps"},
	{"alloc.alloc_steps_max", "steps"},
	{"server.proto.codec_ns", "ns"},
	{"server.proto.allocs_per_op", "1/op"},
	{"resp.codec_ns", "ns"},
	{"resp.allocs_per_op", "1/op"},
	{"server.rtt_inproc_ns", "ns"},
	{"server.net_self_ns", "ns"},
	{"server.net_share", "ratio"},
	{"server.heap_allocs_per_op", "1/op"},
	{"server.gc_pause_total_ms", "ms"},
	{"server.ladder_closure_share", "ratio"},
	{"obs.span_ns", "ns"},
	{"obs.hist_record_ns", "ns"},
	{"obs.overhead_share", "ratio"},
	{"client.cpu_us_per_op", "us"},
	{"client.latency_p99_us", "us"},
	{"client.latency_p999_us", "us"},
	{"client.latency_max_us", "us"},
	{"trace.overhead_share", "ratio"},
}

// metricValue is one reported figure, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, exactly the contract's keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map for defs from vals.  A metric a workload
// cannot measure reads 0; a name missing from defs is a bug.
func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// benchmarkSpec is the part of BENCHMARK.json this package reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}
