package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"wfrc/internal/resp"
)

// TestServerMemoryTelemetry drives churn through the RESP front-end and
// checks all three export surfaces of the memory-lifecycle plane: the
// INFO "# Memory" section, the wfrc_mem_* Prometheus families, and the
// STATS reply's memory snapshot.  Deleting keys retires their nodes, so
// after the churn the scheme's tracker must have seen retire→reclaim
// traffic.
func TestServerMemoryTelemetry(t *testing.T) {
	srv, addr := startServer(t, Config{Store: respStore()})
	defer srv.Shutdown(context.Background())
	c, err := resp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// SET+DEL churns nodes through retire and reclamation.
	for round := 0; round < 20; round++ {
		for k := 0; k < 16; k++ {
			key := fmt.Sprintf("mem:%d", k)
			if r, err := c.Do("SET", key, "v"); err != nil || r.IsError() {
				t.Fatalf("SET %s: %v %+v", key, err, r)
			}
			if r, err := c.Do("DEL", key); err != nil || r.IsError() {
				t.Fatalf("DEL %s: %v %+v", key, err, r)
			}
		}
	}

	// INFO: the "# Memory" section carries the scheme's lifecycle keys
	// and the occupancy gauges.
	r, err := c.Do("INFO")
	if err != nil || r.IsError() {
		t.Fatalf("INFO: %v %+v", err, r)
	}
	info := string(r.Str)
	for _, want := range []string{
		"# Memory",
		"waitfree_retired:",
		"waitfree_reclaim_lag_p99_ns:",
		"waitfree_floating_hwm:",
		"wfrc_mem_zct_depth_waitfree:",
		"wfrc_mem_pin_fastpaths_waitfree:",
		"wfrc_mem_value_blocks_live_values:",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}

	// Prometheus: the lifecycle families are present and labelled with
	// the one scheme, and no family the server exports has a shard label.
	var buf bytes.Buffer
	if err := srv.MemCollector().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, write := range []func(io.Writer) error{
		srv.Pool().WriteProm, srv.Store().WriteProm, srv.Hists().WriteProm, srv.WriteProm,
	} {
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Contains(buf.String(), "shard") {
		t.Errorf("/metrics families still carry a shard dimension:\n%s", buf.String())
	}
	for _, want := range []string{
		`wfrc_mem_retired_total{scheme="waitfree"}`,
		`wfrc_mem_reclaimed_total{scheme="waitfree"}`,
		`wfrc_mem_floating_hwm{scheme="waitfree"}`,
		`wfrc_mem_reclaim_lag_seconds_bucket{scheme="waitfree",le="+Inf"}`,
		`wfrc_mem_arena_segments{scheme="waitfree"}`,
		`wfrc_mem_value_blocks_live{scheme="values"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, prom)
		}
	}

	// STATS: the memory snapshot rides in the reply, with real traffic
	// on the scheme's tracker.
	stats := srv.Stats()
	if stats.Memory == nil {
		t.Fatal("StatsReply.Memory is nil")
	}
	if len(stats.Memory.Schemes) != 1 {
		t.Fatalf("memory schemes = %v", stats.Memory.SchemeNames())
	}
	var retired, reclaimed uint64
	for name, ls := range stats.Memory.Schemes {
		if ls.Floating < 0 {
			t.Errorf("%s floating negative: %+v", name, ls)
		}
		if ls.FloatingHWM < ls.Floating {
			t.Errorf("%s HWM %d below floating %d", name, ls.FloatingHWM, ls.Floating)
		}
		retired += ls.Retired
		reclaimed += ls.Reclaimed
	}
	if retired == 0 || reclaimed == 0 {
		t.Fatalf("churn left no lifecycle traffic: retired=%d reclaimed=%d", retired, reclaimed)
	}
	if gotLag := func() uint64 {
		var n uint64
		for _, ls := range stats.Memory.Schemes {
			n += ls.Lag.Count
		}
		return n
	}(); gotLag == 0 {
		t.Fatal("no reclaim-lag samples despite reclaims")
	}
}
