// Command wfrc-top is a live terminal dashboard for a running wfrc-kv.
// It polls the observability endpoint's /metrics (Prometheus text
// exposition) and /spans (flight-recorder JSON) and renders per-shard
// throughput, lease-pool pressure, and the memory-lifecycle picture —
// floating garbage, reclamation lag, occupancy gauges — refreshing in
// place like top(1).
//
//	wfrc-top -addr 127.0.0.1:7701              # refresh every second
//	wfrc-top -addr 127.0.0.1:7701 -once        # one plain frame (CI snapshot)
//	wfrc-top -flight wfrc-kv-flight.json       # check a flight-recorder dump
//
// Rates are computed from counter deltas between polls, so the first
// frame of a live session shows totals and every later frame shows
// per-second rates.  -once renders a single frame without ANSI control
// sequences and exits, which is what CI attaches to its artifacts.
// -flight reads no live server: it schema-checks a dump wfrc-kv wrote
// on SIGQUIT and exits nonzero unless a help event joins a recorded
// span, which is what CI's kv-trace job gates on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wfrc/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:7701", "wfrc-kv observability address (-obs-addr)")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		once     = flag.Bool("once", false, "render one plain frame (no ANSI) and exit; CI snapshot mode")
		flight   = flag.String("flight", "", "validate this wfrc-kv flight-recorder dump and exit (requires a span↔help join)")
	)
	flag.Parse()
	if *flight != "" {
		return checkFlight(*flight)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	prev, prevSpans, err := poll(client, *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfrc-top: %v\n", err)
		return 1
	}
	if *once {
		render(os.Stdout, *addr, prev, prevSpans, nil, 0, 0)
		return 0
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	prevAt := time.Now()
	// First live frame: totals only (no delta baseline yet).
	fmt.Print("\x1b[2J")
	fmt.Print("\x1b[H\x1b[0J")
	render(os.Stdout, *addr, prev, prevSpans, nil, 0, 0)
	for {
		select {
		case <-sigs:
			fmt.Println()
			return 0
		case <-tick.C:
			cur, curSpans, err := poll(client, *addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wfrc-top: %v\n", err)
				return 1
			}
			now := time.Now()
			dt := now.Sub(prevAt).Seconds()
			fmt.Print("\x1b[H\x1b[0J")
			render(os.Stdout, *addr, cur, curSpans, prev, curSpans-prevSpans, dt)
			prev, prevSpans, prevAt = cur, curSpans, now
		}
	}
}

// checkFlight implements -flight: schema-check a flight-recorder dump
// and require that it demonstrates the span↔help join — at least one
// span, and at least one help event whose helpee span ID matches a span
// in the dump.  Returns the exit code.
func checkFlight(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	d, err := obs.ValidateFlightDump(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		return 1
	}
	if len(d.Spans) == 0 {
		fmt.Fprintf(os.Stderr, "%s: dump contains no spans\n", path)
		return 1
	}
	joined := d.JoinedHelps()
	if len(joined) == 0 {
		fmt.Fprintf(os.Stderr, "%s: no help event joins a recorded span (%d spans, %d help events) — span tagging is broken or no helping occurred\n",
			path, len(d.Spans), len(d.HelpEvents))
		return 1
	}
	ev := joined[0]
	fmt.Printf("%s: %s, %d spans (%d total), %d help events (%d total), %d joined — e.g. slot %d helped slot %d's span %d\n",
		path, obs.FlightDumpSchema, len(d.Spans), d.TotalSpans, len(d.HelpEvents), d.TotalHelps,
		len(joined), ev.Helper, ev.Helpee, ev.HelpeeSpan)
	return 0
}

// scrape is one parsed /metrics exposition: metric name → label string
// (the raw text between braces, "" for unlabelled) → value.
type scrape map[string]map[string]float64

// poll fetches and parses /metrics, plus the /spans total counter.
func poll(client *http.Client, addr string) (scrape, float64, error) {
	body, err := get(client, "http://"+addr+"/metrics")
	if err != nil {
		return nil, 0, err
	}
	s := parseProm(body)
	spans, err := get(client, "http://"+addr+"/spans")
	if err != nil {
		return nil, 0, err
	}
	var sp struct {
		Total float64 `json:"total"`
	}
	if err := json.Unmarshal(spans, &sp); err != nil {
		return nil, 0, fmt.Errorf("/spans: %w", err)
	}
	return s, sp.Total, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// parseProm parses Prometheus text exposition: `name value` and
// `name{labels} value` lines; comments and malformed lines are skipped.
// It is deliberately minimal — just enough for wfrc's own exporters.
func parseProm(body []byte) scrape {
	s := make(scrape)
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				continue
			}
			name, labels = series[:i], series[i+1:len(series)-1]
		}
		m, ok := s[name]
		if !ok {
			m = make(map[string]float64)
			s[name] = m
		}
		m[labels] = val
	}
	return s
}

// label extracts one label's value from a raw label string.
func label(labels, key string) string {
	for _, part := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(part, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// one returns the single value of an unlabelled (or single-series)
// family, 0 if absent.
func (s scrape) one(name string) float64 {
	for _, v := range s[name] {
		return v
	}
	return 0
}

// histQuantile computes an upper bound on the q-quantile of a
// cumulative-bucket histogram family, returning seconds.  Every label
// set (shard, op) is merged by summing its cumulative counts per le
// edge, which is the histogram of all their samples together.
func (s scrape) histQuantile(name string, q float64) float64 {
	cum := make(map[float64]float64) // le → cumulative count over every series
	for labels, v := range s[name+"_bucket"] {
		le, err := strconv.ParseFloat(label(labels, "le"), 64) // accepts "+Inf"
		if err != nil {
			continue
		}
		cum[le] += v
	}
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || cum[les[len(les)-1]] == 0 {
		return 0
	}
	rank := q * cum[les[len(les)-1]]
	for _, le := range les {
		if cum[le] >= rank {
			return le
		}
	}
	return les[len(les)-1]
}

// rate returns (cur-prev)/dt for one series, or the current value when
// no baseline exists yet (first frame / -once).
func rate(cur, prev scrape, name, labels string, dt float64) (float64, bool) {
	c, ok := cur[name][labels]
	if !ok {
		return 0, false
	}
	if prev == nil || dt <= 0 {
		return c, true
	}
	return (c - prev[name][labels]) / dt, true
}

func render(w io.Writer, addr string, cur scrape, spansTotal float64, prev scrape, dSpans, dt float64) {
	unit := "total"
	if prev != nil && dt > 0 {
		unit = "/s"
	}
	fmt.Fprintf(w, "wfrc-top — %s — %s\n\n", addr, time.Now().Format("15:04:05"))

	// Front-end throughput and spans.
	native, _ := rate(cur, prev, "wfrc_server_requests_total", `proto="native"`, dt)
	respR, _ := rate(cur, prev, "wfrc_server_requests_total", `proto="resp"`, dt)
	spanLine := fmt.Sprintf("%.0f total", spansTotal)
	if prev != nil && dt > 0 {
		spanLine = fmt.Sprintf("%.0f/s (%.0f total)", dSpans/dt, spansTotal)
	}
	fmt.Fprintf(w, "requests (%s): native=%.0f resp=%.0f    spans: %s\n", unit, native, respR, spanLine)

	// Lease pool.
	fmt.Fprintf(w, "leases: %0.f/%0.f slots leased, %0.f quarantined; wait p50=%s p99=%s\n\n",
		cur.one("wfrc_slotpool_leased"), cur.one("wfrc_slotpool_slots"),
		cur.one("wfrc_slotpool_quarantined"),
		fmtSeconds(cur.histQuantile("wfrc_slotpool_lease_wait_seconds", 0.50)),
		fmtSeconds(cur.histQuantile("wfrc_slotpool_lease_wait_seconds", 0.99)))

	// Per-shard table: ops rate joined with the shard's memory lifecycle
	// (the mem families label shards "waitfree-shard<N>").
	shards := make([]string, 0, len(cur["wfrc_server_shard_ops_total"]))
	for labels := range cur["wfrc_server_shard_ops_total"] {
		shards = append(shards, label(labels, "shard"))
	}
	sort.Strings(shards)
	opsHeader := "ops"
	if unit == "/s" {
		opsHeader = "ops/s"
	}
	fmt.Fprintf(w, "%-6s %12s %10s %10s %10s %10s %9s\n",
		"shard", opsHeader, "retired", "reclaimed", "floating", "hwm", "segments")
	for _, sh := range shards {
		opsLabels := fmt.Sprintf("shard=%q", sh)
		memLabels := fmt.Sprintf("scheme=%q", "waitfree-shard"+sh)
		ops, _ := rate(cur, prev, "wfrc_server_shard_ops_total", opsLabels, dt)
		fmt.Fprintf(w, "%-6s %12.0f %10.0f %10.0f %10.0f %10.0f %9.0f\n", sh, ops,
			cur["wfrc_mem_retired_total"][memLabels],
			cur["wfrc_mem_reclaimed_total"][memLabels],
			cur["wfrc_mem_floating"][memLabels],
			cur["wfrc_mem_floating_hwm"][memLabels],
			cur["wfrc_server_shard_segments"][opsLabels])
	}

	// Reclamation lag (all shards merged) and the remaining memory gauges.
	fmt.Fprintf(w, "\nreclaim lag: p50=%s p99=%s (%.0f reclaims)\n",
		fmtSeconds(cur.histQuantile("wfrc_mem_reclaim_lag_seconds", 0.50)),
		fmtSeconds(cur.histQuantile("wfrc_mem_reclaim_lag_seconds", 0.99)),
		sum(cur["wfrc_mem_reclaim_lag_seconds_count"]))
	var gaugeNames []string
	for name := range cur {
		if strings.HasPrefix(name, "wfrc_mem_") && !strings.HasPrefix(name, "wfrc_mem_reclaim_lag_seconds") &&
			name != "wfrc_mem_retired_total" && name != "wfrc_mem_reclaimed_total" &&
			name != "wfrc_mem_floating" && name != "wfrc_mem_floating_hwm" {
			gaugeNames = append(gaugeNames, name)
		}
	}
	sort.Strings(gaugeNames)
	for _, name := range gaugeNames {
		fmt.Fprintf(w, "%s: %.0f\n", strings.TrimPrefix(name, "wfrc_mem_"), sum(cur[name]))
	}
}

func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// fmtSeconds renders a seconds quantity with a sensible duration unit.
// Sub-microsecond values keep nanosecond resolution — reclaim lags on an
// unloaded server sit in the 100ns buckets and must not round to "0s".
func fmtSeconds(s float64) string {
	if s == 0 {
		return "0"
	}
	d := time.Duration(s * float64(time.Second))
	if d < time.Microsecond {
		return d.String()
	}
	return d.Round(time.Microsecond).String()
}
