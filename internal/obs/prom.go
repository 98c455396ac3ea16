package obs

import (
	"fmt"
	"io"
	"strconv"

	"wfrc/internal/mm"
)

// The exported metric families.  Each maps to a quantity the paper's
// proof bounds or counts (see DESIGN.md §7 for the full metric ↔ lemma
// map):
//
//   - wfrc_deref_steps (histogram): D1 announcement-slot probes per
//     DeRefLink — Lemma 2 caps them at core.AnnScanBound.
//   - wfrc_alloc_steps (histogram): A3 allocation-loop iterations per
//     AllocNode — Lemma 9 plus footnote 4's retry bound.
//   - wfrc_free_steps (histogram): F7 insertion attempts per FreeNode.
//   - wfrc_ann_scan_violations_total: DeRef scans that exceeded the
//     Lemma 2 bound; nonzero means broken wait-freedom.
//   - wfrc_helps_given_total / wfrc_helps_received_total /
//     wfrc_help_scans_total: H1–H8 helping traffic.
//   - wfrc_*_max_steps / wfrc_*_max_thread: worst observed op and the
//     thread that observed it (arg-max; -1 when unknown).
//
// All families carry a scheme label so baselines and the wait-free
// scheme can be scraped side by side.

// counterSpec is one plain counter family derived from OpStats.
type counterSpec struct {
	name, help string
	read       func(*mm.OpStats) uint64
}

var counterSpecs = []counterSpec{
	{"wfrc_derefs_total", "DeRef (DeRefLink, Figure 4 D1-D10) calls.", func(s *mm.OpStats) uint64 { return s.DeRefs }},
	{"wfrc_helps_given_total", "Announcement answers provided to other threads (H6 CAS wins).", func(s *mm.OpStats) uint64 { return s.HelpsGiven }},
	{"wfrc_helps_received_total", "DeRef calls that adopted a helper's answer (D7).", func(s *mm.OpStats) uint64 { return s.HelpsReceived }},
	{"wfrc_help_scans_total", "HelpDeRef invocations (one full H1 announcement-table scan each).", func(s *mm.OpStats) uint64 { return s.HelpScans }},
	{"wfrc_ann_scan_violations_total", "DeRef slot scans that exceeded the Lemma 2 bound AnnScanBound(n).", func(s *mm.OpStats) uint64 { return s.AnnScanViolations }},
	{"wfrc_allocs_total", "Alloc (AllocNode, Figure 5 A1-A18) calls.", func(s *mm.OpStats) uint64 { return s.Allocs }},
	{"wfrc_alloc_helped_total", "Alloc calls satisfied through the annAlloc helping channel (A4).", func(s *mm.OpStats) uint64 { return s.AllocHelped }},
	{"wfrc_alloc_local_total", "Alloc calls served from the thread slot's magazine, no shared free-list step.", func(s *mm.OpStats) uint64 { return s.AllocLocal }},
	{"wfrc_frees_total", "Nodes reclaimed (FreeNode, Figure 5 F1-F10, or scheme equivalent).", func(s *mm.OpStats) uint64 { return s.Frees }},
	{"wfrc_free_local_total", "Frees parked in the thread slot's magazine, no shared free-list step.", func(s *mm.OpStats) uint64 { return s.FreeLocal }},
	{"wfrc_cas_failures_total", "Failed CAS operations on links and list heads.", func(s *mm.OpStats) uint64 { return s.CASFailures }},
	{"wfrc_retired_total", "Retire calls (hazard/epoch schemes).", func(s *mm.OpStats) uint64 { return s.Retired }},
	{"wfrc_reclaim_scans_total", "Reclamation scans (hazard scan passes / epoch flushes).", func(s *mm.OpStats) uint64 { return s.Scans }},
}

// gaugeSpec is one gauge family derived from OpStats (maxima and their
// arg-max thread ids are gauges: they can reset between runs).
type gaugeSpec struct {
	name, help string
	read       func(*mm.OpStats) int64
}

var gaugeSpecs = []gaugeSpec{
	{"wfrc_deref_max_steps", "Maximum steps observed in a single DeRef (Lemma 2 bound check).", func(s *mm.OpStats) int64 { return int64(s.DeRefMaxSteps) }},
	{"wfrc_deref_max_thread", "Thread that observed wfrc_deref_max_steps (-1 unknown).", func(s *mm.OpStats) int64 { return int64(s.DeRefMaxThread()) }},
	{"wfrc_alloc_max_steps", "Maximum loop iterations in a single Alloc (Lemma 9 bound check).", func(s *mm.OpStats) int64 { return int64(s.AllocMaxSteps) }},
	{"wfrc_alloc_max_thread", "Thread that observed wfrc_alloc_max_steps (-1 unknown).", func(s *mm.OpStats) int64 { return int64(s.AllocMaxThread()) }},
	{"wfrc_free_max_steps", "Maximum insertion attempts in a single free.", func(s *mm.OpStats) int64 { return int64(s.FreeMaxSteps) }},
	{"wfrc_free_max_thread", "Thread that observed wfrc_free_max_steps (-1 unknown).", func(s *mm.OpStats) int64 { return int64(s.FreeMaxThread()) }},
}

// histSpec is one histogram family derived from OpStats.
type histSpec struct {
	name, help string
	hist       func(*mm.OpStats) *mm.StepHist
	sum        func(*mm.OpStats) uint64
}

var histSpecs = []histSpec{
	{"wfrc_deref_steps", "Per-DeRef step counts (D1 slot probes; Lemma 2 bounds these).",
		func(s *mm.OpStats) *mm.StepHist { return &s.DeRefHist }, func(s *mm.OpStats) uint64 { return s.DeRefSteps }},
	{"wfrc_alloc_steps", "Per-Alloc loop iterations (Lemma 9 / footnote 4 bound these).",
		func(s *mm.OpStats) *mm.StepHist { return &s.AllocHist }, func(s *mm.OpStats) uint64 { return s.AllocSteps }},
	{"wfrc_free_steps", "Per-free insertion attempts (Lemma 9's free-side structure).",
		func(s *mm.OpStats) *mm.StepHist { return &s.FreeHist }, func(s *mm.OpStats) uint64 { return s.FreeSteps }},
}

// WriteProm writes the snapshot in Prometheus text exposition format
// (version 0.0.4): HELP/TYPE headers per family, one sample per scheme
// label, histograms with cumulative le buckets at the StepHist
// factor-of-two boundaries.  Output is deterministic: families in spec
// order, scheme labels sorted.
func WriteProm(w io.Writer, snap Snapshot) error {
	names := snap.SchemeNames()
	for _, spec := range counterSpecs {
		if err := header(w, spec.name, spec.help, "counter"); err != nil {
			return err
		}
		for _, scheme := range names {
			st := snap.Schemes[scheme]
			if _, err := fmt.Fprintf(w, "%s{scheme=%q} %d\n", spec.name, scheme, spec.read(&st)); err != nil {
				return err
			}
		}
	}
	for _, spec := range gaugeSpecs {
		if err := header(w, spec.name, spec.help, "gauge"); err != nil {
			return err
		}
		for _, scheme := range names {
			st := snap.Schemes[scheme]
			if _, err := fmt.Fprintf(w, "%s{scheme=%q} %d\n", spec.name, scheme, spec.read(&st)); err != nil {
				return err
			}
		}
	}
	for _, spec := range histSpecs {
		if err := header(w, spec.name, spec.help, "histogram"); err != nil {
			return err
		}
		for _, scheme := range names {
			st := snap.Schemes[scheme]
			if err := mm.WritePromHist(w, spec.name, fmt.Sprintf("scheme=%q", scheme),
				spec.hist(&st).Buckets[:], stepLE[:], strconv.FormatUint(spec.sum(&st), 10)); err != nil {
				return err
			}
		}
	}
	for _, g := range snap.Gauges {
		if err := header(w, g.Name, "Scheme-level gauge.", "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s{scheme=%q} %d\n", g.Name, g.Scheme, g.Value); err != nil {
			return err
		}
	}
	return nil
}

func header(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// stepLE holds the le edges of the step histograms: each bucket's
// inclusive upper bound in steps (mm.BucketBound).
var stepLE = func() (le [mm.StepHistBuckets - 1]string) {
	for i := range le {
		le[i] = strconv.FormatUint(mm.BucketBound(i), 10)
	}
	return le
}()
