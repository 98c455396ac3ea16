package sched

import (
	"strconv"
	"strings"
	"testing"
)

// regressionSeeds is the corpus of known-nasty PCT seeds.  Each entry
// pins a schedule (found by scanning seeds and inspecting the helping
// counters) that drives one of the historically fragile interleavings:
//
//   - announcement-answer vs SWAP: a reader publishes its announcement
//     (D3) and is suspended; a swapper's CASLink SWAP observes the
//     announcement and answers it via HelpDeRef while the reader is
//     still parked mid-DeRefLink.  The reader must wake to a granted,
//     correctly pinned reference (helps-given/received > 0 proves the
//     path ran).
//   - helper-pin vs FreeNode: a helper holds a transient pin on a node
//     whose last link is being removed; the concurrent ReleaseRef chain
//     must not reach FreeNode until the helper's pin is dropped, and
//     the end-of-run audit verifies no node leaked or double-freed.
//
// The minNotes thresholds assert the race actually fired — if a core
// change reroutes these schedules away from the helping path, the test
// fails loudly rather than silently passing on an empty schedule.
var regressionSeeds = []struct {
	scenario string
	seed     int64
	about    string
	// minNotes gives lower bounds on note counters proving the
	// targeted interleaving was exercised.
	minNotes map[string]int64
	// wantFailure, when non-empty, marks a seed that must FAIL with a
	// verdict containing this substring (injected-bug corpus entries).
	wantFailure string
}{
	{
		scenario: "deref-vs-swap",
		seed:     7,
		about:    "reader parked after announcing; swapper's SWAP answers it",
		minNotes: map[string]int64{"helps-given": 1, "helps-received": 1},
	},
	{
		scenario: "deref-vs-swap",
		seed:     21,
		about:    "second swapper answers while the first swapper retries",
		minNotes: map[string]int64{"helps-given": 1, "helps-received": 1, "cas-failures": 1},
	},
	{
		scenario: "deref-vs-swap",
		seed:     39,
		about:    "help granted between the reader's two recorded reads",
		minNotes: map[string]int64{"helps-given": 1, "helps-received": 1},
	},
	{
		scenario: "helper-pin-vs-free",
		seed:     88,
		about:    "two helping grants while writers race unlink+release toward FreeNode",
		minNotes: map[string]int64{"helps-given": 2, "helps-received": 2},
	},
	{
		scenario: "helper-pin-vs-free",
		seed:     94,
		about:    "helper pin outstanding across a ReleaseRef of the pinned node",
		minNotes: map[string]int64{"helps-given": 1, "installs": 4},
	},
	{
		scenario: "helper-pin-vs-free",
		seed:     97,
		about:    "failed CAS forces re-deref of a node another thread is freeing",
		minNotes: map[string]int64{"helps-given": 1, "cas-failures": 1},
	},
	{
		scenario: "deferred-flush-vs-help",
		seed:     7,
		about:    "writer answers the owner's announcement at D6 and its unlink zeroes the old target; both flushes run with the guard live",
		minNotes: map[string]int64{
			"helps-given": 1, "helps-received": 1,
			"owner-flush": 2, "writer-flush": 1, "installs": 1,
		},
	},
	{
		scenario: "slot-lease-churn",
		seed:     11,
		about:    "writer's CAS helps a lessee's announcement across a lease release boundary",
		minNotes: map[string]int64{"helps-given": 1, "leases": 4, "recycles": 4},
	},
	{
		scenario: "slot-lease-churn",
		seed:     69,
		about:    "release-time reuse audit sees the suspended writer's helper pin; slot quarantined then re-audited clean",
		minNotes: map[string]int64{"quarantines": 1, "leases": 4, "recycles": 4},
	},
	{
		scenario: "hyaline-retire-vs-help",
		seed:     3,
		about:    "both dispatches lodge in the reader's slot; its leave traversal frees both batches",
		minNotes: map[string]int64{"dispatches": 2, "reader-frees": 6, "retires": 6},
	},
	{
		scenario: "hyaline-retire-vs-help",
		seed:     6,
		about:    "reader leaves between dispatches: its traversal frees batch one, the retirer's adjustment frees batch two",
		minNotes: map[string]int64{"dispatches": 2, "reader-frees": 3, "retirer-frees": 3},
	},
	{
		scenario: "value-free-vs-help",
		seed:     13,
		about:    "reader's help answers the replacer's announcement while the displaced node's value blocks await the free hook",
		minNotes: map[string]int64{"helps-given": 1, "helps-received": 1, "hook-frees": 3, "replaces": 3},
	},
	{
		scenario: "value-free-vs-help",
		seed:     69,
		about:    "replacer parked between Replace's mark and its swing: the first read's traversal unlinks the marked node, so the swing fails and the insert branch finishes; every read misses and all three displaced value words still reach the hook",
		minNotes: map[string]int64{"read-misses": 3, "cas-failures": 1, "hook-frees": 3, "reads": 3},
	},
	{
		scenario:    "legacy-annindex",
		seed:        7,
		about:       "the announcement-answer schedule with the annRow.index fix reverted",
		minNotes:    map[string]int64{"helps-given": 1},
		wantFailure: "H2 hygiene",
	},
}

// TestRegressionSeeds replays the corpus: every seed must reproduce its
// recorded verdict, exercise the targeted race (note thresholds), and
// replay identically from its own recorded trace.
func TestRegressionSeeds(t *testing.T) {
	for _, c := range regressionSeeds {
		c := c
		t.Run(c.scenario+"/seed="+strconv.FormatInt(c.seed, 10), func(t *testing.T) {
			sc, ok := Lookup(c.scenario)
			if !ok {
				t.Fatalf("scenario %q missing", c.scenario)
			}
			out := RunPCTSeed(sc, c.seed, PCTOptions{})
			if c.wantFailure == "" {
				if out.Failed() {
					t.Fatalf("%s: seed %d regressed: %s\n  replay: %s", c.about, c.seed, out.Failure, out.Hint())
				}
			} else if !out.Failed() || !strings.Contains(out.Failure, c.wantFailure) {
				t.Fatalf("%s: seed %d no longer detects the bug: got %q, want substring %q",
					c.about, c.seed, out.Failure, c.wantFailure)
			}
			for note, min := range c.minNotes {
				if out.Notes[note] < min {
					t.Errorf("%s: seed %d note %s = %d, want >= %d (schedule no longer drives the race; notes: %s)",
						c.about, c.seed, note, out.Notes[note], min, out.NotesLine())
				}
			}
			// The recorded trace must reproduce the verdict byte for byte.
			again := ReplayTrace(sc, out.Trace, sc.MaxSteps)
			if again.Failure != out.Failure {
				t.Fatalf("%s: trace replay verdict differs:\n  %q\n  %q", c.about, out.Failure, again.Failure)
			}
			if again.Trace.Encode() != out.Trace.Encode() {
				t.Fatalf("%s: trace replay rewrote the schedule:\n  %s\n  %s",
					c.about, out.Trace.Encode(), again.Trace.Encode())
			}
			for note, min := range c.minNotes {
				if again.Notes[note] < min {
					t.Errorf("%s: trace replay lost note %s (= %d, want >= %d)",
						c.about, note, again.Notes[note], min)
				}
			}
		})
	}
}
