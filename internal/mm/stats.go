package mm

import "math/bits"

// StepHistBuckets is the number of log2 buckets in a StepHist.  Bucket
// 15 covers every operation that took 2^14 = 16384 steps or more — far
// above any of the paper's wait-freedom bounds for realistic thread
// counts, so a tail landing there is itself a red flag.
const StepHistBuckets = 16

// StepHist is a log-scaled histogram of per-operation step counts, in
// the units the wait-freedom proof bounds (loop iterations, slot
// probes): bucket 0 counts zero-step operations and bucket i>0 counts
// operations whose step count lies in [2^(i-1), 2^i), with the last
// bucket absorbing overflow.  It is the distribution behind the
// OpStats *MaxSteps maxima: Lemma 2 (DeRefLink) and Lemma 9 (AllocNode/
// FreeNode) promise the mass stays in the low buckets no matter how
// threads are scheduled, and the p99/max quantiles exported by
// internal/obs read directly off it.
//
// Like the rest of OpStats it is updated without synchronization by the
// owning thread; readers snapshot at quiescence or accept staleness.
type StepHist struct {
	// Buckets holds the per-bucket operation counts.
	Buckets [StepHistBuckets]uint64
}

// stepBucket maps a step count to its bucket index.
func stepBucket(steps uint64) int {
	b := bits.Len64(steps)
	if b >= StepHistBuckets {
		b = StepHistBuckets - 1
	}
	return b
}

// BucketBound returns the inclusive upper bound, in steps, of bucket i
// (2^i - 1); the last bucket is unbounded and reports the maximum
// uint64, which exporters render as +Inf.
func BucketBound(i int) uint64 {
	if i >= StepHistBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Note adds one operation that took steps steps.
func (h *StepHist) Note(steps uint64) { h.Buckets[stepBucket(steps)]++ }

// Merge folds o into h.
func (h *StepHist) Merge(o *StepHist) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Count returns the number of recorded operations.
func (h *StepHist) Count() uint64 {
	var n uint64
	for _, c := range h.Buckets {
		n += c
	}
	return n
}

// Quantile returns an inclusive upper bound for the q-quantile
// (0 < q <= 1) of the recorded step counts, with bucket (factor-of-two)
// resolution.  An empty histogram returns 0.
func (h *StepHist) Quantile(q float64) uint64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var acc uint64
	for i, c := range h.Buckets {
		acc += c
		if acc >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(StepHistBuckets - 1)
}

// OpStats counts the primitive work a thread performed, in the units the
// wait-freedom proof bounds: loop iterations and CAS outcomes.  Counters
// are plain (unsynchronized) because each Thread belongs to one goroutine;
// readers take a snapshot at quiescence or accept slight staleness.
//
// The struct is padded to a cache line so per-thread stats never share a
// line across threads.
type OpStats struct {
	// DeRefs is the number of DeRef calls.
	DeRefs uint64
	// DeRefSteps is the total number of retry-loop iterations (Valois) or
	// announcement rounds (wait-free: always 1 per call) spent in DeRef.
	DeRefSteps uint64
	// DeRefMaxSteps is the maximum steps observed in a single DeRef.
	DeRefMaxSteps uint64
	// HelpsGiven counts announcement answers this thread provided to
	// other threads' DeRef operations (wait-free scheme only).
	HelpsGiven uint64
	// HelpsReceived counts DeRef calls that returned a helper's answer.
	HelpsReceived uint64
	// HelpScans counts HelpDeRef invocations (one full announcement-table
	// scan each).
	HelpScans uint64
	// AnnScanViolations counts DeRef calls whose announcement-slot scan
	// exceeded the wait-freedom bound (wait-free scheme only; see
	// core.AnnScanBound).  Nonzero at quiescence means the D1 bound of the
	// paper's Lemma 2 was broken — either a scheme bug or a deliberately
	// wedged helper.
	AnnScanViolations uint64
	// Allocs is the number of Alloc calls.
	Allocs uint64
	// AllocSteps is the total number of allocation-loop iterations.
	AllocSteps uint64
	// AllocMaxSteps is the maximum loop iterations in a single Alloc.
	AllocMaxSteps uint64
	// AllocHelped counts Alloc calls satisfied through annAlloc helping.
	AllocHelped uint64
	// AllocLocal counts Alloc calls served from the thread slot's private
	// magazine without touching the shared free-lists (wait-free scheme).
	AllocLocal uint64
	// Frees is the number of nodes this thread reclaimed (FreeNode or
	// scheme equivalent).
	Frees uint64
	// FreeSteps is the total number of free-list insertion attempts.
	FreeSteps uint64
	// FreeMaxSteps is the maximum insertion attempts in a single free.
	FreeMaxSteps uint64
	// FreeLocal counts frees parked in the thread slot's private magazine
	// instead of inserted into a shared free-list (wait-free scheme).
	FreeLocal uint64
	// CASFailures counts failed CAS operations on links and list heads.
	CASFailures uint64
	// PinFastPaths counts DeRef calls satisfied by the deferred variant's
	// pin-and-revalidate fast path (no announcement, no shared FAA).
	PinFastPaths uint64
	// DeferredDecs counts the deferred variant's releases that found no
	// pin guard to drop and so applied a counted decrement.  The link
	// references a reclaimed node releases are not included.
	DeferredDecs uint64
	// DeferredFlushes counts full flushes of the deferred variant
	// (explicit Flush, alloc out-of-memory retries, the memory-pressure
	// answer and Unregister); the ZCT's overflow drains are not counted.
	DeferredFlushes uint64
	// Retired counts Retire calls (hazard/epoch schemes).
	Retired uint64
	// Scans counts reclamation scans (hazard-pointer scan passes or epoch
	// flushes).
	Scans uint64

	// DeRefMaxBy, AllocMaxBy and FreeMaxBy record, in merged snapshots,
	// which thread observed the corresponding *MaxSteps maximum, stored
	// as thread id + 1 so the zero value means "unknown" (per-thread
	// stats leave them zero; the owning thread's id is supplied by the
	// merger via AddTagged).  Read them through DeRefMaxThread,
	// AllocMaxThread and FreeMaxThread.  They make step-budget violation
	// reports actionable: a broken Lemma 2/9 bound names the thread that
	// broke it.
	DeRefMaxBy, AllocMaxBy, FreeMaxBy uint32

	// DeRefHist, AllocHist and FreeHist are the per-operation step-count
	// distributions behind the *Steps/*MaxSteps summaries, feeding the
	// p50/p99 step quantiles in internal/obs.
	DeRefHist, AllocHist, FreeHist StepHist

	_ [8]uint64 // pad to avoid false sharing between adjacent stats
}

// DeRefMaxThread returns the id of the thread that observed
// DeRefMaxSteps, or -1 when unknown (unmerged per-thread stats, or a
// merge performed with Add rather than AddTagged).
func (s *OpStats) DeRefMaxThread() int { return int(s.DeRefMaxBy) - 1 }

// AllocMaxThread returns the id of the thread that observed
// AllocMaxSteps, or -1 when unknown.
func (s *OpStats) AllocMaxThread() int { return int(s.AllocMaxBy) - 1 }

// FreeMaxThread returns the id of the thread that observed
// FreeMaxSteps, or -1 when unknown.
func (s *OpStats) FreeMaxThread() int { return int(s.FreeMaxBy) - 1 }

// Add accumulates o into s (for aggregating per-thread stats).  The
// arg-max owner of each *MaxSteps field follows the winning maximum when
// o carries one; use AddTagged to tag o's maxima with the thread they
// came from.
func (s *OpStats) Add(o *OpStats) { s.merge(o, 0) }

// AddTagged accumulates o into s like Add, additionally recording
// thread as the owner of any per-operation maximum that o contributes.
// Harness merges use it so a violation report can name the thread that
// hit the bound rather than only the merged maximum.
func (s *OpStats) AddTagged(o *OpStats, thread int) { s.merge(o, uint32(thread)+1) }

func (s *OpStats) merge(o *OpStats, by uint32) {
	s.DeRefs += o.DeRefs
	s.DeRefSteps += o.DeRefSteps
	if o.DeRefMaxSteps > s.DeRefMaxSteps {
		s.DeRefMaxSteps = o.DeRefMaxSteps
		s.DeRefMaxBy = ownerOf(o.DeRefMaxBy, by)
	}
	s.HelpsGiven += o.HelpsGiven
	s.HelpsReceived += o.HelpsReceived
	s.HelpScans += o.HelpScans
	s.AnnScanViolations += o.AnnScanViolations
	s.Allocs += o.Allocs
	s.AllocSteps += o.AllocSteps
	if o.AllocMaxSteps > s.AllocMaxSteps {
		s.AllocMaxSteps = o.AllocMaxSteps
		s.AllocMaxBy = ownerOf(o.AllocMaxBy, by)
	}
	s.AllocHelped += o.AllocHelped
	s.AllocLocal += o.AllocLocal
	s.Frees += o.Frees
	s.FreeSteps += o.FreeSteps
	if o.FreeMaxSteps > s.FreeMaxSteps {
		s.FreeMaxSteps = o.FreeMaxSteps
		s.FreeMaxBy = ownerOf(o.FreeMaxBy, by)
	}
	s.FreeLocal += o.FreeLocal
	s.CASFailures += o.CASFailures
	s.PinFastPaths += o.PinFastPaths
	s.DeferredDecs += o.DeferredDecs
	s.DeferredFlushes += o.DeferredFlushes
	s.Retired += o.Retired
	s.Scans += o.Scans
	s.DeRefHist.Merge(&o.DeRefHist)
	s.AllocHist.Merge(&o.AllocHist)
	s.FreeHist.Merge(&o.FreeHist)
}

// ownerOf picks the arg-max owner for a merged maximum: the source's own
// recorded owner when it has one (the source is itself a merged
// snapshot), else the merger-supplied tag.
func ownerOf(recorded, tag uint32) uint32 {
	if recorded != 0 {
		return recorded
	}
	return tag
}

// NoteDeRef records one DeRef that took steps loop iterations.
func (s *OpStats) NoteDeRef(steps uint64) {
	s.DeRefs++
	s.DeRefSteps += steps
	s.DeRefMaxSteps = maxU64(s.DeRefMaxSteps, steps)
	s.DeRefHist.Note(steps)
}

// NoteAlloc records one Alloc that took steps loop iterations.
func (s *OpStats) NoteAlloc(steps uint64) {
	s.Allocs++
	s.AllocSteps += steps
	s.AllocMaxSteps = maxU64(s.AllocMaxSteps, steps)
	s.AllocHist.Note(steps)
}

// NoteFree records one free-list insertion that took steps attempts.
func (s *OpStats) NoteFree(steps uint64) {
	s.Frees++
	s.FreeSteps += steps
	s.FreeMaxSteps = maxU64(s.FreeMaxSteps, steps)
	s.FreeHist.Note(steps)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
