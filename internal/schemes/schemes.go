// Package schemes enumerates the memory-management schemes in this
// repository behind a uniform constructor, so tests, benchmarks and the
// torture suite can run the same data-structure code over every scheme.
package schemes

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/baseline/epoch"
	"wfrc/internal/baseline/hazard"
	"wfrc/internal/baseline/hyaline"
	"wfrc/internal/baseline/lockrc"
	"wfrc/internal/baseline/valois"
	"wfrc/internal/core"
	"wfrc/internal/mm"
)

// Options tunes scheme construction.
type Options struct {
	// Threads is the maximum number of concurrently registered threads.
	Threads int
	// HazardSlots overrides the hazard-pointer scheme's slots per thread
	// (0 keeps its default).  Structures that hold many simultaneous
	// references — the skiplist holds about 2·(maxLevel+2) — need this
	// raised.
	HazardSlots int
	// AllocRetryLimit overrides the out-of-memory retry bound of the
	// schemes that have one (0 keeps defaults).
	AllocRetryLimit int
	// RetireThreshold overrides the hazard/epoch reclamation trigger
	// (0 keeps defaults).  Deferred-reclamation schemes retain up to
	// threads*threshold nodes, so benchmarks bound it explicitly.
	RetireThreshold int
}

// Factory names and constructs one memory-management scheme.
type Factory struct {
	// Name is the scheme identifier used in test names and benchmark
	// output: waitfree, waitfree-deferred, valois, hazard, epoch,
	// hyaline, lockrc.
	Name string
	// New builds a fresh scheme over a fresh arena.
	New func(acfg arena.Config, opts Options) (mm.Scheme, error)
}

// over adapts a scheme constructor to Factory.New: a fresh arena per
// scheme, and the concrete *Scheme returned as the interface only when
// construction succeeded (a typed nil would read as non-nil).
func over[S mm.Scheme](build func(*arena.Arena, Options) (S, error)) func(arena.Config, Options) (mm.Scheme, error) {
	return func(acfg arena.Config, o Options) (mm.Scheme, error) {
		ar, err := arena.New(acfg)
		if err != nil {
			return nil, err
		}
		s, err := build(ar, o)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// Factories returns all seven schemes: the paper's wait-free
// contribution, its deferred-decrement variant, and the five baselines.
func Factories() []Factory {
	newCore := func(deferred bool) func(arena.Config, Options) (mm.Scheme, error) {
		return over(func(ar *arena.Arena, o Options) (*core.Scheme, error) {
			return core.New(ar, core.Config{
				Threads:         o.Threads,
				AllocRetryLimit: o.AllocRetryLimit,
				Deferred:        deferred,
			})
		})
	}
	return []Factory{
		{Name: "waitfree", New: newCore(false)},
		{Name: "waitfree-deferred", New: newCore(true)},
		{Name: "valois", New: over(func(ar *arena.Arena, o Options) (*valois.Scheme, error) {
			return valois.New(ar, valois.Config{Threads: o.Threads, AllocRetryLimit: o.AllocRetryLimit})
		})},
		{Name: "hazard", New: over(func(ar *arena.Arena, o Options) (*hazard.Scheme, error) {
			return hazard.New(ar, hazard.Config{
				Threads:         o.Threads,
				SlotsPerThread:  o.HazardSlots,
				AllocRetryLimit: o.AllocRetryLimit,
				RetireThreshold: o.RetireThreshold,
			})
		})},
		{Name: "epoch", New: over(func(ar *arena.Arena, o Options) (*epoch.Scheme, error) {
			return epoch.New(ar, epoch.Config{
				Threads:         o.Threads,
				AllocRetryLimit: o.AllocRetryLimit,
				RetireThreshold: o.RetireThreshold,
			})
		})},
		{Name: "hyaline", New: over(func(ar *arena.Arena, o Options) (*hyaline.Scheme, error) {
			return hyaline.New(ar, hyaline.Config{
				Threads:         o.Threads,
				RetireThreshold: o.RetireThreshold,
				AllocRetryLimit: o.AllocRetryLimit,
			})
		})},
		{Name: "lockrc", New: over(func(ar *arena.Arena, o Options) (*lockrc.Scheme, error) {
			return lockrc.New(ar, lockrc.Config{Threads: o.Threads})
		})},
	}
}

// ByName returns the factory with the given name.
func ByName(name string) (Factory, error) {
	for _, f := range Factories() {
		if f.Name == name {
			return f, nil
		}
	}
	return Factory{}, fmt.Errorf("schemes: unknown scheme %q", name)
}

// Names lists the factory names in canonical order.
func Names() []string {
	fs := Factories()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

// Flush applies any reclamation state buffered thread-locally (the
// waitfree-deferred ZCT and sticky pins, Hyaline's retirement batch) by
// draining every thread that implements the mm.Flusher capability, so a
// subsequent AuditRC sees exact counts; it is a no-op for threads
// without buffered state.  Like AuditRC it is a quiescence-only call,
// and each thread must be flushed from its own goroutine.
func Flush(threads ...mm.Thread) {
	// Two passes: a flush keeps ZCT candidates that another thread's
	// sticky pin cache still publishes, and that cache is only purged by
	// that thread's own flush — so a first round purges every cache and
	// a second round reclaims the candidates the first round kept.
	// (Hyaline's orphan adoption has the same shape: a first pass can
	// park an undispatchable batch in limbo that a second pass adopts.)
	for pass := 0; pass < 2; pass++ {
		for _, th := range threads {
			if f, ok := th.(mm.Flusher); ok {
				f.Flush()
			}
		}
	}
}

// AuditRC runs the quiescence leak audit on schemes that support it —
// exact reference counts on waitfree, valois and lockrc; retirement
// conservation on hyaline — and returns nil for the others.
func AuditRC(s mm.Scheme, extraRefs map[arena.Handle]int) []error {
	switch cs := s.(type) {
	case *core.Scheme:
		return cs.Audit(extraRefs)
	case *valois.Scheme:
		return cs.Audit(extraRefs)
	case *lockrc.Scheme:
		return cs.Audit(extraRefs)
	case *hyaline.Scheme:
		return cs.Audit(extraRefs)
	default:
		return nil
	}
}
