// Benchmarks for the claims DESIGN.md §4 lists: one benchmark family
// per E-row that is a measurement, each over all seven schemes.  The
// rows that are bounds are asserted by tests instead (the table names
// them), and the numbers that gate a PR come from benchmark/ (fresh
// processes, medians, quartiles); these testing.B benches are the
// per-scheme view `go test -bench` can run anywhere.
package wfrc_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wfrc"
	"wfrc/internal/core"
	"wfrc/internal/schemes"
)

// benchSchemes enumerates every memory-management scheme.
func benchSchemes(b *testing.B, acfg wfrc.ArenaConfig, hazardSlots int,
	run func(b *testing.B, s wfrc.Scheme)) {
	for _, f := range schemes.Factories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			s, err := f.New(acfg, schemes.Options{
				Threads:     benchThreads(),
				HazardSlots: hazardSlots,
			})
			if err != nil {
				b.Fatal(err)
			}
			run(b, s)
		})
	}
}

// benchThreads bounds concurrent registrations for RunParallel: the
// parallelism knob (at most 4 in this file) times GOMAXPROCS, plus setup
// slack.  Keeping NR_THREADS close to the real worker count matters for
// fairness: the wait-free scheme's helping scan is O(NR_THREADS), and the
// paper sizes NR_THREADS to the participating threads.
func benchThreads() int { return 4*runtime.GOMAXPROCS(0) + 4 }

// parallelBody registers one thread per RunParallel goroutine and calls
// op until the iteration budget is exhausted.
func parallelBody(b *testing.B, s wfrc.Scheme, op func(t wfrc.Thread, rng *rand.Rand, i int) error) {
	b.RunParallel(func(pb *testing.PB) {
		t, err := s.Register()
		if err != nil {
			b.Error(err)
			return
		}
		defer t.Unregister()
		rng := rand.New(rand.NewSource(int64(t.ID())*977 + 13))
		i := 0
		for pb.Next() {
			if err := op(t, rng, i); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

const benchPQLevels = 8

func pqArena(nodes int) wfrc.ArenaConfig {
	return wfrc.ArenaConfig{
		Nodes: nodes, LinksPerNode: benchPQLevels, ValsPerNode: 4,
		RootLinks: benchPQLevels + 2,
	}
}

// BenchmarkE1PQueueMixed is experiment E1: the paper's priority-queue
// workload (50/50 insert/deleteMin, prefill 1000) per scheme.
func BenchmarkE1PQueueMixed(b *testing.B) {
	benchSchemes(b, pqArena(1<<16), 2*benchPQLevels+8, func(b *testing.B, s wfrc.Scheme) {
		pq, err := wfrc.NewPQueue(s, wfrc.PQueueConfig{MaxLevel: benchPQLevels})
		if err != nil {
			b.Fatal(err)
		}
		t, _ := s.Register()
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 1000; i++ {
			if err := pq.Insert(t, uint64(rng.Intn(1<<20)), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		t.Unregister()
		b.ResetTimer()
		parallelBody(b, s, func(t wfrc.Thread, rng *rand.Rand, i int) error {
			if rng.Intn(2) == 0 {
				return pq.Insert(t, uint64(rng.Intn(1<<20)), uint64(i))
			}
			pq.DeleteMin(t)
			return nil
		})
	})
}

// BenchmarkE2DeRefAdversarial is experiment E2: DeRef cost for a reader
// while one writer continuously swings the link.  Compare waitfree
// (bounded steps) against valois (retry loop).
func BenchmarkE2DeRefAdversarial(b *testing.B) {
	for _, name := range []string{"waitfree", "valois"} {
		name := name
		b.Run(name, func(b *testing.B) {
			f, _ := schemes.ByName(name)
			s, err := f.New(wfrc.ArenaConfig{Nodes: 256, RootLinks: 1}, schemes.Options{Threads: 2})
			if err != nil {
				b.Fatal(err)
			}
			root := s.Arena().NewRoot()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				t, err := s.Register()
				if err != nil {
					return
				}
				defer t.Unregister()
				for {
					select {
					case <-stop:
						return
					default:
					}
					n, err := t.Alloc()
					if err != nil {
						continue
					}
					old := t.DeRef(root)
					t.CASLink(root, old, wfrc.MakePtr(n, false))
					t.Release(old.Handle())
					t.Release(n)
				}
			}()
			reader, err := s.Register()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := reader.DeRef(root)
				reader.Release(p.Handle())
			}
			b.StopTimer()
			st := reader.Stats()
			b.ReportMetric(float64(st.DeRefSteps)/float64(st.DeRefs), "steps/deref")
			b.ReportMetric(float64(st.DeRefMaxSteps), "max-steps")
			reader.Unregister()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkE3AllocFree is experiment E3: raw allocator throughput,
// alloc/release pairs per scheme.
func BenchmarkE3AllocFree(b *testing.B) {
	benchSchemes(b, wfrc.ArenaConfig{Nodes: 1 << 15}, 4, func(b *testing.B, s wfrc.Scheme) {
		parallelBody(b, s, func(t wfrc.Thread, rng *rand.Rand, i int) error {
			h, err := t.Alloc()
			if err != nil {
				return err
			}
			t.Release(h)
			t.Retire(h)
			return nil
		})
	})
}

// BenchmarkE4PQueueOversubscribed is experiment E4's load point: the
// E1 workload with 4x oversubscription, where latency tails separate the
// schemes.  Tail percentiles for the served form of this load are
// benchmark/'s client.latency_p99_us and p999.
func BenchmarkE4PQueueOversubscribed(b *testing.B) {
	benchSchemes(b, pqArena(1<<16), 2*benchPQLevels+8, func(b *testing.B, s wfrc.Scheme) {
		pq, err := wfrc.NewPQueue(s, wfrc.PQueueConfig{MaxLevel: benchPQLevels})
		if err != nil {
			b.Fatal(err)
		}
		t, _ := s.Register()
		for i := 0; i < 1000; i++ {
			if err := pq.Insert(t, uint64(i*977%4096), uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
		t.Unregister()
		b.SetParallelism(4)
		b.ResetTimer()
		parallelBody(b, s, func(t wfrc.Thread, rng *rand.Rand, i int) error {
			if rng.Intn(2) == 0 {
				return pq.Insert(t, uint64(rng.Intn(1<<20)), uint64(i))
			}
			pq.DeleteMin(t)
			return nil
		})
	})
}

// BenchmarkE5DeRefUncontended is experiment E5a: the single-thread
// DeRef+Release round trip — the announcement overhead versus the
// baselines' cheaper reads.
func BenchmarkE5DeRefUncontended(b *testing.B) {
	benchSchemes(b, wfrc.ArenaConfig{Nodes: 8, RootLinks: 1}, 0, func(b *testing.B, s wfrc.Scheme) {
		ar := s.Arena()
		root := ar.NewRoot()
		t, err := s.Register()
		if err != nil {
			b.Fatal(err)
		}
		defer t.Unregister()
		h, err := t.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		t.StoreLink(root, wfrc.MakePtr(h, false))
		t.Release(h)
		t.BeginOp()
		defer t.EndOp()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := t.DeRef(root)
			t.Release(p.Handle())
		}
	})
}

// BenchmarkE5CASLinkScan is experiment E5b: the cost of the wait-free
// CompareAndSwapLink as NR_THREADS (and so the HelpDeRef announcement
// scan) grows.
func BenchmarkE5CASLinkScan(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		n := n
		b.Run("NR="+itoa(n), func(b *testing.B) {
			ar := wfrc.MustNewArena(wfrc.ArenaConfig{Nodes: 8, RootLinks: 1})
			s, err := core.New(ar, core.Config{Threads: n})
			if err != nil {
				b.Fatal(err)
			}
			root := ar.NewRoot()
			t, err := s.RegisterCore()
			if err != nil {
				b.Fatal(err)
			}
			defer t.Unregister()
			x, _ := t.Alloc()
			y, _ := t.Alloc()
			t.StoreLink(root, wfrc.MakePtr(x, false))
			cur, next := x, y
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !t.CASLink(root, wfrc.MakePtr(cur, false), wfrc.MakePtr(next, false)) {
					b.Fatal("uncontended CASLink failed")
				}
				cur, next = next, cur
			}
			b.StopTimer()
			t.CASLink(root, wfrc.MakePtr(cur, false), wfrc.NilPtr)
			t.Release(x)
			t.Release(y)
		})
	}
}

// BenchmarkE5DeRefWithScanner is experiment E5c: the DeRef+Release
// round trip of E5a while a second thread CASes a different root link,
// so its HelpDeRef reads the reader's announcement row (H2/H3) on every
// update.  It prices the cross-core cost of the reader's announcement
// writes, which the single-threaded E5a and ladder rung cannot show.
func BenchmarkE5DeRefWithScanner(b *testing.B) {
	ar := wfrc.MustNewArena(wfrc.ArenaConfig{Nodes: 8, RootLinks: 2})
	s, err := core.New(ar, core.Config{Threads: 2})
	if err != nil {
		b.Fatal(err)
	}
	rootA, rootB := ar.NewRoot(), ar.NewRoot()
	reader, err := s.RegisterCore()
	if err != nil {
		b.Fatal(err)
	}
	defer reader.Unregister()
	h, _ := reader.Alloc()
	reader.StoreLink(rootA, wfrc.MakePtr(h, false))
	reader.Release(h)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t, err := s.RegisterCore()
		if err != nil {
			b.Error(err)
			return
		}
		defer t.Unregister()
		x, _ := t.Alloc()
		y, _ := t.Alloc()
		t.StoreLink(rootB, wfrc.MakePtr(x, false))
		cur, next := x, y
		for {
			select {
			case <-stop:
				t.CASLink(rootB, wfrc.MakePtr(cur, false), wfrc.NilPtr)
				t.Release(x)
				t.Release(y)
				return
			default:
			}
			t.CASLink(rootB, wfrc.MakePtr(cur, false), wfrc.MakePtr(next, false))
			cur, next = next, cur
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := reader.DeRef(rootA)
		reader.Release(p.Handle())
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkE6Stack and BenchmarkE6Queue are experiment E6: the
// compatibility structures under every scheme.
func BenchmarkE6Stack(b *testing.B) {
	acfg := wfrc.ArenaConfig{Nodes: 1 << 14, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 4}
	benchSchemes(b, acfg, 0, func(b *testing.B, s wfrc.Scheme) {
		st, err := wfrc.NewStack(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		parallelBody(b, s, func(t wfrc.Thread, rng *rand.Rand, i int) error {
			if err := st.Push(t, uint64(i)); err != nil {
				return err
			}
			st.Pop(t)
			return nil
		})
	})
}

func BenchmarkE6Queue(b *testing.B) {
	acfg := wfrc.ArenaConfig{Nodes: 1 << 14, LinksPerNode: 1, ValsPerNode: 1, RootLinks: 4}
	benchSchemes(b, acfg, 0, func(b *testing.B, s wfrc.Scheme) {
		setup, err := s.Register()
		if err != nil {
			b.Fatal(err)
		}
		q, err := wfrc.NewQueue(s, setup)
		if err != nil {
			b.Fatal(err)
		}
		setup.Unregister()
		b.ResetTimer()
		parallelBody(b, s, func(t wfrc.Thread, rng *rand.Rand, i int) error {
			if err := q.Enqueue(t, uint64(i)); err != nil {
				return err
			}
			q.Dequeue(t)
			return nil
		})
	})
}

// BenchmarkE7OOMDetection is experiment E7: the cost of the footnote-4
// bounded-retry out-of-memory report on an exhausted arena.
func BenchmarkE7OOMDetection(b *testing.B) {
	ar := wfrc.MustNewArena(wfrc.ArenaConfig{Nodes: 1})
	s, err := core.New(ar, core.Config{Threads: 1})
	if err != nil {
		b.Fatal(err)
	}
	t, err := s.RegisterCore()
	if err != nil {
		b.Fatal(err)
	}
	defer t.Unregister()
	h, err := t.Alloc()
	if err != nil {
		b.Fatal(err)
	}
	defer t.Release(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Alloc(); !errors.Is(err, core.ErrOutOfMemory) {
			b.Fatal("expected out-of-memory")
		}
	}
}

// BenchmarkE8ListChurn is experiment E8's workload: mixed ordered-list
// operations per scheme (the audit itself is schemes.AuditRC at the end
// of ds/list's concurrent tests and of TestConformanceChurn).
func BenchmarkE8ListChurn(b *testing.B) {
	acfg := wfrc.ArenaConfig{Nodes: 1 << 14, LinksPerNode: 1, ValsPerNode: 2, RootLinks: 4}
	benchSchemes(b, acfg, 0, func(b *testing.B, s wfrc.Scheme) {
		l, err := wfrc.NewList(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		parallelBody(b, s, func(t wfrc.Thread, rng *rand.Rand, i int) error {
			key := uint64(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				_, err := l.Insert(t, key, key)
				return err
			case 1:
				l.Delete(t, key)
			default:
				l.Contains(t, key)
			}
			return nil
		})
	})
}
