// Session-store example: a concurrent key-value session table on the
// wait-free store behind wfrc-kv.  More front-end goroutines run than
// the scheme has thread slots — each front-end leases a slot from the
// pool for a batch of requests and hands it back, so the example
// exercises the same lease-churn path as the network server, including
// the per-release announcement-row reuse audit and the final quiescent
// leak audit.
//
//	go run ./examples/sessionstore
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"wfrc/internal/server"
	"wfrc/internal/slotpool"
)

const (
	frontends = 12 // deliberately more than slots: front-ends share leases
	slots     = 4
	requests  = 25000
	batch     = 500 // requests per lease before handing the slot back
	keySpace  = 2048
)

func main() {
	store, err := server.NewStore(server.StoreConfig{
		Slots:   slots,
		Nodes:   1 << 16,
		Buckets: 256,
	})
	if err != nil {
		panic(err)
	}
	pool, err := slotpool.New(slotpool.Config{Slots: slots}, store.Schemes()...)
	if err != nil {
		panic(err)
	}

	var created, expired, touched, hits, misses atomic.Int64
	var wg sync.WaitGroup
	for fe := 0; fe < frontends; fe++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 1))
			for done := 0; done < requests; {
				l, err := pool.Lease(context.Background())
				if err != nil {
					panic(err)
				}
				for b := 0; b < batch && done < requests; b, done = b+1, done+1 {
					session := uint64(rng.Intn(keySpace))
					switch rng.Intn(5) {
					case 0: // login: create (or refresh) the session
						inserted, err := store.Set(l, session, uint64(done))
						if err != nil {
							panic(err)
						}
						if inserted {
							created.Add(1)
						}
					case 1: // logout: expire it
						if store.Delete(l, session) {
							expired.Add(1)
						}
					case 2: // activity: bump last-seen if unchanged since read
						if old, ok := store.Get(l, session); ok {
							if swapped, _ := store.CompareAndSet(l, session, old, uint64(done)); swapped {
								touched.Add(1)
							}
						}
					default: // request: look it up
						if _, ok := store.Get(l, session); ok {
							hits.Add(1)
						} else {
							misses.Add(1)
						}
					}
				}
				// Hand the slot back: the pool audits the announcement rows
				// before the next front-end may lease them.
				l.Release()
			}
		}(fe)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := pool.Drain(ctx); err != nil {
		panic(err)
	}
	st := pool.Stats()
	pool.Close()

	live := store.Len()
	fmt.Printf("created=%d expired=%d touched=%d live=%d (created-expired=%d)\n",
		created.Load(), expired.Load(), touched.Load(), live, created.Load()-expired.Load())
	fmt.Printf("lookups: %d hits, %d misses\n", hits.Load(), misses.Load())
	fmt.Printf("leases: %d grants over %d slots by %d front-ends (wait p99=%v), %d reuse-audit violations\n",
		st.Leases, slots, frontends, time.Duration(st.WaitP99Ns), st.Violations)
	if int64(live) != created.Load()-expired.Load() {
		panic("session accounting does not balance")
	}
	if st.Violations != 0 {
		panic("slot reuse audit flagged a dirty announcement row")
	}
	if errs := store.Audit(); len(errs) != 0 {
		panic(fmt.Sprintf("quiescent audit: %v", errs))
	}
	fmt.Println("ok")
}
