package pqueue

import (
	"container/heap"
	"testing"

	"wfrc/internal/schemes"
)

type u64Heap []uint64

func (h u64Heap) Len() int            { return len(h) }
func (h u64Heap) Less(i, j int) bool  { return h[i] < h[j] }
func (h u64Heap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *u64Heap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *u64Heap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// FuzzPQueueVsHeap drives the skiplist priority queue with byte-encoded
// operation sequences and checks DeleteMin/PeekMin equivalence against
// container/heap, over the wait-free scheme with a per-input level and
// reference-count audit.
//
// Run with `go test -fuzz FuzzPQueueVsHeap ./internal/ds/pqueue`.
func FuzzPQueueVsHeap(f *testing.F) {
	f.Add([]byte{0x05, 0x03, 0x80, 0x80})
	f.Add([]byte{0x10, 0x10, 0x10, 0x90, 0x90, 0x90, 0x90})
	f.Add([]byte{0x3f, 0x00, 0xc0, 0x80, 0x01, 0x80})
	factory, _ := schemes.ByName("waitfree")

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			return
		}
		s, err := factory.New(arenaCfg(512, 4), schemes.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		th, _ := s.Register()
		defer th.Unregister()
		pq := MustNew(s, Config{MaxLevel: 4})
		model := &u64Heap{}
		heap.Init(model)

		for _, op := range ops {
			key := uint64(op & 0x3f)
			switch op >> 6 {
			case 0, 1: // insert (duplicates allowed)
				if err := pq.Insert(th, key, key); err != nil {
					t.Skip("arena exhausted")
				}
				heap.Push(model, key)
			case 2: // deleteMin
				k, _, ok := pq.DeleteMin(th)
				if model.Len() == 0 {
					if ok {
						t.Fatalf("DeleteMin on empty returned %d", k)
					}
					continue
				}
				want := heap.Pop(model).(uint64)
				if !ok || k != want {
					t.Fatalf("DeleteMin = %d,%v, want %d", k, ok, want)
				}
			default: // peek
				k, _, ok := pq.PeekMin(th)
				if model.Len() == 0 {
					if ok {
						t.Fatalf("PeekMin on empty returned %d", k)
					}
					continue
				}
				if !ok || k != (*model)[0] {
					t.Fatalf("PeekMin = %d,%v, want %d", k, ok, (*model)[0])
				}
			}
		}
		if pq.Len() != model.Len() {
			t.Fatalf("Len = %d, model %d", pq.Len(), model.Len())
		}
		checkLevels(t, pq)
		schemes.Flush(th)
		for _, err := range schemes.AuditRC(s, nil) {
			t.Error(err)
		}
	})
}
