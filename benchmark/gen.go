package main

import (
	"encoding/binary"
	"hash/fnv"
)

// The four workloads.  Later issues refer to them by these names.
const (
	wlPQChurn  = "pq-churn"
	wlMapRead  = "map-read"
	wlKVGetRTT = "kv-get-rtt"
	wlKVResp   = "kv-resp-pipeline"
)

var workloadNames = []string{wlPQChurn, wlMapRead, wlKVGetRTT, wlKVResp}

// Workload geometry (ISSUE "Workloads" table).
const (
	pqKeySpace  = 1 << 20 // pq-churn priorities are uniform in [0, 2^20)
	pqPrefill   = 4096
	pqArena     = 1 << 16
	pqMaxLevel  = 8
	mapKeySpace = 32768 // map-read keys; even keys are prefilled
	mapBuckets  = 1024
	kvKeys      = 16384 // both KV workloads; every key is prefilled
	respPayload = 64    // bytes per RESP value: the 64 B value class
	respDepth   = 32    // RESP pipeline depth
)

// opKind is what one generated operation does.  Every workload and every
// ladder rung interprets the same three kinds: a read (Get, GET,
// PeekMin), an insert-or-overwrite (Insert, SET) and a removal (Delete,
// DeleteMin).
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opRemove
)

type op struct {
	kind opKind
	key  uint64
}

// rng is splitmix64: tiny, allocation-free, and every worker's sequence
// is a pure function of (seed, worker), which is what makes the op
// stream reproducible from -seed alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// mix64 is the splitmix64 finalizer, used for values and prefill keys.
func mix64(x uint64) uint64 {
	r := rng{s: x}
	return r.next()
}

// stream generates one worker's operations for one workload.  The
// program under test never sees the seed, only the ops.
type stream struct {
	workload string
	r        rng
	worker   uint64
	workers  uint64
	n        uint64 // ops generated so far; drives strict alternation
}

func newStream(workload string, seed uint64, worker, workers int) *stream {
	return &stream{
		workload: workload,
		r:        rng{s: mix64(seed) ^ mix64(uint64(worker)+0x5bd1e995)},
		worker:   uint64(worker),
		workers:  uint64(workers),
	}
}

func (s *stream) next() op {
	x := s.r.next()
	s.n++
	switch s.workload {
	case wlPQChurn:
		// Strict alternation keeps the queue at prefill ± W.
		if s.n&1 == 1 {
			return op{opWrite, (x >> 8) & (pqKeySpace - 1)}
		}
		return op{opRemove, 0}
	case wlMapRead:
		key := (x >> 8) % mapKeySpace
		switch sel := x % 100; {
		case sel < 90:
			return op{opRead, key}
		case sel < 95:
			return op{opWrite, s.ownKey(key, mapKeySpace)}
		default:
			return op{opRemove, s.ownKey(key, mapKeySpace)}
		}
	case wlKVGetRTT:
		key := s.ownKey((x>>8)%kvKeys, kvKeys)
		if x%100 < 90 {
			return op{opRead, key}
		}
		return op{opWrite, key}
	default: // wlKVResp
		key := s.ownKey((x>>8)%kvKeys, kvKeys)
		if x&1 == 0 {
			return op{opRead, key}
		}
		return op{opWrite, key}
	}
}

// ownKey snaps a key into this worker's residue class modulo W.
//
// map-read applies it to update keys: only worker w ever inserts or
// deletes keys ≡ w (mod W), so it knows exactly which of them are
// present and can verify every Insert/Delete/Get result on them, not
// just the values.
//
// The KV workloads apply it to every key.  The store installs a SET by
// node replacement, which list.Replace documents as not atomic: a GET
// racing another connection's SET of the same key may see the key
// absent.  That is the cache tier's contract, not a failure, but a
// workload must be one on which no operation fails — so connections own
// disjoint key classes, and within one connection commands execute in
// order.  The keys together still cover the whole key space uniformly.
func (s *stream) ownKey(key, space uint64) uint64 {
	key = key - key%s.workers + s.worker
	if key >= space {
		key -= s.workers
	}
	return key
}

// streamHash fingerprints the first n ops of every worker's stream; the
// determinism test and the printed report use it to show that a seed
// fixes the inputs.
func streamHash(workload string, seed uint64, workers, n int) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for w := 0; w < workers; w++ {
		s := newStream(workload, seed, w, workers)
		for i := 0; i < n; i++ {
			o := s.next()
			b[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(b[1:], o.key)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// valueOf is the value every structure and the native KV protocol store
// under key: a deterministic function of the key with bit 63 clear (the
// native protocol reserves it for the value layer).
func valueOf(key uint64) uint64 { return mix64(key^0xa5a5a5a5) &^ (1 << 63) }

// appendPayload appends the RESP value stored under key: the key
// followed by a key-derived pattern, respPayload bytes in all.
func appendPayload(dst []byte, key uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, key)
	p := valueOf(key)
	for i := 8; i < respPayload; i++ {
		dst = append(dst, byte(p>>(8*(uint(i)&7)))^byte(i))
	}
	return dst
}

// pqPrefillKey is the i-th prefilled priority of a pq-churn run.
func pqPrefillKey(seed uint64, i int) uint64 {
	return mix64(mix64(seed)+uint64(i)) & (pqKeySpace - 1)
}
