package server

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"wfrc/internal/arena"
	"wfrc/internal/core"
	"wfrc/internal/ds/hashmap"
	"wfrc/internal/mm"
	"wfrc/internal/slotpool"
	"wfrc/internal/value"
)

// StoreConfig parameterizes the store.
type StoreConfig struct {
	// Slots is the scheme's thread-slot count — the paper's NR_THREADS,
	// and the slotpool lease capacity (default 8).
	Slots int
	// Nodes sizes the arena: the store's whole node capacity (default
	// 1<<18; README "Capacity model").
	Nodes int
	// Buckets is the hashmap bucket count (power of two).  Zero derives
	// it from Nodes, one bucket per nodesPerBucket nodes (DESIGN.md §9).
	Buckets int
	// MaxValue, when positive, enables the variable-size value layer
	// (internal/value): RESP SETs carry byte payloads up to MaxValue
	// bytes, stored in size-classed blocks and freed by the node-free
	// hook when the owning node's reference count reclaims it
	// (DESIGN.md §14).  Zero keeps the store native-only: values are
	// bare uint64 words and nothing outside the arena is allocated.
	// MaxValue may not exceed the largest default value class (16 KiB).
	MaxValue int
}

func (c *StoreConfig) defaults() {
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.Nodes == 0 {
		c.Nodes = 1 << 18
	}
	if c.Buckets == 0 {
		c.Buckets = minBuckets
		for c.Buckets*2 <= c.Nodes/nodesPerBucket {
			c.Buckets *= 2
		}
	}
}

// The derived index geometry: one bucket (8 bytes of root link, untouched
// until used) per nodesPerBucket nodes of arena, rounded down to a
// power of two.  With the arena full a chain averages between
// nodesPerBucket and twice that, so a store operation visits O(1) nodes
// whatever the capacity.
const (
	nodesPerBucket = 4
	minBuckets     = 16
)

// Store is the wait-free KV store: one arena, one wait-free scheme and
// one hashmap, so every thread slot reaches every free node (the
// footnote-4 out-of-memory verdict is sound) and the paper's bounds are
// stated once for one n.  Every operation runs on the scheme thread the
// caller's slotpool lease holds, so the store has no thread bookkeeping.
type Store struct {
	cfg    StoreConfig
	scheme *core.Scheme
	m      *hashmap.Map
	// ops counts store operations, one padded cell per slot so
	// connections on different cores never share a line on the hot path.
	ops []mm.PadU64
	// values is the variable-size payload layer, nil when
	// StoreConfig.MaxValue is zero.  Its Thread handles are indexed by
	// slot (lease) ID: one goroutine drives a slot at a time.
	values *value.Store
}

// ArenaConfig returns the arena geometry this configuration gives the
// store.
func (c StoreConfig) ArenaConfig() arena.Config {
	cc := c
	cc.defaults()
	return arena.Config{
		Nodes:        cc.Nodes,
		LinksPerNode: 1,
		ValsPerNode:  2,
		RootLinks:    cc.Buckets + 2,
	}
}

// NewStore builds the arena, the scheme and the index.
func NewStore(cfg StoreConfig) (*Store, error) {
	cfg.defaults()
	ar, err := arena.New(cfg.ArenaConfig())
	if err != nil {
		return nil, fmt.Errorf("server: arena: %w", err)
	}
	s, err := core.New(ar, core.Config{Threads: cfg.Slots})
	if err != nil {
		return nil, fmt.Errorf("server: scheme: %w", err)
	}
	m, err := hashmap.New(s, hashmap.Config{Buckets: cfg.Buckets})
	if err != nil {
		return nil, fmt.Errorf("server: map: %w", err)
	}
	st := &Store{cfg: cfg, scheme: s, m: m, ops: make([]mm.PadU64, cfg.Slots)}
	if cfg.MaxValue > 0 {
		vs, err := value.New(value.Config{Threads: cfg.Slots})
		if err != nil {
			return nil, fmt.Errorf("server: value store: %w", err)
		}
		if cfg.MaxValue > vs.MaxPayload() {
			return nil, fmt.Errorf("server: MaxValue %d exceeds the largest value class (%d bytes)",
				cfg.MaxValue, vs.MaxPayload())
		}
		st.values = vs
		// The hook runs on the reclamation winner's thread with exclusive
		// ownership of the node (core lines R4/F1): free the blocks behind
		// a ref-tagged value word and clear the word, so a reused node can
		// never carry a stale ref into a second free.
		s.SetNodeFreeHook(func(threadID int, h arena.Handle) {
			if w := ar.Val(h, 1); value.IsRef(w) {
				vs.Free(threadID, w)
				ar.SetVal(h, 1, 0)
			}
		})
	}
	return st, nil
}

// Values returns the variable-size value layer, nil when disabled.
func (st *Store) Values() *value.Store { return st.values }

// MaxValue is the largest byte payload the store accepts (0 when the
// value layer is disabled).
func (st *Store) MaxValue() int {
	if st.values == nil {
		return 0
	}
	return st.cfg.MaxValue
}

// Schemes returns the store's one scheme as a one-element slice, the
// shape benchmark/ spreads into slotpool.New.  Kept for benchmark/; goes
// with the next benchmark PR.
func (st *Store) Schemes() []mm.Scheme { return []mm.Scheme{st.scheme} }

// CoreSchemes returns the store's one scheme, with its concrete type, as
// a one-element slice: benchmark/ ranges over it to attach tracers.
// Kept for benchmark/; goes with the next benchmark PR.
func (st *Store) CoreSchemes() []*core.Scheme { return []*core.Scheme{st.scheme} }

// Buckets returns the hashmap bucket count, derived or explicit.
func (st *Store) Buckets() int { return st.cfg.Buckets }

// Get reads key using the lease's thread.
func (st *Store) Get(l slotpool.Lease, key uint64) (uint64, bool) {
	st.ops[l.Slot()].Add(1)
	return st.m.Get(l.Thread(), key)
}

// ErrReservedBit rejects native Set/CAS words that collide with the
// value layer's tag bit (proto doc: bit 63 is reserved).
var ErrReservedBit = errors.New("server: value bit 63 is reserved for the value layer (see protocol doc)")

// Set upserts key→value; it reports whether a new entry was inserted.
//
// With the value layer enabled the word is installed by node
// replacement, not in-place overwrite: the key may currently hold a
// block-backed payload, and overwriting its tagged word in place would
// orphan the blocks (and free them under a concurrent reader if we
// freed eagerly).  Replacement retires the old node, so the node-free
// hook releases any blocks exactly once.  Tagged words are rejected —
// a native client must not be able to forge a block ref.
func (st *Store) Set(l slotpool.Lease, key, value uint64) (bool, error) {
	st.ops[l.Slot()].Add(1)
	if st.values != nil {
		if value>>63 != 0 {
			return false, ErrReservedBit
		}
		existed, err := st.m.Replace(l.Thread(), key, value)
		return !existed, err
	}
	return st.m.Set(l.Thread(), key, value)
}

// Delete removes key, reporting whether it was present.
func (st *Store) Delete(l slotpool.Lease, key uint64) bool {
	st.ops[l.Slot()].Add(1)
	return st.m.Delete(l.Thread(), key)
}

// SetBytes stores a byte payload under key.  The payload is encoded
// into a tagged value word (inline or block-ref, see internal/value)
// and installed by node replacement — never by overwriting a value word
// in place, which would free the old payload's blocks under a
// concurrent reader.  The value layer must be enabled.
func (st *Store) SetBytes(l slotpool.Lease, key uint64, payload []byte) error {
	w, err := st.values.Alloc(l.Slot(), payload)
	if err != nil {
		return err
	}
	st.ops[l.Slot()].Add(1)
	if _, err := st.m.Replace(l.Thread(), key, w); err != nil {
		// The word never reached a node, so it is ours to free.
		st.values.Free(l.Slot(), w)
		return err
	}
	return nil
}

// GetBytes appends key's payload to dst, decoding it while the node's
// guard is still held (a concurrent delete cannot free the blocks under
// us — the guard keeps the node, the node keeps the blocks).  Native
// uint64 values render as decimal, matching their RESP representation.
func (st *Store) GetBytes(l slotpool.Lease, key uint64, dst []byte) ([]byte, bool) {
	st.ops[l.Slot()].Add(1)
	found := st.m.GetWith(l.Thread(), key, func(w uint64) {
		if st.values != nil && value.IsValue(w) {
			dst = st.values.AppendPayload(dst, w)
		} else {
			dst = strconv.AppendUint(dst, w, 10)
		}
	})
	return dst, found
}

// CompareAndSet replaces key's value with new iff it equals old.  The
// in-place CAS stays safe with the value layer enabled because the
// server rejects reserved-bit old/new words (serveRequest): a tagged
// word can then never match old, so a block-backed value can never be
// overwritten in place — the CAS just fails.
func (st *Store) CompareAndSet(l slotpool.Lease, key, old, new uint64) (swapped, found bool) {
	st.ops[l.Slot()].Add(1)
	return st.m.CompareAndSet(l.Thread(), key, old, new)
}

// opsTotal sums the per-slot operation counters.
func (st *Store) opsTotal() uint64 {
	var n uint64
	for i := range st.ops {
		n += st.ops[i].Load()
	}
	return n
}

// OpCounts returns the store's operation count as a one-element slice.
// Kept for benchmark/; goes with the next benchmark PR.
func (st *Store) OpCounts() []uint64 { return []uint64{st.opsTotal()} }

// Len counts live entries.  Quiescence only.
func (st *Store) Len() int { return st.m.Len() }

// Audit runs the scheme's reference-counting and announcement-row
// audit.  Quiescence only: the slotpool over this store must be drained
// and closed first, so live entries are the only legitimately
// referenced nodes (they are link-held, which the arena audit accounts
// for by itself — extraRefs stays nil).
func (st *Store) Audit() []error {
	errs := st.scheme.Audit(nil)
	if st.values != nil {
		// Value-block conservation: every block slot must be either free
		// or referenced by exactly one live node's value word.  Nodes
		// retired before quiescence have been through the free hook by
		// now (pool Close unregisters every thread, flushing deferred
		// decrements), so any extra live slot here is a leaked payload.
		live := make(map[uint64]bool)
		st.m.Range(func(_, w uint64) {
			if value.IsRef(w) {
				live[w] = true
			}
		})
		for _, err := range st.values.Audit(live) {
			errs = append(errs, fmt.Errorf("values: %w", err))
		}
	}
	return errs
}

// WriteProm writes the store's op counter and capacity gauge in
// Prometheus text format.  Safe while the store serves traffic.
func (st *Store) WriteProm(w io.Writer) error {
	for _, m := range []struct {
		name, help, typ string
		val             uint64
	}{
		{"wfrc_server_store_ops_total", "Store operations (a batch counts each of its ops).", "counter", st.opsTotal()},
		{"wfrc_server_arena_nodes", "Node capacity of the store arena.", "gauge", uint64(st.scheme.Arena().Nodes())},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.val); err != nil {
			return err
		}
	}
	return nil
}
