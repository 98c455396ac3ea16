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

// StoreConfig parameterizes a sharded store.
type StoreConfig struct {
	// Shards is the number of independent shards (power of two, default
	// 4).  Each shard owns its own arena and wait-free scheme instance,
	// so shards never contend on announcement rows or free-lists.
	Shards int
	// Slots is the thread-slot count of every shard scheme — the
	// paper's NR_THREADS, and the slotpool lease capacity (default 8).
	Slots int
	// NodesPerShard sizes each shard's initial arena segment (default
	// 1<<16).
	NodesPerShard int
	// MaxNodesPerShard caps each shard's arena across runtime-attached
	// segments (README "Capacity model").  Zero (or <= NodesPerShard)
	// keeps the shard fixed at NodesPerShard — the pre-growable
	// behaviour.  wfrc-kv derives this from -max-memory.
	MaxNodesPerShard int
	// Buckets is each shard's hashmap bucket count (power of two).  Zero
	// derives it from the shard's node ceiling — MaxNodesPerShard when
	// the shard can grow, NodesPerShard otherwise — one bucket per
	// nodesPerBucket nodes (DESIGN.md §9).
	Buckets int
	// MaxValue, when positive, enables the variable-size value layer
	// (internal/value): RESP SETs carry byte payloads up to MaxValue
	// bytes, stored in size-classed blocks and freed by the node-free
	// hook when the owning node's reference count reclaims it
	// (DESIGN.md §14).  Zero keeps the store native-only: values are
	// bare uint64 words and nothing outside the arenas is allocated.
	// MaxValue may not exceed the largest default value class (16 KiB).
	MaxValue int
}

func (c *StoreConfig) defaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Slots == 0 {
		c.Slots = 8
	}
	if c.NodesPerShard == 0 {
		c.NodesPerShard = 1 << 16
	}
	if c.Buckets == 0 {
		// The table cannot grow after construction, so it is sized for what
		// the arena may reach, not for its first segment.
		ceiling := c.NodesPerShard
		if c.MaxNodesPerShard > ceiling {
			ceiling = c.MaxNodesPerShard
		}
		c.Buckets = minBuckets
		for c.Buckets*2 <= ceiling/nodesPerBucket {
			c.Buckets *= 2
		}
	}
}

// The derived index geometry: one bucket (8 bytes of root link, untouched
// until used) per nodesPerBucket nodes of shard ceiling, rounded down to
// a power of two.  With the arena full a chain averages between
// nodesPerBucket and twice that, so a store operation visits O(1) nodes
// whatever the capacity.
const (
	nodesPerBucket = 4
	minBuckets     = 16
)

// Store is a sharded wait-free KV store.  Every operation runs on the
// scheme thread that the caller's slotpool lease holds for the target
// shard, so the store itself has no thread bookkeeping.
type Store struct {
	cfg    StoreConfig
	shards []storeShard
	mask   uint64
	// values is the variable-size payload layer, nil when
	// StoreConfig.MaxValue is zero.  Its Thread handles are indexed by
	// slot (lease) ID: one goroutine drives a slot at a time, across
	// every shard, so slot index is the correct single-owner key even
	// though the blocks are shared by all shards.
	values *value.Store
}

type storeShard struct {
	scheme *core.Scheme
	m      *hashmap.Map
	// ops counts the operations routed to the shard, one padded cell
	// per slot so connections on different cores never share a line on
	// the hot path; OpCounts sums them.
	ops []mm.PadU64
}

// ArenaConfig returns the arena geometry this configuration gives each
// shard.  Capacity planners use it before the store exists: wfrc-kv
// divides its -max-memory byte budget by BytesPerNode() of this config
// to derive MaxNodesPerShard.
func (c StoreConfig) ArenaConfig() arena.Config {
	cc := c
	cc.defaults()
	return arena.Config{
		Nodes:        cc.NodesPerShard,
		MaxNodes:     cc.MaxNodesPerShard,
		LinksPerNode: 1,
		ValsPerNode:  2,
		RootLinks:    cc.Buckets + 2,
	}
}

// NewStore builds the shards.
func NewStore(cfg StoreConfig) (*Store, error) {
	cfg.defaults()
	if cfg.Shards&(cfg.Shards-1) != 0 || cfg.Shards < 1 {
		return nil, fmt.Errorf("server: Shards must be a power of two, got %d", cfg.Shards)
	}
	st := &Store{cfg: cfg, mask: uint64(cfg.Shards - 1)}
	for i := 0; i < cfg.Shards; i++ {
		ar, err := arena.New(cfg.ArenaConfig())
		if err != nil {
			return nil, fmt.Errorf("server: shard %d arena: %w", i, err)
		}
		s, err := core.New(ar, core.Config{Threads: cfg.Slots})
		if err != nil {
			return nil, fmt.Errorf("server: shard %d scheme: %w", i, err)
		}
		m, err := hashmap.New(s, hashmap.Config{Buckets: cfg.Buckets})
		if err != nil {
			return nil, fmt.Errorf("server: shard %d map: %w", i, err)
		}
		st.shards = append(st.shards, storeShard{scheme: s, m: m, ops: make([]mm.PadU64, cfg.Slots)})
	}
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
		for i := range st.shards {
			// The hook runs on the reclamation winner's thread with
			// exclusive ownership of the node (core lines R4/F1): free the
			// blocks behind a ref-tagged value word and clear the word, so
			// a reused node can never carry a stale ref into a second free.
			ar := st.shards[i].scheme.Arena()
			st.shards[i].scheme.SetNodeFreeHook(func(threadID int, h arena.Handle) {
				if w := ar.Val(h, 1); value.IsRef(w) {
					vs.Free(threadID, w)
					ar.SetVal(h, 1, 0)
				}
			})
		}
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

// Schemes returns the shard schemes in shard order — exactly the
// bundle a slotpool over this store must be built from.
func (st *Store) Schemes() []mm.Scheme {
	out := make([]mm.Scheme, len(st.shards))
	for i := range st.shards {
		out[i] = st.shards[i].scheme
	}
	return out
}

// CoreSchemes returns the shard schemes with their concrete type, for
// audits and observability attachment.
func (st *Store) CoreSchemes() []*core.Scheme {
	out := make([]*core.Scheme, len(st.shards))
	for i := range st.shards {
		out[i] = st.shards[i].scheme
	}
	return out
}

// Shards returns the shard count.
func (st *Store) Shards() int { return len(st.shards) }

// Buckets returns each shard's hashmap bucket count, derived or explicit.
func (st *Store) Buckets() int { return st.cfg.Buckets }

// Shard maps a key to its shard index.  The mix constant differs from
// the hashmap's Fibonacci multiplier so shard and bucket selection stay
// decorrelated (otherwise each shard would only ever populate a
// 1/Shards slice of its buckets).
func (st *Store) Shard(key uint64) int {
	key ^= key >> 33
	key *= 0xff51afd7ed558ccd
	return int((key >> 33) & st.mask)
}

// Get reads key using the lease's thread for its shard.
func (st *Store) Get(l slotpool.Lease, key uint64) (uint64, bool) {
	sh := st.Shard(key)
	st.shards[sh].ops[l.Slot()].Add(1)
	return st.shards[sh].m.Get(l.Thread(sh), key)
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
	sh := st.Shard(key)
	st.shards[sh].ops[l.Slot()].Add(1)
	if st.values != nil {
		if value>>63 != 0 {
			return false, ErrReservedBit
		}
		existed, err := st.shards[sh].m.Replace(l.Thread(sh), key, value)
		return !existed, err
	}
	return st.shards[sh].m.Set(l.Thread(sh), key, value)
}

// Delete removes key, reporting whether it was present.
func (st *Store) Delete(l slotpool.Lease, key uint64) bool {
	sh := st.Shard(key)
	st.shards[sh].ops[l.Slot()].Add(1)
	return st.shards[sh].m.Delete(l.Thread(sh), key)
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
	sh := st.Shard(key)
	st.shards[sh].ops[l.Slot()].Add(1)
	if _, err := st.shards[sh].m.Replace(l.Thread(sh), key, w); err != nil {
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
	sh := st.Shard(key)
	st.shards[sh].ops[l.Slot()].Add(1)
	found := st.shards[sh].m.GetWith(l.Thread(sh), key, func(w uint64) {
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
	sh := st.Shard(key)
	st.shards[sh].ops[l.Slot()].Add(1)
	return st.shards[sh].m.CompareAndSet(l.Thread(sh), key, old, new)
}

// OpCounts returns the per-shard operation counters.
func (st *Store) OpCounts() []uint64 {
	out := make([]uint64, len(st.shards))
	for i := range st.shards {
		for j := range st.shards[i].ops {
			out[i] += st.shards[i].ops[j].Load()
		}
	}
	return out
}

// Len counts live entries across shards.  Quiescence only.
func (st *Store) Len() int {
	total := 0
	for i := range st.shards {
		n := st.shards[i].m.Len()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// Audit runs every shard scheme's reference-counting and
// announcement-row audit.  Quiescence only: the slotpool over this
// store must be drained and closed first, so live entries are the only
// legitimately referenced nodes (they are link-held, which the arena
// audit accounts for by itself — extraRefs stays nil).
func (st *Store) Audit() []error {
	var errs []error
	for i := range st.shards {
		for _, err := range st.shards[i].scheme.Audit(nil) {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	if st.values != nil {
		// Value-block conservation: every block slot must be either free
		// or referenced by exactly one live node's value word.  Nodes
		// retired before quiescence have been through the free hook by
		// now (pool Close unregisters every thread, flushing deferred
		// decrements), so any extra live slot here is a leaked payload.
		live := make(map[uint64]bool)
		for i := range st.shards {
			st.shards[i].m.Range(func(_, w uint64) {
				if value.IsRef(w) {
					live[w] = true
				}
			})
		}
		for _, err := range st.values.Audit(live) {
			errs = append(errs, fmt.Errorf("values: %w", err))
		}
	}
	return errs
}

// Growable reports whether the shards can attach capacity at runtime
// (MaxNodesPerShard above NodesPerShard).
func (st *Store) Growable() bool { return st.shards[0].scheme.Growable() }

// ShardCapacity is one shard's capacity snapshot (see Capacity).
type ShardCapacity struct {
	// Nodes and MaxNodes are the shard arena's attached and ceiling node
	// capacities.
	Nodes, MaxNodes int
	// Segments is the number of attached arena segments (1 = never grew).
	Segments int
	// Attaches and Refills count growth-pool events: segments attached
	// and fresh-node chains handed to starving allocators.
	Attaches, Refills uint64
}

// Capacity returns every shard's capacity snapshot, in shard order.
// Safe to call while the store serves traffic (the gauges lag attaches
// by at most one publish CAS).
func (st *Store) Capacity() []ShardCapacity {
	out := make([]ShardCapacity, len(st.shards))
	for i := range st.shards {
		s := st.shards[i].scheme
		attaches, refills := s.GrowEvents()
		out[i] = ShardCapacity{
			Nodes:    s.Capacity(),
			MaxNodes: s.MaxCapacity(),
			Segments: s.Segments(),
			Attaches: attaches,
			Refills:  refills,
		}
	}
	return out
}

// SegmentsAttached sums attached segments across shards; a value above
// Shards() means at least one shard grew past its initial capacity.
func (st *Store) SegmentsAttached() int {
	total := 0
	for _, c := range st.Capacity() {
		total += c.Segments
	}
	return total
}

// WriteProm writes the per-shard op counters and capacity gauges in
// Prometheus text format.
func (st *Store) WriteProm(w io.Writer) error {
	const name = "wfrc_server_shard_ops_total"
	if _, err := fmt.Fprintf(w, "# HELP %s Store operations routed to each shard.\n# TYPE %s counter\n",
		name, name); err != nil {
		return err
	}
	for i, n := range st.OpCounts() {
		if _, err := fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, i, n); err != nil {
			return err
		}
	}
	caps := st.Capacity()
	for _, m := range []struct {
		name, help, typ string
		val             func(ShardCapacity) uint64
	}{
		{"wfrc_server_shard_capacity_nodes", "Attached node capacity of each shard arena.", "gauge",
			func(c ShardCapacity) uint64 { return uint64(c.Nodes) }},
		{"wfrc_server_shard_capacity_max_nodes", "Node capacity ceiling of each shard arena.", "gauge",
			func(c ShardCapacity) uint64 { return uint64(c.MaxNodes) }},
		{"wfrc_server_shard_segments", "Arena segments attached per shard (1 = never grew).", "gauge",
			func(c ShardCapacity) uint64 { return uint64(c.Segments) }},
		{"wfrc_server_shard_segment_attaches_total", "Segments attached at runtime by each shard's growth pool.", "counter",
			func(c ShardCapacity) uint64 { return c.Attaches }},
		{"wfrc_server_shard_grow_refills_total", "Fresh-node chains spliced into free-lists per shard.", "counter",
			func(c ShardCapacity) uint64 { return c.Refills }},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ); err != nil {
			return err
		}
		for i, c := range caps {
			if _, err := fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", m.name, i, m.val(c)); err != nil {
				return err
			}
		}
	}
	return nil
}
