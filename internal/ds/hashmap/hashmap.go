// Package hashmap implements a fixed-size lock-free hash index: one
// contiguous range of arena root links, each the head of a
// Harris–Michael ordered list, selected by a multiplicative hash.  A
// bucket is a link id (first + hash) and nothing else — 8 bytes of arena,
// no per-bucket object, no pointer to chase — so a table sized to its
// arena's node capacity is cheap, and the server store sizes it that way
// (DESIGN.md §9).  Like the other structures it is written once against
// the scheme-neutral mm interface and runs over every memory-management
// scheme; every bucket is an independent root link, so HelpDeRef traffic
// spreads across links instead of converging on one.
package hashmap

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/ds/list"
	"wfrc/internal/mm"
)

// Map is a lock-free map from uint64 keys to uint64 values with a fixed
// bucket count.  Methods are safe for concurrent use; each goroutine
// passes its own registered mm.Thread.
type Map struct {
	ar    *arena.Arena
	first mm.LinkID // bucket i's head is root link first+i
	mask  uint64
}

// Config parameterizes a Map.
type Config struct {
	// Buckets is the bucket count; it must be a power of two.  Zero
	// selects 64.  New reserves exactly Buckets consecutive root links of
	// the scheme's arena.
	Buckets int
}

// New creates an empty map managed by s.  It fails when the arena's
// node geometry cannot carry a list or its root-link budget has fewer
// than Buckets links left.
func New(s mm.Scheme, cfg Config) (*Map, error) {
	n := cfg.Buckets
	if n == 0 {
		n = 64
	}
	if n&(n-1) != 0 || n < 1 {
		return nil, fmt.Errorf("hashmap: Buckets must be a power of two, got %d", n)
	}
	ar := s.Arena()
	if err := list.CheckArena(ar); err != nil {
		return nil, err
	}
	first, err := ar.NewRoots(n)
	if err != nil {
		return nil, fmt.Errorf("hashmap: %d buckets: %w", n, err)
	}
	return &Map{ar: ar, first: first, mask: uint64(n - 1)}, nil
}

// MustNew is New but panics on error.
func MustNew(s mm.Scheme, cfg Config) *Map {
	m, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// hash is Fibonacci hashing: multiply and take the top bits.
func (m *Map) hash(key uint64) uint64 {
	return (key * 0x9e3779b97f4a7c15) >> 32 & m.mask
}

// bucket returns key's chain.  The List is two words built on the
// caller's stack; no operation allocates.
func (m *Map) bucket(key uint64) list.List { return m.at(m.hash(key)) }

func (m *Map) at(i uint64) list.List { return list.At(m.ar, m.first+mm.LinkID(i)) }

// Insert adds key→value; it returns false if the key is already present.
func (m *Map) Insert(t mm.Thread, key, value uint64) (bool, error) {
	return m.bucket(key).Insert(t, key, value)
}

// Set stores key→value, overwriting an existing entry in place.  It
// returns whether a new entry was inserted, and an error on arena
// exhaustion (updates never allocate).
func (m *Map) Set(t mm.Thread, key, value uint64) (bool, error) {
	return m.bucket(key).Set(t, key, value)
}

// CompareAndSet replaces key's value with new iff it currently equals
// old.  It reports whether the swap happened and whether the key was
// present at all.
func (m *Map) CompareAndSet(t mm.Thread, key, old, new uint64) (swapped, found bool) {
	return m.bucket(key).CompareAndSet(t, key, old, new)
}

// Replace stores key→value by node replacement (see list.Replace): the
// old node is deleted and a fresh node inserted, never overwriting a
// value word in place.  Required for values that reference external
// storage.  It reports whether an existing entry was replaced.
func (m *Map) Replace(t mm.Thread, key, value uint64) (existed bool, err error) {
	return m.bucket(key).Replace(t, key, value)
}

// GetWith invokes fn with key's value word while the node's guard is
// held (see list.GetWith), reporting whether the key was found.
func (m *Map) GetWith(t mm.Thread, key uint64, fn func(value uint64)) bool {
	return m.bucket(key).GetWith(t, key, fn)
}

// Range invokes fn with every live entry's key and value word.
// Quiescence only.
func (m *Map) Range(fn func(key, value uint64)) {
	for i := uint64(0); i <= m.mask; i++ {
		m.at(i).Range(fn)
	}
}

// Delete removes key, reporting whether it was present.
func (m *Map) Delete(t mm.Thread, key uint64) bool {
	return m.bucket(key).Delete(t, key)
}

// Get returns the value stored under key.
func (m *Map) Get(t mm.Thread, key uint64) (uint64, bool) {
	return m.bucket(key).Get(t, key)
}

// Contains reports whether key is present.
func (m *Map) Contains(t mm.Thread, key uint64) bool {
	return m.bucket(key).Contains(t, key)
}

// Len counts live entries across buckets.  Quiescence only.
func (m *Map) Len() int {
	total := 0
	for i := uint64(0); i <= m.mask; i++ {
		n := m.at(i).Len()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// Keys returns all live keys (bucket order, sorted within).  Quiescence
// only.
func (m *Map) Keys() []uint64 {
	var out []uint64
	for i := uint64(0); i <= m.mask; i++ {
		out = append(out, m.at(i).Keys()...)
	}
	return out
}

// Buckets returns the bucket count.
func (m *Map) Buckets() int { return int(m.mask) + 1 }
