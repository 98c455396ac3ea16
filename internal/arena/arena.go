// Package arena provides the type-stable node arena that all
// memory-management schemes in this repository operate on.
//
// The wait-free reference-counting algorithm (Sundell, TR 2004-10 /
// IPPS 2005) assumes that the mm_ref field of every memory block "will be
// present at each memory block indefinitely, and will thus also be
// possible to access on nodes that have been reclaimed by the memory
// management scheme".  A preallocated arena of fixed-size node slots is
// the canonical way to satisfy that assumption: node identity is a small
// integer handle, and the per-node metadata (mm_ref, mm_next), link cells
// and value words live in flat cells that are never freed while the
// arena is alive.
//
// The arena is fixed at creation, as the paper's Figure 5 free-list
// assumes: Config.Nodes sizes it once, and running out of nodes is the
// scheme's footnote-4 verdict, not a cue to grow.
//
// The arena itself performs no synchronization policy; it only exposes
// atomically accessible cells.  Reclamation protocols are layered on top
// by the scheme packages (internal/core, internal/baseline/...).
package arena

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Handle identifies a node in an Arena.  Handle 0 is the nil node.
type Handle uint32

// Nil is the zero Handle, representing the absence of a node.
const Nil Handle = 0

// Ptr is the value stored in a link cell: a Handle in the low 32 bits and
// a deletion mark at bit 32.  Data structures such as the Harris ordered
// list use the mark to flag logically deleted nodes; memory-management
// schemes treat the mark opaquely and apply reference counting to the
// Handle part only.
type Ptr uint64

const markBit Ptr = 1 << 32

// NilPtr is the Ptr holding the nil handle with no mark.
const NilPtr Ptr = 0

// PoisonPtr is a marked nil pointer.  Data structures CAS it into the
// next link of a node they have physically unlinked, releasing the
// link's reference to the successor.  Without this, reference counting
// transitively retains the entire history of removed nodes for as long
// as any thread holds a reference to the oldest one (chain retention).
// Poison is distinguishable both from nil (the mark) and from every live
// pointer (the nil handle), so optimistic readers detect it and retry.
const PoisonPtr Ptr = markBit

// MakePtr builds a Ptr from a handle and a mark flag.
func MakePtr(h Handle, marked bool) Ptr {
	p := Ptr(h)
	if marked {
		p |= markBit
	}
	return p
}

// Handle extracts the node handle of p.
func (p Ptr) Handle() Handle { return Handle(p & 0xffffffff) }

// Marked reports whether the deletion mark of p is set.
func (p Ptr) Marked() bool { return p&markBit != 0 }

// WithMark returns p with the deletion mark set to marked.
func (p Ptr) WithMark(marked bool) Ptr {
	if marked {
		return p | markBit
	}
	return p &^ markBit
}

// IsNil reports whether p holds the nil handle (regardless of mark).
func (p Ptr) IsNil() bool { return p.Handle() == Nil }

// String renders p for debugging.
func (p Ptr) String() string {
	if p.Marked() {
		return fmt.Sprintf("ptr(%d,marked)", p.Handle())
	}
	return fmt.Sprintf("ptr(%d)", p.Handle())
}

// LinkID identifies a link cell (a mutable pointer-to-node location) in
// an Arena.  Link cells are the only locations the dereference protocols
// operate on: the paper's "pointer to pointer to Node" maps to a LinkID
// and its "pointer to Node" maps to a Ptr.  NoLink (0) is reserved so a
// LinkID can always be distinguished from "no announcement"; valid ids
// start at 1.
//
// IDs below the root cut identify root link cells; node link ids pack
// the owning handle and slot ((h-1)<<slotBits | slot, offset past the
// roots), so resolving a LinkID to its cell is shift-and-mask work with
// no division.  When LinksPerNode is not a power of two the node-link id
// space has gaps; audits therefore walk links per node (ForEachLink),
// never by raw id.
type LinkID uint32

// NoLink is the reserved, never-valid LinkID.
const NoLink LinkID = 0

// Config sizes an Arena.
type Config struct {
	// Nodes is the number of allocatable node slots: the arena's whole
	// capacity, fixed at construction.
	Nodes int
	// LinksPerNode is the number of link cells embedded in each node.
	LinksPerNode int
	// ValsPerNode is the number of 64-bit value words in each node.
	ValsPerNode int
	// RootLinks is the number of standalone link cells reserved for data
	// structure roots (list heads, queue head/tail, ...).
	RootLinks int
}

// validate checks cfg before New allocates anything, including that
// the packed id of the last link slot of the last node fits in 32 bits.
func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("arena: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Nodes >= 1<<31 {
		return fmt.Errorf("arena: Nodes must fit in 31 bits, got %d", c.Nodes)
	}
	if c.LinksPerNode < 0 || c.ValsPerNode < 0 || c.RootLinks < 0 {
		return fmt.Errorf("arena: negative size in config %+v", c)
	}
	if c.LinksPerNode > 0 {
		maxLink := uint64(c.RootLinks) + 1 + (uint64(c.Nodes-1)<<slotBitsFor(c.LinksPerNode) | uint64(c.LinksPerNode-1))
		if maxLink >= 1<<32 {
			return fmt.Errorf("arena: link ids overflow 32 bits (%d nodes x %d links/node)", c.Nodes, c.LinksPerNode)
		}
	}
	return nil
}

// slotBitsFor is the width of the slot field in a packed node-link id.
func slotBitsFor(linksPerNode int) uint { return uint(bits.Len(uint(linksPerNode - 1))) }

// nodeMeta is the per-node bookkeeping the paper's Node structure begins
// with.  A node always starts with mm_ref (the paper's Lemma 1 relies on
// that); here the analogous property — announcement encodings and Ptr
// values are disjoint — is guaranteed by tagging instead.
type nodeMeta struct {
	ref  atomic.Int64  // mm_ref: real count = ref/2, odd = free/claimed
	next atomic.Uint64 // mm_next: free-list successor (a raw Handle)
}

// Arena is a fixed pool of nodes with embedded link cells and value
// words.  Node h's cells sit at index h-1 of three flat slices, so a
// wild handle (Nil, or one above Nodes) fails the slice bounds check and
// panics rather than aliasing another node.  All cells are accessed
// atomically.  An Arena is safe for concurrent use by any number of
// goroutines.
type Arena struct {
	cfg Config

	meta  []nodeMeta      // Nodes entries
	links []atomic.Uint64 // Nodes*LinksPerNode cells, node-major
	vals  []atomic.Uint64 // Nodes*ValsPerNode cells, node-major

	// slotBits packs link slots into node-link ids.
	slotBits uint

	rootsCut uint32          // first node-link id; roots occupy 1..rootsCut-1
	roots    []atomic.Uint64 // index 1..RootLinks; slot 0 unused
	nextRoot atomic.Int64    // root cells handed out so far (NewRoots)
}

// New creates an arena for the given configuration, every node free
// (mm_ref = 1, odd, per the paper's convention).
func New(cfg Config) (*Arena, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Arena{
		cfg:      cfg,
		meta:     make([]nodeMeta, cfg.Nodes),
		links:    make([]atomic.Uint64, cfg.Nodes*cfg.LinksPerNode),
		vals:     make([]atomic.Uint64, cfg.Nodes*cfg.ValsPerNode),
		slotBits: slotBitsFor(cfg.LinksPerNode),
		rootsCut: uint32(cfg.RootLinks) + 1,
		roots:    make([]atomic.Uint64, cfg.RootLinks+1),
	}
	for i := range a.meta {
		a.meta[i].ref.Store(1)
	}
	return a, nil
}

// MustNew is New but panics on configuration errors; for tests and
// examples.
func MustNew(cfg Config) *Arena {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the configuration the arena was created with.
func (a *Arena) Config() Config { return a.cfg }

// Nodes returns the number of node slots: handles 1..Nodes are valid.
func (a *Arena) Nodes() int { return a.cfg.Nodes }

// MaxNodes returns Nodes.  Kept for benchmark/; goes with the next
// benchmark PR.
func (a *Arena) MaxNodes() int { return a.Nodes() }

// ForEachNode calls fn for every node slot, in handle order.
func (a *Arena) ForEachNode(fn func(Handle)) {
	for h := 1; h <= a.cfg.Nodes; h++ {
		fn(Handle(h))
	}
}

// ForEachLink calls fn for every link cell — the root cells first, then
// every link slot of every node.  Audits walk links this way, never by
// raw id: packed link ids are not contiguous.
func (a *Arena) ForEachLink(fn func(LinkID)) {
	for i := 1; i < int(a.rootsCut); i++ {
		fn(LinkID(i))
	}
	if a.cfg.LinksPerNode == 0 {
		return
	}
	a.ForEachNode(func(h Handle) {
		for s := 0; s < a.cfg.LinksPerNode; s++ {
			fn(a.LinkOf(h, s))
		}
	})
}

// --- node metadata -------------------------------------------------------

// Ref returns the mm_ref cell of node h.  h must be a valid non-nil
// handle.
func (a *Arena) Ref(h Handle) *atomic.Int64 { return &a.meta[uint32(h)-1].ref }

// Next returns the mm_next cell of node h (free-list successor handle).
func (a *Arena) Next(h Handle) *atomic.Uint64 { return &a.meta[uint32(h)-1].next }

// Valid reports whether h is a handle this arena could have issued.
func (a *Arena) Valid(h Handle) bool { return h != Nil && int(h) <= a.cfg.Nodes }

// --- link cells -----------------------------------------------------------

// NewRoots reserves n consecutive root link cells in one step and
// returns the id of the first; the others are first+1 … first+n-1.  A
// hash index keeps its buckets this way: a bucket is an offset from
// first, with no per-bucket object.  A request the remaining budget
// cannot cover reserves nothing and returns an error.
func (a *Arena) NewRoots(n int) (first LinkID, err error) {
	if n < 1 {
		return NoLink, fmt.Errorf("arena: NewRoots(%d): count must be positive", n)
	}
	for {
		used := a.nextRoot.Load()
		if int64(n) > int64(a.cfg.RootLinks)-used {
			return NoLink, fmt.Errorf("arena: out of root links (want %d, %d of budget %d left)",
				n, int64(a.cfg.RootLinks)-used, a.cfg.RootLinks)
		}
		if a.nextRoot.CompareAndSwap(used, used+int64(n)) {
			return LinkID(used + 1), nil
		}
	}
}

// NewRoot reserves a fresh root link cell and returns its id.  It panics
// if the configured RootLinks budget is exhausted; single roots are
// allocated at structure-construction time from a budget the caller
// wrote down, so exhaustion is a programming error.
func (a *Arena) NewRoot() LinkID {
	id, err := a.NewRoots(1)
	if err != nil {
		panic(err.Error())
	}
	return id
}

// LinkOf returns the id of link slot i of node h.  It panics on a slot
// out of range and on a wild handle, whose packed id would otherwise
// wrap onto a root cell.
func (a *Arena) LinkOf(h Handle, slot int) LinkID {
	if uint(slot) >= uint(a.cfg.LinksPerNode) || uint32(h)-1 >= uint32(a.cfg.Nodes) {
		panic("arena: LinkOf: link slot or node handle out of range")
	}
	return LinkID(a.rootsCut + ((uint32(h)-1)<<a.slotBits | uint32(slot)))
}

// Link returns the cell behind id.
func (a *Arena) Link(id LinkID) *atomic.Uint64 {
	if uint32(id) < a.rootsCut {
		return &a.roots[id]
	}
	v := uint32(id) - a.rootsCut
	return &a.links[uint(v>>a.slotBits)*uint(a.cfg.LinksPerNode)+uint(v&(1<<a.slotBits-1))]
}

// LoadLink atomically reads the Ptr stored in link id.
func (a *Arena) LoadLink(id LinkID) Ptr { return Ptr(a.Link(id).Load()) }

// StoreLink atomically writes p into link id.  Callers must follow the
// scheme's rules for direct stores (previous value nil, no concurrent
// updates).
func (a *Arena) StoreLink(id LinkID, p Ptr) { a.Link(id).Store(uint64(p)) }

// CASLinkRaw performs the raw CAS on the link cell, with no reference
// management.  Scheme packages build their CompareAndSwapLink on this.
func (a *Arena) CASLinkRaw(id LinkID, old, new Ptr) bool {
	return a.Link(id).CompareAndSwap(uint64(old), uint64(new))
}

// LinkRange calls fn for every link slot of node h.
func (a *Arena) LinkRange(h Handle, fn func(id LinkID)) {
	for i := 0; i < a.cfg.LinksPerNode; i++ {
		fn(a.LinkOf(h, i))
	}
}

// --- value words ----------------------------------------------------------

// Val atomically reads value word i of node h.
func (a *Arena) Val(h Handle, i int) uint64 { return a.ValCell(h, i).Load() }

// SetVal atomically writes value word i of node h.
func (a *Arena) SetVal(h Handle, i int, v uint64) { a.ValCell(h, i).Store(v) }

// ValCell returns the atomic cell of value word i of node h, for callers
// that need CAS on values.  The index is widened to uint before the
// multiply, so Nil's wrapped h-1 stays huge and panics like any other
// wild handle.
func (a *Arena) ValCell(h Handle, i int) *atomic.Uint64 {
	return &a.vals[uint(uint32(h)-1)*uint(a.cfg.ValsPerNode)+uint(i)]
}
