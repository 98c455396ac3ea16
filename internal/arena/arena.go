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
// # Segments
//
// Since the growable-allocator work (DESIGN.md §12) the arena is no
// longer necessarily fixed at creation: it is a sequence of segments,
// each a contiguous, immutable-once-attached range of node slots.
// Config.Nodes sizes segment 0 and Config.MaxNodes caps the total;
// Grow attaches one further segment (of SegmentNodes slots) through a
// lock-free page-table CAS, so new capacity can appear at runtime while
// readers run — type stability holds per segment exactly as it held for
// the whole arena before.  A fixed arena (MaxNodes zero or equal to
// Nodes) is simply the one-segment special case and costs one extra
// (uncontended, L1-resident) atomic pointer load per cell access
// compared with the flat layout it replaced.
//
// The arena itself performs no synchronization policy; it only exposes
// atomically accessible cells and the segment registry.  Reclamation
// protocols are layered on top by the scheme packages (internal/core,
// internal/baseline/...), and the block-pool allocator that decides
// *when* to grow lives in internal/alloc.
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
// no division, and ids stay stable as segments attach.  When
// LinksPerNode is not a power of two the node-link id space has gaps;
// audits therefore walk links per node (ForEachLink), never by raw id.
type LinkID uint32

// NoLink is the reserved, never-valid LinkID.
const NoLink LinkID = 0

// Config sizes an Arena.
type Config struct {
	// Nodes is the number of allocatable node slots in segment 0 — the
	// capacity available before any Grow call.
	Nodes int
	// MaxNodes caps the total node capacity across all segments.  Zero
	// (or a value <= Nodes) makes the arena fixed at Nodes — the
	// pre-growable behaviour.  Growth happens in whole segments of
	// SegmentNodes slots, so the effective maximum is the largest
	// Nodes + k*SegmentNodes that does not exceed MaxNodes.
	MaxNodes int
	// LinksPerNode is the number of link cells embedded in each node.
	LinksPerNode int
	// ValsPerNode is the number of 64-bit value words in each node.
	ValsPerNode int
	// RootLinks is the number of standalone link cells reserved for data
	// structure roots (list heads, queue head/tail, ...).
	RootLinks int
}

func (c Config) validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("arena: Nodes must be positive, got %d", c.Nodes)
	}
	if c.Nodes >= 1<<31 {
		return fmt.Errorf("arena: Nodes must fit in 31 bits, got %d", c.Nodes)
	}
	if c.MaxNodes < 0 || c.MaxNodes >= 1<<31 {
		return fmt.Errorf("arena: MaxNodes must fit in 31 bits, got %d", c.MaxNodes)
	}
	if c.LinksPerNode < 0 || c.ValsPerNode < 0 || c.RootLinks < 0 {
		return fmt.Errorf("arena: negative size in config %+v", c)
	}
	return nil
}

// BytesPerNode estimates the memory footprint of one node slot under
// this configuration: mm_ref + mm_next metadata plus the link and value
// cells.  Capacity planners (wfrc-kv's -max-memory) divide a byte budget
// by this to derive a MaxNodes cap; it deliberately ignores the
// per-segment slice headers and the page table, which are O(segments),
// not O(nodes).
func (c Config) BytesPerNode() int {
	return 16 + 8*c.LinksPerNode + 8*c.ValsPerNode
}

// nodeMeta is the per-node bookkeeping the paper's Node structure begins
// with.  A node always starts with mm_ref (the paper's Lemma 1 relies on
// that); here the analogous property — announcement encodings and Ptr
// values are disjoint — is guaranteed by tagging instead.
type nodeMeta struct {
	ref  atomic.Int64  // mm_ref: real count = ref/2, odd = free/claimed
	next atomic.Uint64 // mm_next: free-list successor (a raw Handle)
}

// page is one attached segment's storage.  All slices are fixed at
// attach time and never moved, so cells stay type-stable for the life of
// the arena.
type page struct {
	base Handle // first handle covered by the page
	n    int    // usable node slots (may be below the page span for page 0)

	meta  []nodeMeta
	links []atomic.Uint64 // n*LinksPerNode cells, node-major
	vals  []atomic.Uint64 // n*ValsPerNode cells, node-major
}

// Segment describes one attached segment for registries, audits and
// gauges.
type Segment struct {
	// Index is the segment's position in attach order (0 = the initial
	// segment).
	Index int
	// First and Last are the segment's handle range, inclusive.
	First, Last Handle
}

// Nodes returns the segment's node count.
func (s Segment) Nodes() int { return int(s.Last-s.First) + 1 }

// Arena is a segmented pool of nodes with embedded link cells and value
// words.  All cells are accessed atomically.  An Arena is safe for
// concurrent use by any number of goroutines, including concurrent Grow.
type Arena struct {
	cfg Config

	// pageShift/pageMask map a handle to its page: every page spans
	// 1<<pageShift logical handles (page 0's usable prefix is cfg.Nodes;
	// the remainder of its span, if any, is never issued).
	pageShift uint
	pageMask  uint32

	// slotBits packs link slots into node-link ids.
	slotBits uint

	rootsCut uint32          // first node-link id; roots occupy 1..rootsCut-1
	roots    []atomic.Uint64 // index 1..RootLinks; slot 0 unused
	nextRoot atomic.Int64    // root cells handed out so far (NewRoots)

	// pages is the lock-free segment registry: a fixed table of page
	// pointers, populated left to right by CAS.  nPages is the published
	// prefix length; entries beyond it may be mid-attach.
	pages  []atomic.Pointer[page]
	nPages atomic.Int64
}

// New creates an arena for the given configuration.
func New(cfg Config) (*Arena, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	a := &Arena{cfg: cfg}
	// One page spans the next power of two >= Nodes (min 64), which is
	// also the growth granularity.  A fixed arena is exactly one page.
	shift := uint(bits.Len(uint(cfg.Nodes - 1)))
	if shift < 6 {
		shift = 6
	}
	a.pageShift = shift
	a.pageMask = 1<<shift - 1
	pageSize := 1 << shift
	maxPages := 1
	if cfg.MaxNodes > cfg.Nodes {
		maxPages += (cfg.MaxNodes - cfg.Nodes) / pageSize
	}
	a.slotBits = uint(bits.Len(uint(cfg.LinksPerNode - 1)))
	a.rootsCut = uint32(cfg.RootLinks) + 1
	// The packed node-link id of the last slot of the last possible
	// handle must fit in 32 bits (NoLink excluded by rootsCut >= 1).
	maxHandle := uint64(maxPages) * uint64(pageSize)
	if maxHandle >= 1<<31 {
		return nil, fmt.Errorf("arena: capacity %d (MaxNodes %d rounded to %d-node segments) exceeds the 31-bit handle space",
			maxHandle, cfg.MaxNodes, pageSize)
	}
	if cfg.LinksPerNode > 0 {
		maxLink := uint64(a.rootsCut) + ((maxHandle-1)<<a.slotBits | uint64(cfg.LinksPerNode-1))
		if maxLink >= 1<<32 {
			return nil, fmt.Errorf("arena: link ids overflow 32 bits (capacity %d x %d links/node)",
				maxHandle, cfg.LinksPerNode)
		}
	}
	a.roots = make([]atomic.Uint64, cfg.RootLinks+1)
	a.pages = make([]atomic.Pointer[page], maxPages)
	a.pages[0].Store(a.newPage(0, cfg.Nodes))
	a.nPages.Store(1)
	return a, nil
}

// newPage builds segment idx's storage with n usable slots, all free
// (mm_ref = 1, odd, per the paper's convention).
func (a *Arena) newPage(idx, n int) *page {
	p := &page{
		base: Handle(idx<<a.pageShift + 1),
		n:    n,
		meta: make([]nodeMeta, n),
	}
	if a.cfg.LinksPerNode > 0 {
		p.links = make([]atomic.Uint64, n*a.cfg.LinksPerNode)
	}
	if a.cfg.ValsPerNode > 0 {
		p.vals = make([]atomic.Uint64, n*a.cfg.ValsPerNode)
	}
	for i := range p.meta {
		p.meta[i].ref.Store(1)
	}
	return p
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

// Nodes returns the number of node slots currently attached — the
// allocatable capacity as of this call.  It grows (never shrinks) as
// segments attach; fixed arenas report Config.Nodes forever.  Callers
// using it as an iteration or cycle bound get a value that is correct
// for every handle issued before the call.
func (a *Arena) Nodes() int {
	np := int(a.nPages.Load())
	return a.cfg.Nodes + (np-1)<<a.pageShift
}

// MaxNodes returns the effective capacity ceiling: the largest node
// count the arena can reach through Grow (Config.Nodes for fixed
// arenas).  Growth happens in whole segments, so this is Config.MaxNodes
// rounded down to the segment grid.
func (a *Arena) MaxNodes() int {
	return a.cfg.Nodes + (len(a.pages)-1)<<a.pageShift
}

// Growable reports whether the arena can attach segments beyond the
// initial one.
func (a *Arena) Growable() bool { return len(a.pages) > 1 }

// SegmentNodes returns the growth granularity: the node count of every
// segment attached by Grow.
func (a *Arena) SegmentNodes() int { return 1 << a.pageShift }

// SegmentsAttached returns the number of attached segments (>= 1).
func (a *Arena) SegmentsAttached() int { return int(a.nPages.Load()) }

// errArenaFull is Grow's capacity-ceiling error; test with ErrArenaFull.
var errArenaFull = fmt.Errorf("arena: at MaxNodes capacity, no segment slots left")

// ErrArenaFull reports whether err is the Grow capacity-ceiling error.
func ErrArenaFull(err error) bool { return err == errArenaFull }

// Grow attaches one fresh segment of SegmentNodes free node slots and
// returns it.  The caller owns the returned handle range exclusively —
// concurrent Grow calls never return the same segment — and is
// responsible for feeding the fresh handles to an allocator.  Grow is
// lock-free: a CAS loser retries on the next page-table slot, and a
// reader racing an attach sees either the old or the new capacity,
// never a partial segment.  It fails with the ErrArenaFull error once
// the MaxNodes ceiling is reached.
//
// Grow allocates the segment's backing slices, so it is the one
// deliberately non-constant-time entry point of the arena; allocator
// hot paths must keep it off their per-operation step budget (see
// internal/alloc).
func (a *Arena) Grow() (Segment, error) {
	for {
		np := a.nPages.Load()
		if int(np) < len(a.pages) && a.pages[np].Load() != nil {
			// A finished attach whose publish CAS hasn't landed yet;
			// help publish and re-read.
			a.nPages.CompareAndSwap(np, np+1)
			continue
		}
		if int(np) >= len(a.pages) {
			return Segment{}, errArenaFull
		}
		pg := a.newPage(int(np), 1<<a.pageShift)
		if a.pages[np].CompareAndSwap(nil, pg) {
			a.nPages.CompareAndSwap(np, np+1)
			return Segment{Index: int(np), First: pg.base, Last: pg.base + Handle(pg.n) - 1}, nil
		}
		// Lost the attach race for this slot; the winner owns that
		// segment's handles.  Publish it and try the next slot.
		a.nPages.CompareAndSwap(np, np+1)
	}
}

// Segments returns the attached segments in attach order.  Safe to call
// concurrently with Grow; the snapshot covers every segment whose
// attach completed before the call.
func (a *Arena) Segments() []Segment {
	np := int(a.nPages.Load())
	out := make([]Segment, 0, np)
	for i := 0; i < np; i++ {
		pg := a.pages[i].Load()
		out = append(out, Segment{Index: i, First: pg.base, Last: pg.base + Handle(pg.n) - 1})
	}
	return out
}

// ForEachNode calls fn for every node slot of every attached segment,
// in handle order.  Audit walks use it instead of assuming handles form
// the contiguous range 1..Nodes: segment 0's span may end below the
// page boundary, leaving a permanent gap before segment 1.
func (a *Arena) ForEachNode(fn func(Handle)) {
	np := int(a.nPages.Load())
	for i := 0; i < np; i++ {
		pg := a.pages[i].Load()
		for j := 0; j < pg.n; j++ {
			fn(pg.base + Handle(j))
		}
	}
}

// ForEachLink calls fn for every link cell — the root cells first, then
// every link slot of every attached node.  This is the audit walk that
// replaced the flat NumLinks/LinkByIndex iteration: packed link ids are
// not contiguous, and segments attach at runtime.
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

// page returns the segment storage holding h.  h must be a handle the
// arena issued; the bounds panic on a wild handle is deliberate.
func (a *Arena) page(h Handle) *page {
	return a.pages[(uint32(h)-1)>>a.pageShift].Load()
}

// --- node metadata -------------------------------------------------------

// Ref returns the mm_ref cell of node h.  h must be a valid non-nil
// handle.
func (a *Arena) Ref(h Handle) *atomic.Int64 {
	pg := a.page(h)
	return &pg.meta[uint32(h)-uint32(pg.base)].ref
}

// Next returns the mm_next cell of node h (free-list successor handle).
func (a *Arena) Next(h Handle) *atomic.Uint64 {
	pg := a.page(h)
	return &pg.meta[uint32(h)-uint32(pg.base)].next
}

// Valid reports whether h is a handle this arena could have issued: it
// falls inside an attached segment (the page-0 tail gap and unattached
// segments are invalid).
func (a *Arena) Valid(h Handle) bool {
	if h == Nil {
		return false
	}
	idx := (uint32(h) - 1) >> a.pageShift
	if int(idx) >= len(a.pages) {
		return false
	}
	pg := a.pages[idx].Load()
	return pg != nil && uint32(h)-uint32(pg.base) < uint32(pg.n)
}

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

// LinkOf returns the id of link slot i of node h.
func (a *Arena) LinkOf(h Handle, slot int) LinkID {
	if slot < 0 || slot >= a.cfg.LinksPerNode {
		panic(fmt.Sprintf("arena: link slot %d out of range [0,%d)", slot, a.cfg.LinksPerNode))
	}
	return LinkID(a.rootsCut + ((uint32(h)-1)<<a.slotBits | uint32(slot)))
}

// Link returns the cell behind id.
func (a *Arena) Link(id LinkID) *atomic.Uint64 {
	if uint32(id) < a.rootsCut {
		return &a.roots[id]
	}
	v := uint32(id) - a.rootsCut
	h := Handle(v>>a.slotBits) + 1
	slot := v & (1<<a.slotBits - 1)
	pg := a.page(h)
	return &pg.links[(uint32(h)-uint32(pg.base))*uint32(a.cfg.LinksPerNode)+slot]
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
func (a *Arena) Val(h Handle, i int) uint64 {
	pg := a.page(h)
	return pg.vals[(uint32(h)-uint32(pg.base))*uint32(a.cfg.ValsPerNode)+uint32(i)].Load()
}

// SetVal atomically writes value word i of node h.
func (a *Arena) SetVal(h Handle, i int, v uint64) {
	pg := a.page(h)
	pg.vals[(uint32(h)-uint32(pg.base))*uint32(a.cfg.ValsPerNode)+uint32(i)].Store(v)
}

// ValCell returns the atomic cell of value word i of node h, for callers
// that need CAS on values.
func (a *Arena) ValCell(h Handle, i int) *atomic.Uint64 {
	pg := a.page(h)
	return &pg.vals[(uint32(h)-uint32(pg.base))*uint32(a.cfg.ValsPerNode)+uint32(i)]
}
