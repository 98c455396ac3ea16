// Package pqueue implements a lock-free skiplist-based priority queue on
// top of the scheme-neutral mm interface.  It stands in for the
// Sundell–Tsigas lock-free priority queue (IPDPS 2003) that the paper's
// evaluation plugs the wait-free memory-management scheme into: a
// skiplist whose bottom level is the linearizable truth (a Harris-style
// marked list) and whose upper levels are shortcut hints.
//
// Deletion marks every level of the victim top-down and then claims it by
// marking the bottom-level next pointer; whoever wins that bottom CAS
// owns the removal.  Physical unlinking is done by the same helping rule
// as the ordered list, applied per level.
//
// Retirement follows an inserter/unlinker handshake (the lstate word)
// so that a node is never retired while any level still links it.  The
// original Sundell–Tsigas queue leans on reference counting for this —
// a node stays alive while any link holds a reference — but the
// scheme-neutral port also runs over hazard-, epoch- and era-based
// reclamation, where retiring a still-reachable node lets a reader walk
// into freed (and possibly reallocated) memory through a dangling
// upper-level link.  The race that creates such links: insert's phase 2
// can install an upper-level link after a concurrent deleter has marked
// the node and swept past that level.  The handshake closes it: the
// bottom-level unlinker retires the node only if the inserter had
// already published "linking done" (so every install predates the
// confirmation sweep), and otherwise abandons the node to its inserter,
// the one thread that knows when installs have stopped.  Whoever ends
// up responsible runs one find pass over the node's key, from the
// node's height down — which unlinks it from every level where it is
// still reachable — before calling Retire.
//
// Node layout: link slot i is the level-i next pointer (i < MaxLevel);
// value word 0 is the key (priority), word 1 the value, word 2 the
// node's tower height in its low byte and, above it, one bit per level
// the node has been unlinked from, word 3 the retire-handshake state
// (lstate).
package pqueue

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// DefaultMaxLevel is the tower height cap used by NewDefault.
const DefaultMaxLevel = 8

// Value-word indices of the height word and of the retire-handshake
// state; goneShift places a level's "unlinked here" bit above the height.
const (
	heightWord = 2
	lsWord     = 3
	goneShift  = 8
)

// Retire-handshake states (see the package comment).  A node moves
// lsLinking→lsLinked when its inserter finishes phase 2, or
// lsLinking→lsAbandoned when the bottom-level unlinker gets there
// first; lsLinked→lsUnlinking records the unlinker taking ownership.
const (
	lsLinking   = 0
	lsLinked    = 1
	lsUnlinking = 2
	lsAbandoned = 3
)

// Config parameterizes a skiplist priority queue.
type Config struct {
	// MaxLevel caps tower heights.  The arena must provide at least
	// MaxLevel links and 4 value words per node.  With hazard-pointer
	// memory management each thread needs about 2*MaxLevel+6 hazard
	// slots.
	MaxLevel int
}

// PQueue is a lock-free min-priority queue of (key, value) pairs with
// duplicate keys allowed.  Methods are safe for concurrent use; each
// goroutine passes its own registered mm.Thread.
type PQueue struct {
	s        mm.Scheme
	ar       *arena.Arena
	heads    []mm.LinkID // per-level head links (a head tower with no node)
	maxLevel int
	rngs     []padRng // per-thread-slot xorshift states for tower heights
	towers   []*tower // per-thread-slot scratch towers (one goroutine/slot)
}

type padRng struct {
	state uint64
	_     [7]uint64
}

// New creates an empty priority queue managed by s.
func New(s mm.Scheme, cfg Config) (*PQueue, error) {
	ml := cfg.MaxLevel
	if ml == 0 {
		ml = DefaultMaxLevel
	}
	if ml < 1 || ml > 30 {
		return nil, fmt.Errorf("pqueue: MaxLevel %d out of range [1,30]", ml)
	}
	ar := s.Arena()
	if c := ar.Config(); c.LinksPerNode < ml || c.ValsPerNode < 4 {
		return nil, fmt.Errorf("pqueue: arena needs ≥%d links and ≥4 values per node, have %d/%d",
			ml, c.LinksPerNode, c.ValsPerNode)
	}
	pq := &PQueue{
		s: s, ar: ar, maxLevel: ml,
		rngs:   make([]padRng, s.Threads()),
		towers: make([]*tower, s.Threads()),
	}
	pq.heads = make([]mm.LinkID, ml)
	for i := range pq.heads {
		pq.heads[i] = ar.NewRoot()
	}
	for i := range pq.rngs {
		pq.rngs[i].state = uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	}
	return pq, nil
}

// MustNew is New but panics on error.
func MustNew(s mm.Scheme, cfg Config) *PQueue {
	pq, err := New(s, cfg)
	if err != nil {
		panic(err)
	}
	return pq
}

// NewDefault creates a queue with DefaultMaxLevel.
func NewDefault(s mm.Scheme) (*PQueue, error) { return New(s, Config{}) }

func (pq *PQueue) link(h arena.Handle, lvl int) mm.LinkID { return pq.ar.LinkOf(h, lvl) }

func (pq *PQueue) key(h arena.Handle) uint64   { return pq.ar.Val(h, 0) }
func (pq *PQueue) value(h arena.Handle) uint64 { return pq.ar.Val(h, 1) }
func (pq *PQueue) level(h arena.Handle) int    { return int(pq.ar.Val(h, heightWord) & 0xff) }

// unlinkedAt reports whether h has been unlinked from level lvl.
func (pq *PQueue) unlinkedAt(h arena.Handle, lvl int) bool {
	return pq.ar.Val(h, heightWord)>>(goneShift+lvl)&1 != 0
}

// unlinked finishes the unlink of h from level lvl, whose marked link
// held next.  It breaks h's chain there (see arena.PoisonPtr), records
// the level in h's height word, and at level 0 resolves retire
// responsibility.  The record is what lets a later pass skip the level:
// PoisonPtr alone cannot say it, since a claimed node that is last on a
// level has a marked nil link, which is PoisonPtr too.
func (pq *PQueue) unlinked(t mm.Thread, tw *tower, h arena.Handle, lvl int, next mm.Ptr) {
	t.CASLink(pq.link(h, lvl), next, arena.PoisonPtr)
	c := pq.ar.ValCell(h, heightWord)
	for v := c.Load(); !c.CompareAndSwap(v, v|1<<(goneShift+lvl)); v = c.Load() {
	}
	if lvl == 0 {
		pq.pendUnlinked(tw, h)
	}
}

// randomLevel draws a geometric(1/2) tower height in [1, maxLevel],
// using a per-thread-slot xorshift so no global state is contended.
func (pq *PQueue) randomLevel(t mm.Thread) int {
	st := &pq.rngs[t.ID()].state
	x := *st
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*st = x
	lvl := 1
	for x&1 == 1 && lvl < pq.maxLevel {
		lvl++
		x >>= 1
	}
	return lvl
}

// tower is a full search result: per-level insertion points with guarded
// references on every stored node.
type tower struct {
	preds     []mm.LinkID
	predNodes []arena.Handle // guarded; Nil where pred is a head root
	succs     []mm.Ptr       // guarded
	hooked    []mm.Ptr       // Insert scratch: current targets of n's links
	pend      []arena.Handle // bottom-unlinked nodes awaiting confirm+retire
}

func (tw *tower) release(t mm.Thread, pq *PQueue) {
	for i := 0; i < pq.maxLevel; i++ {
		// Release(Nil) is a no-op; skipping it here avoids two interface
		// calls per empty level on this per-operation path.
		if h := tw.predNodes[i]; h != arena.Nil {
			t.Release(h)
			tw.predNodes[i] = arena.Nil
		}
		if h := tw.succs[i].Handle(); h != arena.Nil {
			t.Release(h)
		}
		tw.succs[i] = arena.NilPtr
	}
}

// pendUnlinked resolves retire responsibility for a node just unlinked
// from the bottom level (a unique event: only its inserter ever links a
// node at level 0, pre-publication).  If the inserter has published
// "linking done" we take the node: it goes on the pend list for a
// confirmation pass and Retire in drainPend.  Otherwise the inserter is
// still in phase 2 and may install more upper links, so abandon the
// node to it — the failed lsLinking→lsLinked CAS at the end of Insert
// hands it the same confirm+retire duty.
func (pq *PQueue) pendUnlinked(tw *tower, h arena.Handle) {
	c := pq.ar.ValCell(h, lsWord)
	for {
		switch c.Load() {
		case lsLinked:
			if c.CompareAndSwap(lsLinked, lsUnlinking) {
				tw.pend = append(tw.pend, h)
				return
			}
		case lsLinking:
			if c.CompareAndSwap(lsLinking, lsAbandoned) {
				return
			}
		default:
			return // already owned elsewhere (unreachable: unlink is unique)
		}
	}
}

// drainPend confirms and retires every node on the op's pend list.  A
// confirmGone pass over the node's key, from the node's own height down,
// unlinks it from any level where it is still reachable — no new link
// can appear once its lstate has left lsLinking — so afterwards the node
// is provably unreachable and safe to retire under non-counting schemes.
// The pass may bottom-unlink further claimed nodes, which pendUnlinked
// appends; the loop drains those too.  Must run inside the caller's
// BeginOp/EndOp section.
func (pq *PQueue) drainPend(t mm.Thread, tw *tower) {
	for len(tw.pend) > 0 {
		h := tw.pend[len(tw.pend)-1]
		tw.pend = tw.pend[:len(tw.pend)-1]
		pq.find(t, pq.key(h), confirmGone, h, tw)
		tw.release(t, pq)
		t.Retire(h)
	}
}

// headLink returns the level-lvl link of pred (the head root when pred is
// Nil).
func (pq *PQueue) headLink(pred arena.Handle, lvl int) mm.LinkID {
	if pred == arena.Nil {
		return pq.heads[lvl]
	}
	return pq.link(pred, lvl)
}

// A searchMode sets find's per-level stop and where each level starts.
type searchMode int

const (
	// insertAt stops at the first key > the search key, so equal keys
	// queue in arrival order, and starts each level at the level above's
	// pred.  Insert uses it.
	insertAt searchMode = iota
	// unlinkMin stops at the first key >= the search key.  DeleteMin
	// uses it to unlink the node it just claimed.
	unlinkMin
	// confirmGone stops like insertAt but starts every level at its
	// head, so it reaches the claimed node wherever it sits among equal
	// keys.  Concurrent inserts can order equal keys differently on two
	// levels; a walk that advanced past an equal key x on level L+1 and
	// descended from x would skip a claimed equal-key node that precedes
	// x on level L.  drainPend uses it.
	confirmGone
)

// find locates the insertion point for key, unlinking marked nodes it
// passes.  Insert passes claimed = Nil and searches every level.  The
// unlinking passes pass the claimed node and search only below its
// height: Insert links a node only below its height, so no higher level
// can reach it.  They also skip a level the claimed node has already
// been unlinked from (see unlinked) and end a level as soon as they
// unlink it, so the claimed node's duplicates are not walked.  Skipped
// levels are left Nil in the tower, as are levels at and above the
// start.
//
// On return the caller owns the tower's references: one on each
// predNodes[lvl] and one on each succs[lvl].  The walk itself guards
// only the pair it stands on.  A level's stop successor — the link out
// of succs[lvl] — is read with Load, never guarded: nothing is
// dereferenced through it, and an atomic read of a guarded node's own
// link is valid under every scheme.  Only a marked successor (cur must
// be unlinked) or an advance takes a DeRef.
func (pq *PQueue) find(t mm.Thread, key uint64, mode searchMode, claimed arena.Handle, tw *tower) {
	exclusive := mode != unlinkMin
	top := pq.maxLevel
	if claimed != arena.Nil {
		top = pq.level(claimed)
	}
retry:
	for {
		tw.release(t, pq)
		var tprev arena.Handle // traversal pred node, guarded (Nil = head)
		for lvl := top - 1; lvl >= 0; lvl-- {
			if claimed != arena.Nil && pq.unlinkedAt(claimed, lvl) {
				continue
			}
			if mode == confirmGone {
				t.Release(tprev)
				tprev = arena.Nil
			}
			prevLink := pq.headLink(tprev, lvl)
			cur := t.DeRef(prevLink)
			for {
				if cur.IsNil() {
					break // end of this level
				}
				ckey := pq.key(cur.Handle())
				stop := ckey > key || (!exclusive && ckey == key)
				if stop && !t.Load(pq.link(cur.Handle(), lvl)).Marked() {
					// Level stop: revalidate cur without guarding its
					// successor.
					if t.Load(prevLink) != arena.MakePtr(cur.Handle(), false) {
						t.Release(cur.Handle())
						t.Release(tprev)
						continue retry
					}
					break
				}
				next := t.DeRef(pq.link(cur.Handle(), lvl))
				if t.Load(prevLink) != arena.MakePtr(cur.Handle(), false) {
					t.Release(next.Handle())
					t.Release(cur.Handle())
					t.Release(tprev)
					continue retry
				}
				if next.Marked() {
					// cur is being deleted: unlink it at this level.
					target := arena.MakePtr(next.Handle(), false)
					if !t.CASLink(prevLink, arena.MakePtr(cur.Handle(), false), target) {
						t.Release(next.Handle())
						t.Release(cur.Handle())
						t.Release(tprev)
						continue retry
					}
					// Poisoning is safe for the same revalidation reason
					// as in the ordered list.
					pq.unlinked(t, tw, cur.Handle(), lvl, next)
					done := cur.Handle() == claimed
					t.Release(cur.Handle())
					cur = target // adopt next's reference
					if done {
						break
					}
					continue
				}
				// Advance within the level.  A stop never gets here: it
				// reaches the DeRef only after the peek saw a marked link,
				// and a marked link stays marked (PoisonPtr included).
				t.Release(tprev)
				tprev = cur.Handle()
				prevLink = pq.link(tprev, lvl)
				cur = next // adopt next's reference
			}
			tw.preds[lvl] = prevLink
			if tprev != arena.Nil {
				t.Copy(tprev) // stored slot keeps its own reference
			}
			tw.predNodes[lvl] = tprev
			tw.succs[lvl] = cur // transfer cur's reference to the tower
		}
		t.Release(tprev)
		return
	}
}

// towerFor returns the calling thread's scratch tower.  Thread slots are
// owned by one goroutine at a time, so no synchronization is needed.
func (pq *PQueue) towerFor(t mm.Thread) *tower {
	tw := pq.towers[t.ID()]
	if tw == nil {
		tw = &tower{
			preds:     make([]mm.LinkID, pq.maxLevel),
			predNodes: make([]arena.Handle, pq.maxLevel),
			succs:     make([]mm.Ptr, pq.maxLevel),
			hooked:    make([]mm.Ptr, pq.maxLevel),
		}
		pq.towers[t.ID()] = tw
	}
	return tw
}

// Insert adds (key, value).  Duplicate keys are allowed; equal keys
// dequeue in insertion order of their towers' bottom links.
func (pq *PQueue) Insert(t mm.Thread, key, value uint64) error {
	n, err := t.Alloc() // outside the pinned section
	if err != nil {
		return err
	}
	h := pq.randomLevel(t)
	pq.ar.SetVal(n, 0, key)
	pq.ar.SetVal(n, 1, value)
	pq.ar.SetVal(n, heightWord, uint64(h))
	pq.ar.SetVal(n, lsWord, lsLinking)

	tw := pq.towerFor(t)
	hooked := tw.hooked[:h]
	for i := range hooked {
		hooked[i] = arena.NilPtr
	}
	t.BeginOp()
	defer t.EndOp()

	// Phase 1: link the bottom level.
	for {
		pq.find(t, key, insertAt, arena.Nil, tw)
		// Pre-point n's links at the successors found for each level.
		ok := true
		for lvl := 0; lvl < h; lvl++ {
			want := arena.MakePtr(tw.succs[lvl].Handle(), false)
			if hooked[lvl] == want {
				continue
			}
			if !t.CASLink(pq.link(n, lvl), hooked[lvl], want) {
				ok = false // a concurrent deleter marked our link
				break
			}
			hooked[lvl] = want
		}
		if !ok {
			// Can only happen after n is published and deleted, which is
			// impossible in phase 1 (n is still private).
			panic("pqueue: private link CAS failed before publication")
		}
		if t.CASLink(tw.preds[0], arena.MakePtr(tw.succs[0].Handle(), false), arena.MakePtr(n, false)) {
			break
		}
		// Lost the race at the bottom level; retry with a fresh tower.
	}

	// Phase 2: link upper levels.  A concurrent deleteMin may already be
	// deleting n; stop as soon as n's bottom link is marked.
	for lvl := 1; lvl < h; lvl++ {
		for {
			if t.Load(pq.link(n, 0)).Marked() {
				lvl = h // n was deleted while we were linking
				break
			}
			if t.CASLink(tw.preds[lvl], arena.MakePtr(tw.succs[lvl].Handle(), false), arena.MakePtr(n, false)) {
				break
			}
			// Stale insertion point: refresh and re-aim n's level link.
			pq.find(t, key, insertAt, arena.Nil, tw)
			want := arena.MakePtr(tw.succs[lvl].Handle(), false)
			if hooked[lvl] != want {
				if !t.CASLink(pq.link(n, lvl), hooked[lvl], want) {
					// Our link was marked by a deleter: n is going away.
					lvl = h
					break
				}
				hooked[lvl] = want
			}
		}
	}
	// End of phase 2: publish "linking done".  A failed CAS means the
	// bottom-level unlinker ran while we were still linking and
	// abandoned the node to us — confirm its unlink and retire it.
	if !pq.ar.ValCell(n, lsWord).CompareAndSwap(lsLinking, lsLinked) {
		tw.pend = append(tw.pend, n)
	}
	pq.drainPend(t, tw)
	tw.release(t, pq)
	t.Release(n)
	return nil
}

// DeleteMin removes and returns the minimum-key pair.  ok is false when
// the queue is empty.
func (pq *PQueue) DeleteMin(t mm.Thread) (key, value uint64, ok bool) {
	tw := pq.towerFor(t)
	t.BeginOp()
	defer t.EndOp()
retry:
	for {
		prevLink := pq.heads[0]
		var tprev arena.Handle
		cur := t.DeRef(prevLink)
		for {
			if cur.IsNil() {
				t.Release(tprev)
				pq.drainPend(t, tw)
				return 0, 0, false
			}
			next := t.DeRef(pq.link(cur.Handle(), 0))
			if t.Load(prevLink) != arena.MakePtr(cur.Handle(), false) {
				t.Release(next.Handle())
				t.Release(cur.Handle())
				t.Release(tprev)
				continue retry
			}
			if next.Marked() {
				// Already claimed by another deleter: unlink and move on.
				target := arena.MakePtr(next.Handle(), false)
				if !t.CASLink(prevLink, arena.MakePtr(cur.Handle(), false), target) {
					t.Release(next.Handle())
					t.Release(cur.Handle())
					t.Release(tprev)
					continue retry
				}
				pq.unlinked(t, tw, cur.Handle(), 0, next)
				t.Release(cur.Handle())
				cur = target
				continue
			}
			// Claim cur: mark its upper levels top-down, then decide at
			// the bottom.
			h := pq.level(cur.Handle())
			for i := h - 1; i >= 1; i-- {
				for {
					li := t.Load(pq.link(cur.Handle(), i))
					if li.Marked() {
						break
					}
					if t.CASLink(pq.link(cur.Handle(), i), li, li.WithMark(true)) {
						break
					}
				}
			}
			nextUnmarked := arena.MakePtr(next.Handle(), false)
			if t.CASLink(pq.link(cur.Handle(), 0), nextUnmarked, nextUnmarked.WithMark(true)) {
				key = pq.key(cur.Handle())
				value = pq.value(cur.Handle())
				// Physically unlink at each of cur's h levels via the
				// helping search.
				pq.find(t, key, unlinkMin, cur.Handle(), tw)
				tw.release(t, pq)
				pq.drainPend(t, tw)
				t.Release(next.Handle())
				t.Release(cur.Handle())
				t.Release(tprev)
				return key, value, true
			}
			// Bottom CAS lost: either another deleter claimed cur or an
			// insert slipped a node in after cur.  Re-examine cur.
			t.Release(next.Handle())
			continue
		}
	}
}

// PeekMin returns the minimum pair without removing it.
func (pq *PQueue) PeekMin(t mm.Thread) (key, value uint64, ok bool) {
	t.BeginOp()
	defer t.EndOp()
retry:
	for {
		cur := t.DeRef(pq.heads[0])
		for {
			if cur.IsNil() {
				return 0, 0, false
			}
			next := t.Load(pq.link(cur.Handle(), 0))
			if !next.Marked() {
				key = pq.key(cur.Handle())
				value = pq.value(cur.Handle())
				t.Release(cur.Handle())
				return key, value, true
			}
			// Skip claimed nodes without helping (read-only peek).
			nx := t.DeRef(pq.link(cur.Handle(), 0))
			t.Release(cur.Handle())
			if nx == arena.PoisonPtr {
				// cur was unlinked under us; restart from the head.
				continue retry
			}
			cur = nx.WithMark(false)
		}
	}
}

// Len counts live nodes at level 0.  Quiescence only.
func (pq *PQueue) Len() int {
	n := 0
	steps := 0
	for p := pq.ar.LoadLink(pq.heads[0]); !p.IsNil(); {
		nx := pq.ar.LoadLink(pq.link(p.Handle(), 0))
		if !nx.Marked() {
			n++
		}
		steps++
		if steps > pq.ar.Nodes()+1 {
			return -1 // corrupted: cycle
		}
		p = nx.WithMark(false)
	}
	return n
}

// Keys returns the live keys in order.  Quiescence only.
func (pq *PQueue) Keys() []uint64 {
	var out []uint64
	for p := pq.ar.LoadLink(pq.heads[0]); !p.IsNil(); {
		nx := pq.ar.LoadLink(pq.link(p.Handle(), 0))
		if !nx.Marked() {
			out = append(out, pq.key(p.Handle()))
		}
		p = nx.WithMark(false)
	}
	return out
}
