// Package list implements the Harris–Michael lock-free ordered linked
// list (sorted set with logical deletion marks) on top of the
// scheme-neutral mm interface.
//
// Deletion is two-phase: a node is logically deleted by setting the mark
// bit on its next pointer, then physically unlinked by whichever
// traversal gets there first.  The mark travels inside the link word
// (arena.Ptr's mark bit), so the memory-management schemes handle marked
// links transparently.
//
// Node layout: link slot 0 is the next pointer; value word 0 is the key,
// word 1 the value.
package list

import (
	"fmt"

	"wfrc/internal/arena"
	"wfrc/internal/mm"
)

// List is a lock-free sorted map from uint64 keys to uint64 values.
// Methods are safe for concurrent use; each goroutine passes its own
// registered mm.Thread.  A List is two words (arena, head link) and holds
// no state of its own, so a caller that keeps many heads — the hash
// index — builds one with At per operation instead of storing them.
type List struct {
	ar   *arena.Arena
	head mm.LinkID
}

// CheckArena reports whether ar's node geometry can carry a list: at
// least 1 link and 2 value words per node.
func CheckArena(ar *arena.Arena) error {
	if c := ar.Config(); c.LinksPerNode < 1 || c.ValsPerNode < 2 {
		return fmt.Errorf("list: arena needs ≥1 link and ≥2 values per node, have %d/%d",
			c.LinksPerNode, c.ValsPerNode)
	}
	return nil
}

// At returns the list whose head is root link head of ar.  The caller
// reserved head (arena.NewRoots) and checked ar with CheckArena.
func At(ar *arena.Arena, head mm.LinkID) List { return List{ar: ar, head: head} }

// New creates an empty list managed by s.  The arena must provide at
// least 1 link and 2 value words per node.
func New(s mm.Scheme) (*List, error) {
	ar := s.Arena()
	if err := CheckArena(ar); err != nil {
		return nil, err
	}
	l := At(ar, ar.NewRoot())
	return &l, nil
}

// MustNew is New but panics on error.
func MustNew(s mm.Scheme) *List {
	l, err := New(s)
	if err != nil {
		panic(err)
	}
	return l
}

func (l List) next(h arena.Handle) mm.LinkID { return l.ar.LinkOf(h, 0) }

// pos is a search result.  The caller holds guarded references on
// prevNode (when non-nil), cur's node and next's node, and must release
// them through release().
type pos struct {
	prev     mm.LinkID    // the link that points to cur
	prevNode arena.Handle // node owning prev; Nil when prev is the head root
	cur      mm.Ptr       // first node with key >= search key; nil at end
	next     mm.Ptr       // cur's successor (unmarked view); nil when cur is nil
	found    bool         // cur is non-nil and cur.key == search key
}

func (p *pos) release(t mm.Thread) {
	t.Release(p.next.Handle())
	t.Release(p.cur.Handle())
	t.Release(p.prevNode)
}

// find locates key, unlinking marked nodes it passes (Michael's helping
// rule).  Lock-free: a traversal restarts when a CAS race invalidates
// its position.
func (l List) find(t mm.Thread, key uint64) pos {
retry:
	for {
		prev := l.head
		prevNode := arena.Nil
		cur := t.DeRef(prev)
		for {
			if cur.IsNil() {
				return pos{prev: prev, prevNode: prevNode, cur: cur}
			}
			next := t.DeRef(l.next(cur.Handle()))
			// Revalidate: prev must still point at an unmarked cur,
			// otherwise our position is stale.
			if t.Load(prev) != arena.MakePtr(cur.Handle(), false) {
				t.Release(next.Handle())
				t.Release(cur.Handle())
				t.Release(prevNode)
				continue retry
			}
			if next.Marked() {
				// cur is logically deleted: unlink it here.
				target := arena.MakePtr(next.Handle(), false)
				if !t.CASLink(prev, arena.MakePtr(cur.Handle(), false), target) {
					t.Release(next.Handle())
					t.Release(cur.Handle())
					t.Release(prevNode)
					continue retry
				}
				// Break the unlinked node's reference chain to its
				// successor (see arena.PoisonPtr).  Safe because no link
				// points at cur anymore: any traversal that read cur's
				// poisoned link fails its prev revalidation and retries.
				t.CASLink(l.next(cur.Handle()), next, arena.PoisonPtr)
				t.Retire(cur.Handle())
				t.Release(cur.Handle())
				cur = target // adopt next's reference as the new cur
				continue
			}
			ckey := l.ar.Val(cur.Handle(), 0)
			if ckey >= key {
				return pos{
					prev: prev, prevNode: prevNode,
					cur: cur, next: next,
					found: ckey == key,
				}
			}
			t.Release(prevNode)
			prevNode = cur.Handle()
			prev = l.next(prevNode)
			cur = next // adopt next's reference
		}
	}
}

// Insert adds key→value.  It returns false (without modifying the list)
// if the key is already present, and an error on arena exhaustion.
func (l List) Insert(t mm.Thread, key, value uint64) (bool, error) {
	n, err := t.Alloc() // outside the pinned section
	if err != nil {
		return false, err
	}
	l.ar.SetVal(n, 0, key)
	l.ar.SetVal(n, 1, value)
	t.BeginOp()
	defer t.EndOp()
	var hooked mm.Ptr // current target of n's private next link
	for {
		p := l.find(t, key)
		if p.found {
			p.release(t)
			// Discard the unused node; its private link may reference a
			// node from an earlier retry, which reclamation cascades drop.
			t.Retire(n)
			t.Release(n)
			return false, nil
		}
		curp := arena.MakePtr(p.cur.Handle(), false)
		// n is private: this CAS cannot fail, it only moves references.
		if !t.CASLink(l.next(n), hooked, curp) {
			panic("list: private link CAS failed")
		}
		hooked = curp
		if t.CASLink(p.prev, curp, arena.MakePtr(n, false)) {
			p.release(t)
			t.Release(n)
			return true, nil
		}
		p.release(t)
	}
}

// Set stores key→value, overwriting the value of an existing entry in
// place (the node's value word is an atomic cell, so the overwrite
// linearizes at its store).  It returns whether a new entry was
// inserted, and an error on arena exhaustion — updates of existing keys
// never allocate and never fail.
//
// An update racing a Delete of the same key linearizes before the
// delete: the value write lands in a node that is (or is about to be)
// unlinked, and the key reads as absent afterwards — the same contract
// as every in-node-value Harris list.
func (l List) Set(t mm.Thread, key, value uint64) (inserted bool, err error) {
	// Update pass: no allocation when the key is present.
	t.BeginOp()
	p := l.find(t, key)
	if p.found {
		l.ar.SetVal(p.cur.Handle(), 1, value)
		p.release(t)
		t.EndOp()
		return false, nil
	}
	p.release(t)
	t.EndOp()

	// Insert pass, mirroring Insert; a racing insert of the same key is
	// resolved by updating that winner's node in place.
	n, err := t.Alloc() // outside the pinned section (see Insert)
	if err != nil {
		return false, err
	}
	l.ar.SetVal(n, 0, key)
	l.ar.SetVal(n, 1, value)
	t.BeginOp()
	defer t.EndOp()
	var hooked mm.Ptr // current target of n's private next link
	for {
		p := l.find(t, key)
		if p.found {
			l.ar.SetVal(p.cur.Handle(), 1, value)
			p.release(t)
			t.Retire(n)
			t.Release(n)
			return false, nil
		}
		curp := arena.MakePtr(p.cur.Handle(), false)
		// n is private: this CAS cannot fail, it only moves references.
		if !t.CASLink(l.next(n), hooked, curp) {
			panic("list: private link CAS failed")
		}
		hooked = curp
		if t.CASLink(p.prev, curp, arena.MakePtr(n, false)) {
			p.release(t)
			t.Release(n)
			return true, nil
		}
		p.release(t)
	}
}

// CompareAndSet replaces key's value with new iff it currently equals
// old, via CAS on the node's value word.  It reports whether the swap
// happened and whether the key was present at all; (false, true) means
// the key exists but held a different value.
func (l List) CompareAndSet(t mm.Thread, key, old, new uint64) (swapped, found bool) {
	t.BeginOp()
	defer t.EndOp()
	p := l.find(t, key)
	if !p.found {
		p.release(t)
		return false, false
	}
	swapped = l.ar.ValCell(p.cur.Handle(), 1).CompareAndSwap(old, new)
	p.release(t)
	return swapped, true
}

// Delete removes key.  It returns false if the key is not present.
func (l List) Delete(t mm.Thread, key uint64) bool {
	t.BeginOp()
	defer t.EndOp()
	for {
		p := l.find(t, key)
		if !p.found {
			p.release(t)
			return false
		}
		nextUnmarked := arena.MakePtr(p.next.Handle(), false)
		// Logical deletion: mark cur's next pointer.  Losing this CAS
		// means another deleter or inserter interfered; retry from find.
		if !t.CASLink(l.next(p.cur.Handle()), nextUnmarked, nextUnmarked.WithMark(true)) {
			p.release(t)
			continue
		}
		// Physical unlink; on failure some traversal will finish the job
		// and retire the node.
		if t.CASLink(p.prev, arena.MakePtr(p.cur.Handle(), false), nextUnmarked) {
			// Break the unlinked node's chain (see arena.PoisonPtr).
			t.CASLink(l.next(p.cur.Handle()), nextUnmarked.WithMark(true), arena.PoisonPtr)
			t.Retire(p.cur.Handle())
		}
		p.release(t)
		return true
	}
}

// Get returns the value stored under key.
func (l List) Get(t mm.Thread, key uint64) (value uint64, ok bool) {
	t.BeginOp()
	defer t.EndOp()
	p := l.find(t, key)
	if p.found {
		value = l.ar.Val(p.cur.Handle(), 1)
	}
	ok = p.found
	p.release(t)
	return value, ok
}

// GetWith invokes fn with key's value word while the node's guarded
// reference is still held, and reports whether the key was found.  This
// is the read path for values that reference external storage (the
// value layer's block refs): the guard keeps the node from being
// reclaimed — and therefore the blocks from being freed by the
// node-free hook — until fn returns, so fn may safely decode the
// payload behind the word.  fn must not call back into the list.
func (l List) GetWith(t mm.Thread, key uint64, fn func(value uint64)) bool {
	t.BeginOp()
	defer t.EndOp()
	p := l.find(t, key)
	if p.found {
		fn(l.ar.Val(p.cur.Handle(), 1))
	}
	ok := p.found
	p.release(t)
	return ok
}

// Replace stores key→value by node replacement: a fresh private node
// carrying value takes the place of any existing node for key, which is
// marked, unlinked and retired.  Unlike Set it never overwrites a value
// word in place, which is the required discipline when values reference
// external storage — the old node's blocks are freed only by the
// node-free hook once every guard drops, and the new value ref is never
// exposed in a node another thread might concurrently retire.  The
// private node survives lost races (it is retired only if Replace
// returns an error, which cannot happen after allocation), so a retry
// can never double-free the new value's blocks.
//
// One traversal: the CAS that unlinks the old node is the CAS that links
// the new one (prev swings from old to new, new already pointing at
// old's successor).  Once old's next link carries the mark it is frozen,
// so the successor cannot be unlinked from behind old before the swing.
//
// Replace is not atomic: a reader that meets the old node between the
// mark and the swing — the very next CAS — sees the key absent, and if
// that reader's helping unlinks the old node first the key stays absent
// until Replace's next traversal inserts the new node.  That is the
// usual cache-tier SET contract, not a linearizable map update.  It
// returns whether an existing entry was replaced, and an error on arena
// exhaustion (in which case the list is unmodified).
func (l List) Replace(t mm.Thread, key, value uint64) (existed bool, err error) {
	n, err := t.Alloc() // outside the pinned section (see Insert)
	if err != nil {
		return false, err
	}
	l.ar.SetVal(n, 0, key)
	l.ar.SetVal(n, 1, value)
	t.BeginOp()
	defer t.EndOp()
	np := arena.MakePtr(n, false)
	var hooked mm.Ptr // current target of n's private next link
	for {
		p := l.find(t, key)
		// n goes in front of cur, or — when cur carries key — in cur's
		// place, in front of cur's successor.
		cur := arena.MakePtr(p.cur.Handle(), false)
		succ := cur
		if p.found {
			succ = arena.MakePtr(p.next.Handle(), false)
		}
		// n is private: this CAS cannot fail, it only moves references.
		if !t.CASLink(l.next(n), hooked, succ) {
			panic("list: private link CAS failed")
		}
		hooked = succ
		if !p.found {
			if t.CASLink(p.prev, cur, np) {
				p.release(t)
				t.Release(n)
				return existed, nil
			}
			p.release(t)
			continue
		}
		// Logical deletion of the old node, as in Delete.  Losing this CAS
		// means a deleter, an inserter or another replacer interfered.
		if !t.CASLink(l.next(cur.Handle()), succ, succ.WithMark(true)) {
			p.release(t)
			continue
		}
		existed = true
		// The swing.  It fails when a traversal already unlinked the marked
		// node, an insert landed in front of it, or prev's owner was marked;
		// the next find then finishes the unlink and takes the insert branch.
		if t.CASLink(p.prev, cur, np) {
			// Break the unlinked node's chain (see arena.PoisonPtr).
			t.CASLink(l.next(cur.Handle()), succ.WithMark(true), arena.PoisonPtr)
			t.Retire(cur.Handle())
			p.release(t)
			t.Release(n)
			return true, nil
		}
		p.release(t)
	}
}

// Range invokes fn with every unmarked entry's key and value word, in
// key order.  Quiescence only — the drain audit uses it to collect the
// set of live value words before checking block conservation.
func (l List) Range(fn func(key, value uint64)) {
	for p := l.ar.LoadLink(l.head); !p.IsNil(); {
		nx := l.ar.LoadLink(l.next(p.Handle()))
		if !nx.Marked() {
			fn(l.ar.Val(p.Handle(), 0), l.ar.Val(p.Handle(), 1))
		}
		p = nx.WithMark(false)
	}
}

// Contains reports whether key is present.
func (l List) Contains(t mm.Thread, key uint64) bool {
	_, ok := l.Get(t, key)
	return ok
}

// Len walks the list counting unmarked nodes.  Quiescence only.
func (l List) Len() int {
	n := 0
	for p := l.ar.LoadLink(l.head); !p.IsNil(); {
		nx := l.ar.LoadLink(l.next(p.Handle()))
		if !nx.Marked() {
			n++
		}
		if n > l.ar.Nodes() {
			return -1 // corrupted: cycle
		}
		p = nx.WithMark(false)
	}
	return n
}

// Keys returns the unmarked keys in order.  Quiescence only.
func (l List) Keys() []uint64 {
	var out []uint64
	for p := l.ar.LoadLink(l.head); !p.IsNil(); {
		nx := l.ar.LoadLink(l.next(p.Handle()))
		if !nx.Marked() {
			out = append(out, l.ar.Val(p.Handle(), 0))
		}
		p = nx.WithMark(false)
	}
	return out
}
