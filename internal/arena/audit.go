package arena

import "fmt"

// AuditRC verifies the reference-counting invariants of a quiescent arena
// managed by one of the refcounting schemes (wait-free core or Valois
// baseline).  It must only be called while no operation is in flight.
//
// freeNodes maps each node the scheme currently considers free (present
// in a free-list or in an allocation announcement) to the number of times
// it was encountered during the scheme's walk; a correct scheme yields
// multiplicity exactly 1.
//
// extraRefs maps nodes to additional references legitimately held outside
// link cells (for example handles a test still holds); each such
// reference accounts for mm_ref weight 2.
//
// The invariants checked, in the paper's terms:
//
//  1. a free node has mm_ref == 1 (odd, reclaimed) and no link refers to it;
//  2. a live node has even mm_ref equal to 2*(incoming links + extra refs);
//  3. every node is either free exactly once or live — never both, never
//     lost.
func (a *Arena) AuditRC(freeNodes map[Handle]int, extraRefs map[Handle]int) []error {
	var errs []error
	incoming := make([]int, a.Nodes()+1)
	a.ForEachLink(func(id LinkID) {
		p := a.LoadLink(id)
		if h := p.Handle(); h != Nil {
			if !a.Valid(h) {
				errs = append(errs, fmt.Errorf("link %d holds invalid handle %d", id, h))
				return
			}
			incoming[h]++
		}
	})
	a.ForEachNode(func(h Handle) {
		ref := a.Ref(h).Load()
		mult, free := freeNodes[h]
		switch {
		case free:
			if mult != 1 {
				errs = append(errs, fmt.Errorf("node %d appears %d times in free structures", h, mult))
			}
			if ref != 1 {
				errs = append(errs, fmt.Errorf("free node %d has mm_ref=%d, want 1", h, ref))
			}
			if incoming[h] != 0 {
				errs = append(errs, fmt.Errorf("free node %d has %d incoming links", h, incoming[h]))
			}
		default:
			want := int64(2 * (incoming[h] + extraRefs[h]))
			if ref != want {
				errs = append(errs, fmt.Errorf(
					"live node %d has mm_ref=%d, want %d (incoming=%d extra=%d)",
					h, ref, want, incoming[h], extraRefs[h]))
			}
			if ref == 0 && incoming[h] == 0 && extraRefs[h] == 0 {
				// mm_ref==0 at quiescence means a release lost the
				// reclamation race and nobody finished it — a leak.
				errs = append(errs, fmt.Errorf("node %d leaked: mm_ref=0 but not in any free structure", h))
			}
		}
	})
	return errs
}
