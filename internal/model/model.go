// Package model is an executable micro-step model of the paper's
// wait-free reference-counting algorithm (DeRefLink, ReleaseRef,
// HelpDeRef, CompareAndSwapLink), built for systematic concurrency
// exploration: every shared-memory access of the pseudo-code is one
// atomic step, and an explorer enumerates (or samples) thread
// interleavings while checking ghost invariants:
//
//   - linearizability of dereferences (Lemma 2): a completed DeRefLink
//     must return a value the link held at some instant within the
//     operation's window — including helped answers;
//   - an unhelped dereference never returns a reclaimed node;
//   - reference counts never go negative; nodes are never reclaimed
//     twice;
//   - at quiescence, every node is either free with mm_ref==1 and no
//     incoming links, or live with mm_ref equal to twice its incoming
//     link count (Definition 1).
//
// The model also supports two deliberate mutations that remove
// protections the paper argues are necessary; the explorer finds the
// resulting violations, which validates both the model and the design:
//
//   - SkipBusyCheck: line D1 ignores the announcement busy counters, so
//     a slot can be reused while a helper has a pending answer CAS —
//     the ABA case of §3; the explorer exhibits a stale answer.
//   - NoHelp: CompareAndSwapLink omits HelpDeRef, so the optimistic
//     increment of line D5 can land on a reclaimed node and the
//     dereference returns it — the failure Lemma 2 rules out.
//
// Nodes in the model carry no link slots of their own (the release
// cascade of line R3 is a sequential loop proved terminating by
// Lemma 7); links are standalone cells.  The free-list is abstracted to
// an atomic free set: FreeNode is the single linearization step its
// Lemma 5 identifies.
package model

import "fmt"

// Capacity limits keep the state small and serializable.
const (
	MaxNodes   = 8
	MaxLinks   = 4
	MaxThreads = 3
)

// Mode selects deliberate protocol mutations.
type Mode struct {
	// SkipBusyCheck makes announcement-slot selection ignore busy
	// counters (removes the paper's ABA protection).
	SkipBusyCheck bool
	// NoHelp omits the HelpDeRef obligation after a successful link CAS
	// (breaks Lemma 2).
	NoHelp bool
	// PaperF3 runs FreeNode's line F3 exactly as printed in the paper:
	// the node is offered through annAlloc at mm_ref==1 instead of the
	// erratum-corrected handover value 3.  The explorer then finds the
	// count corruption that motivated the fix (DESIGN.md §6.1).
	PaperF3 bool
	// SkipA9Guard omits AllocNode's line A9 reference-count increment,
	// so a candidate's mm_next is read without the guard that freezes
	// it — the remove/re-insert hazard §3.1 explains.
	SkipA9Guard bool
}

// Op codes for scenario programs.
const (
	IDeRef   = iota // DeRef(Link) -> Reg
	IRelease        // Release(Node) — a constant handle the thread holds
	IRelReg         // Release(Reg) — release a dereference result
	ICAS            // CompareAndSwapLink(Link, Old, New) — constants
	IAlloc          // AllocNode() -> Reg (requires ModelFreeList)
)

// Instr is one scenario-program instruction.
type Instr struct {
	Op   int
	Link uint8
	Old  uint8 // ICAS expected node
	New  uint8 // ICAS replacement node
	Node uint8 // IRelease operand
	Reg  uint8 // IDeRef destination / IRelReg source
}

// Frame kinds of the micro-step interpreter.
const (
	kDeRef = iota
	kRelease
	kHelp
	kCAS
	kAlloc
	kFree
)

type frame struct {
	kind uint8
	pc   uint8
	link uint8
	a    uint8 // deref: probe cursor; release: node; cas: old; help: hid; alloc: flags; free: node
	b    uint8 // deref: value read; cas: new; help: hidx; alloc/free: helpID
	c    uint8 // deref: chosen slot; help: stashed answer; alloc: node; free: head read
	d    uint8 // alloc/free: current free-list index
	e    uint8 // alloc: successor read; free: chosen list index
}

type thread struct {
	ip         uint8 // next instruction
	done       bool
	pendingReg uint8 // 0xff = none
	reg        [4]uint8
	ret        uint8 // last deref result

	fp     int8 // -1: between instructions
	frames [6]frame

	// Ghost state for the linearizability check: the set of values
	// (bit 0 = nil, bit n = node n) the announced link has held during
	// the open dereference window [D3, D6].
	winOn   bool
	winLink uint8
	window  uint16
}

// State is one configuration of the modeled system.
type State struct {
	ref  [MaxNodes + 1]int16
	free uint16 // ghost bitmask: node is in a free structure
	link [MaxLinks + 1]uint8

	annIdx  [MaxThreads]uint8
	annCell [MaxThreads][MaxThreads]uint16 // 0x100|link or node id
	busy    [MaxThreads][MaxThreads]int8

	// Figure 5 free-list state (ModelFreeList only).
	next     [MaxNodes + 1]uint8   // mm_next chains
	freeHead [2 * MaxThreads]uint8 // 2·NR_THREADS list heads
	curFL    uint8                 // currentFreeList
	helpCur  uint8                 // helpCurrent
	annAlloc [MaxThreads]uint8     // allocation grant cells

	thr [MaxThreads]thread
}

// Config describes a scenario.
type Config struct {
	Threads  int
	Nodes    int
	Links    int
	Mode     Mode
	Programs [][]Instr
	// Init prepares links, refs and the free set.  Use the helpers
	// SetLink/AddFree/AddRef (or ChainFree with ModelFreeList).
	Init func(*State)
	// ModelFreeList switches reclamation from the abstract free set to
	// the paper's Figure 5 free-list protocol: ReleaseRef's line R4 runs
	// the FreeNode micro-steps, and IAlloc runs AllocNode.
	ModelFreeList bool
}

func encLink(l uint8) uint16 { return 0x100 | uint16(l) }

func nodeBit(n uint8) uint16 { return 1 << n } // bit 0 = nil

// SetLink points link l at node n, accounting the link's reference.
func (s *State) SetLink(l, n uint8) {
	s.link[l] = n
	if n != 0 {
		s.ref[n] += 2
	}
}

// AddFree marks node n free (mm_ref 1, on the free set).
func (s *State) AddFree(n uint8) {
	s.free |= 1 << n
	s.ref[n] = 1
}

// ChainFree chains the given nodes onto free-list head i (ModelFreeList
// scenarios), first to last.
func (s *State) ChainFree(i int, nodes ...uint8) {
	for k := len(nodes) - 1; k >= 0; k-- {
		n := nodes[k]
		s.AddFree(n)
		s.next[n] = s.freeHead[i]
		s.freeHead[i] = n
	}
}

// AddRef gives a thread-held reference to node n (the program must
// Release it).
func (s *State) AddRef(n uint8) { s.ref[n] += 2 }

// NewState builds the initial state for cfg.
func NewState(cfg Config) *State {
	s := &State{}
	for t := 0; t < cfg.Threads; t++ {
		s.thr[t].fp = -1
		s.thr[t].pendingReg = 0xff
	}
	if cfg.Init != nil {
		cfg.Init(s)
	}
	return s
}

// Done reports whether every thread has completed its program.
func (s *State) Done(cfg Config) bool {
	for t := 0; t < cfg.Threads; t++ {
		if !s.thr[t].done {
			return false
		}
	}
	return true
}

// Runnable reports whether thread t can take a step.
func (s *State) Runnable(t int) bool { return !s.thr[t].done }

// Key serializes the state for memoization.
func (s *State) Key(cfg Config) string {
	buf := make([]byte, 0, 128)
	for n := 0; n <= cfg.Nodes; n++ {
		buf = append(buf, byte(s.ref[n]), byte(s.ref[n]>>8))
	}
	buf = append(buf, byte(s.free), byte(s.free>>8))
	for l := 0; l <= cfg.Links; l++ {
		buf = append(buf, s.link[l])
	}
	if cfg.ModelFreeList {
		for n := 0; n <= cfg.Nodes; n++ {
			buf = append(buf, s.next[n])
		}
		for i := 0; i < 2*cfg.Threads; i++ {
			buf = append(buf, s.freeHead[i])
		}
		buf = append(buf, s.curFL, s.helpCur)
		for t := 0; t < cfg.Threads; t++ {
			buf = append(buf, s.annAlloc[t])
		}
	}
	for t := 0; t < cfg.Threads; t++ {
		buf = append(buf, s.annIdx[t])
		for j := 0; j < cfg.Threads; j++ {
			buf = append(buf, byte(s.annCell[t][j]), byte(s.annCell[t][j]>>8), byte(s.busy[t][j]))
		}
		th := &s.thr[t]
		buf = append(buf, th.ip, b2b(th.done), th.pendingReg,
			th.reg[0], th.reg[1], th.reg[2], th.reg[3], th.ret, byte(th.fp),
			b2b(th.winOn), th.winLink, byte(th.window), byte(th.window>>8))
		for f := int8(0); f <= th.fp; f++ {
			fr := &th.frames[f]
			buf = append(buf, fr.kind, fr.pc, fr.link, fr.a, fr.b, fr.c, fr.d, fr.e)
		}
	}
	return string(buf)
}

func b2b(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// openWindow starts the ghost linearizability window of a dereference.
// The window opens at the operation's *invocation* (the paper's interval
// [b_Op, f_Op] of Definition 2 begins when DeRefLink is called), which is
// what makes helped answers from helpers that pinned the slot after the
// announcer's line D1 legal — the exact timing case Lemma 2's proof
// argues about.  Opening the window later (e.g. at the announcement
// write of line D3) is strictly narrower than linearizability and
// produces false violations.
func (s *State) openWindow(th *thread, link uint8) {
	th.winOn = true
	th.winLink = link
	th.window = nodeBit(s.link[link])
}

// noteLinkWrite updates every open dereference window on link l.
func (s *State) noteLinkWrite(cfg Config, l, newVal uint8) {
	for t := 0; t < cfg.Threads; t++ {
		th := &s.thr[t]
		if th.winOn && th.winLink == l {
			th.window |= nodeBit(newVal)
		}
	}
}

func (th *thread) push(f frame) { th.fp++; th.frames[th.fp] = f }
func (th *thread) pop()         { th.fp-- }

// Step advances thread t by one atomic micro-step.  It returns a
// non-empty violation description if a ghost invariant fails.
func (s *State) Step(cfg Config, t int) string {
	th := &s.thr[t]
	if th.done {
		return ""
	}
	if th.fp < 0 {
		// Fetch: write back a pending dereference result, then push the
		// next instruction's frame (or finish).
		if th.pendingReg != 0xff {
			th.reg[th.pendingReg] = th.ret
			th.pendingReg = 0xff
		}
		prog := cfg.Programs[t]
		if int(th.ip) >= len(prog) {
			th.done = true
			return ""
		}
		in := prog[th.ip]
		th.ip++
		switch in.Op {
		case IDeRef:
			th.pendingReg = in.Reg
			th.push(frame{kind: kDeRef, link: in.Link})
			s.openWindow(th, in.Link)
		case IRelease:
			th.push(frame{kind: kRelease, a: in.Node})
		case IRelReg:
			if th.reg[in.Reg] != 0 {
				th.push(frame{kind: kRelease, a: th.reg[in.Reg]})
			}
		case ICAS:
			th.push(frame{kind: kCAS, link: in.Link, a: in.Old, b: in.New})
		case IAlloc:
			th.pendingReg = in.Reg
			th.push(frame{kind: kAlloc})
		}
		return ""
	}

	f := &th.frames[th.fp]
	switch f.kind {
	case kDeRef:
		return s.stepDeRef(cfg, t, th, f)
	case kRelease:
		return s.stepRelease(cfg, t, th, f)
	case kCAS:
		return s.stepCAS(cfg, t, th, f)
	case kHelp:
		return s.stepHelp(cfg, t, th, f)
	case kAlloc:
		return s.stepAlloc(cfg, t, th, f)
	case kFree:
		return s.stepFree(cfg, t, th, f)
	}
	return "unknown frame kind"
}

func (s *State) stepDeRef(cfg Config, t int, th *thread, f *frame) string {
	switch f.pc {
	case 0: // D1: probe announcement slots for busy==0
		if cfg.Mode.SkipBusyCheck || s.busy[t][f.a] == 0 {
			f.c = f.a
			f.pc = 1
		} else {
			f.a = (f.a + 1) % uint8(cfg.Threads)
		}
	case 1: // D2
		s.annIdx[t] = f.c
		f.pc = 2
	case 2: // D3: publish the announcement
		s.annCell[t][f.c] = encLink(f.link)
		f.pc = 3
	case 3: // D4
		f.b = s.link[f.link]
		f.pc = 4
	case 4: // D5
		if f.b != 0 {
			s.ref[f.b] += 2
		}
		f.pc = 5
	case 5: // D6: swap the announcement away; window closes
		n1 := s.annCell[t][f.c]
		s.annCell[t][f.c] = 0
		th.winOn = false
		if n1 == encLink(f.link) { // not helped
			if f.b != 0 && s.free&(1<<f.b) != 0 {
				return fmt.Sprintf("T%d: unhelped DeRef(link %d) returned reclaimed node %d", t, f.link, f.b)
			}
			if th.window&nodeBit(f.b) == 0 {
				return fmt.Sprintf("T%d: DeRef(link %d) returned %d, not held during window %#x", t, f.link, f.b, th.window)
			}
			th.ret = f.b
			th.pop()
			return ""
		}
		// Helped: n1 is the answer (a node id, possibly 0).
		ans := uint8(n1)
		if th.window&nodeBit(ans) == 0 {
			return fmt.Sprintf("T%d: helped DeRef(link %d) got stale answer %d, window %#x", t, f.link, ans, th.window)
		}
		f.c = ans
		if f.b != 0 { // D8: roll back the optimistic increment
			f.pc = 6
			th.push(frame{kind: kRelease, a: f.b})
		} else {
			th.ret = ans
			th.pop()
		}
	case 6: // resumed after D8's release
		th.ret = f.c
		th.pop()
	}
	return ""
}

func (s *State) stepRelease(cfg Config, t int, th *thread, f *frame) string {
	n := f.a
	switch f.pc {
	case 0: // R1
		s.ref[n] -= 2
		if s.ref[n] < 0 {
			return fmt.Sprintf("T%d: mm_ref of node %d went negative", t, n)
		}
		f.pc = 1
	case 1: // R2 read
		if s.ref[n] == 0 {
			f.pc = 2
		} else {
			th.pop()
		}
	case 2: // R2 CAS(0,1); R4 free
		if s.ref[n] == 0 {
			s.ref[n] = 1
			if s.free&(1<<n) != 0 {
				return fmt.Sprintf("T%d: node %d reclaimed twice", t, n)
			}
			s.free |= 1 << n
			if cfg.ModelFreeList {
				// R4: run the Figure 5 FreeNode protocol in place of
				// this frame.
				th.pop()
				th.push(frame{kind: kFree, a: n})
				return ""
			}
		}
		th.pop()
	}
	return ""
}

func (s *State) stepCAS(cfg Config, t int, th *thread, f *frame) string {
	switch f.pc {
	case 0: // register the link's prospective reference
		if f.b != 0 {
			s.ref[f.b] += 2
		}
		f.pc = 1
	case 1: // the CAS itself
		if s.link[f.link] == f.a {
			s.link[f.link] = f.b
			s.noteLinkWrite(cfg, f.link, f.b)
			if cfg.Mode.NoHelp {
				f.pc = 3
			} else {
				f.pc = 3
				th.push(frame{kind: kHelp, link: f.link})
			}
		} else {
			f.pc = 4
		}
	case 3: // success epilogue: release the old target's link reference
		if f.a != 0 {
			f.pc = 5
			th.push(frame{kind: kRelease, a: f.a})
		} else {
			th.pop()
		}
	case 4: // failure: roll back the prospective reference
		if f.b != 0 {
			f.pc = 5
			th.push(frame{kind: kRelease, a: f.b})
		} else {
			th.pop()
		}
	case 5:
		th.pop()
	}
	return ""
}

func (s *State) stepHelp(cfg Config, t int, th *thread, f *frame) string {
	switch f.pc {
	case 0: // H1/H2
		if int(f.a) >= cfg.Threads {
			th.pop()
			return ""
		}
		f.b = s.annIdx[f.a]
		f.pc = 1
	case 1: // H3
		if s.annCell[f.a][f.b] == encLink(f.link) {
			f.pc = 2
		} else {
			f.a++
			f.pc = 0
		}
	case 2: // H4
		s.busy[f.a][f.b]++
		f.pc = 3
	case 3: // H5: nested dereference
		f.pc = 4
		th.push(frame{kind: kDeRef, link: f.link})
		s.openWindow(th, f.link)
	case 4: // H6: answer CAS
		f.c = th.ret
		if s.annCell[f.a][f.b] == encLink(f.link) {
			s.annCell[f.a][f.b] = uint16(f.c)
			f.pc = 5
		} else if f.c != 0 { // H7
			f.pc = 5
			th.push(frame{kind: kRelease, a: f.c})
		} else {
			f.pc = 5
		}
	case 5: // H8
		s.busy[f.a][f.b]--
		f.a++
		f.pc = 0
	}
	return ""
}

// CheckQuiescent validates the Definition 1 invariants on a completed
// state.  held maps node -> number of references the scenario expects to
// remain (normally empty).
func (s *State) CheckQuiescent(cfg Config, held map[uint8]int) []string {
	var errs []string
	incoming := make([]int, cfg.Nodes+1)
	for l := 1; l <= cfg.Links; l++ {
		if n := s.link[l]; n != 0 {
			incoming[n]++
		}
	}
	granted := uint16(0)
	if cfg.ModelFreeList {
		for t := 0; t < cfg.Threads; t++ {
			if n := s.annAlloc[t]; n != 0 {
				granted |= 1 << n
			}
		}
	}
	for n := uint8(1); int(n) <= cfg.Nodes; n++ {
		isFree := s.free&(1<<n) != 0
		switch {
		case isFree:
			wantRef := int16(1)
			if granted&(1<<n) != 0 && !cfg.Mode.PaperF3 {
				// Grant handover convention (erratum fix).  Under the
				// PaperF3 mutation grants legitimately sit at 1, so the
				// quiescent check stays neutral and only genuine count
				// corruption (a zero/negative count after adoption) is
				// reported.
				wantRef = 3
			}
			if s.ref[n] != wantRef {
				errs = append(errs, fmt.Sprintf("free node %d has mm_ref %d, want %d", n, s.ref[n], wantRef))
			}
			if incoming[n] != 0 {
				errs = append(errs, fmt.Sprintf("free node %d has %d incoming links", n, incoming[n]))
			}
		default:
			want := int16(2 * (incoming[n] + held[n]))
			if s.ref[n] != want {
				errs = append(errs, fmt.Sprintf("node %d has mm_ref %d, want %d", n, s.ref[n], want))
			}
			if s.ref[n] == 0 && incoming[n] == 0 && held[n] == 0 {
				errs = append(errs, fmt.Sprintf("node %d leaked (mm_ref 0, not free)", n))
			}
		}
	}
	return errs
}
