package p2p

import (
	"errors"
	"maps"
	"reflect"
	"slices"
	"testing"

	"condisc/internal/handoff"
	"condisc/internal/interval"
)

// editCore publishes a copy of n's core edited by f, under the writer lock
// like any transition: tests use it to stage a ring state.
func editCore(n *Node, f func(c *ringCore)) {
	n.transit(func(c *ringCore) (*ringCore, error) { return c.step(nil, f) })
}

// coreEvent is one row of the transition table: an event applied to a
// core, the refusal each state answers it with (a state not listed
// transitions), and the state a transition leads to (nil: unchanged).
type coreEvent struct {
	name    string
	apply   func(c *ringCore) (*ringCore, error)
	refused map[ownership]error
	to      func(from ownership) ownership
}

// coreEvents is every event the ring core handles. Apart from adopt, a
// joining node refuses all of them: it has no segment to answer for.
func coreEvents() []coreEvent {
	check := func(err func(c *ringCore) error) func(c *ringCore) (*ringCore, error) {
		return func(c *ringCore) (*ringCore, error) { return c, err(c) }
	}
	to := func(s ownership) func(ownership) ownership { return func(ownership) ownership { return s } }
	from := func(src, dst ownership) func(ownership) ownership {
		return func(s ownership) ownership {
			if s == src {
				return dst
			}
			return s
		}
	}
	other := NodeInfo{ID: 40, Point: 150, Addr: "joiner"}
	busy := map[ownership]error{leaving: errLeaving, absorbing: errAbsorbBusy, absorbingExtended: errAbsorbBusy}
	with := func(m map[ownership]error, s ownership, err error) map[ownership]error {
		m = maps.Clone(m)
		m[s] = err
		return m
	}
	evs := []coreEvent{
		{name: "adopt", apply: func(c *ringCore) (*ringCore, error) {
			return c.adopt(1000, 1100, other, NodeInfo{ID: 41, Point: 1100, Addr: "next"}, true)
		}, refused: map[ownership]error{}, to: to(serving)},
		{name: "get", apply: check(func(c *ringCore) error { return c.serves(false, false) }),
			refused: map[ownership]error{leaving: errLeaving}},
		{name: "put", apply: check(func(c *ringCore) error { return c.serves(true, false) }),
			refused: map[ownership]error{leaving: errLeaving, absorbingExtended: errAbsorbResolving}},
		{name: "put into a fenced range", apply: check(func(c *ringCore) error { return c.serves(true, true) }),
			refused: map[ownership]error{serving: errFenced, leaving: errLeaving, absorbing: errFenced, absorbingExtended: errFenced}},
		{name: "join prepare", apply: check(func(c *ringCore) error { _, _, err := c.prepareJoin(150, nil); return err }),
			refused: map[ownership]error{leaving: errPrepareLeaving, absorbingExtended: errAbsorbResolving}},
		{name: "join commit", apply: func(c *ringCore) (*ringCore, error) {
			return c.commitJoin(&handoff.Session{Seg: interval.Segment{Start: 150, Len: 50}, RingVer: c.ringVer,
				Role: handoff.RoleJoin, Peer: handoff.Peer(other)}, nil)
		}},
		{name: "set pred", apply: func(c *ringCore) (*ringCore, error) { return c.setPred(other) }},
		{name: "patch back: add", apply: func(c *ringCore) (*ringCore, error) { return c.patchBack(false, other) }},
		{name: "patch back: remove", apply: func(c *ringCore) (*ringCore, error) { return c.patchBack(true, c.back[0]) }},
		{name: "set back", apply: func(c *ringCore) (*ringCore, error) { return c.setBack([]NodeInfo{other, c.pred}) }},
		{name: "stabilize: successor's predecessor joined", apply: func(c *ringCore) (*ringCore, error) {
			return c.stabilized(&other, 200, "joiner")
		}},
		{name: "stabilize: successor moved", apply: func(c *ringCore) (*ringCore, error) {
			return c.stabilized(nil, 210, c.addr)
		}},
		{name: "stabilize: steady", apply: func(c *ringCore) (*ringCore, error) {
			return c.stabilized(nil, c.end, c.addr)
		}},
		{name: "refresh successor chain", apply: func(c *ringCore) (*ringCore, error) {
			return c.refreshSuccs([]NodeInfo{c.succ, other}, false, true)
		}},
		{name: "leave", apply: func(c *ringCore) (*ringCore, error) { return c.leave(false) },
			refused: map[ownership]error{leaving: errLeaveInProgress, absorbing: errHandoffBusy, absorbingExtended: errHandoffBusy},
			to:      to(leaving)},
		{name: "leave while a join streams", apply: func(c *ringCore) (*ringCore, error) { return c.leave(true) },
			refused: map[ownership]error{serving: errHandoffBusy, leaving: errLeaveInProgress, absorbing: errHandoffBusy, absorbingExtended: errHandoffBusy}},
		{name: "leave aborted", apply: (*ringCore).resume, to: from(leaving, serving)},
		{name: "absorb", apply: func(c *ringCore) (*ringCore, error) { return c.absorb(c.succ.Addr) },
			refused: busy, to: to(absorbing)},
		{name: "absorb from a non-successor", apply: func(c *ringCore) (*ringCore, error) { return c.absorb("joiner") },
			refused: map[ownership]error{serving: errNotSuccessor, leaving: errLeaving, absorbing: errAbsorbBusy, absorbingExtended: errAbsorbBusy}},
		{name: "absorb extends", apply: func(c *ringCore) (*ringCore, error) {
			return c.extend(c.end, 300, NodeInfo{ID: 3, Point: 300, Addr: "succ2"})
		}, to: to(absorbingExtended)},
		{name: "absorb kept", apply: func(c *ringCore) (*ringCore, error) { return c.settle(true, 190, other) },
			to: from(absorbingExtended, absorbing)},
		{name: "absorb rolled back", apply: func(c *ringCore) (*ringCore, error) { return c.settle(false, 190, other) },
			to: from(absorbingExtended, absorbing)},
		{name: "absorb finished", apply: func(c *ringCore) (*ringCore, error) { return c.finishAbsorb([]NodeInfo{other}, true) },
			to: func(s ownership) ownership {
				if s == absorbing || s == absorbingExtended {
					return serving
				}
				return s
			}},
		{name: "detector trip", apply: check((*ringCore).busy), refused: busy},
		{name: "crash absorb", apply: func(c *ringCore) (*ringCore, error) { return c.crashAbsorb(c.succ, true) },
			refused: busy},
		{name: "crash absorb, chain unknown", apply: func(c *ringCore) (*ringCore, error) {
			d := *c
			d.succs = c.succs[:1]
			return d.crashAbsorb(d.succ, true)
		}, refused: with(busy, serving, errChainUnknown)},
		{name: "crash absorb, successor moved", apply: func(c *ringCore) (*ringCore, error) {
			return c.crashAbsorb(NodeInfo{ID: 77, Addr: "gone"}, true)
		}, refused: with(busy, serving, errSuccMoved)},
		{name: "mark dirty", apply: (*ringCore).markDirty},
		{name: "repair pass starts", apply: (*ringCore).takeRepairs},
		{name: "repair pass ends", apply: func(c *ringCore) (*ringCore, error) { return c.repaired(c.repairSegs) }},
	}
	for i := range evs {
		if evs[i].refused == nil {
			evs[i].refused = map[ownership]error{}
		}
		if evs[i].name != "adopt" {
			evs[i].refused[joining] = errJoining
		}
	}
	return evs
}

// coreIn is one fixed ring position, in the given ownership state.
func coreIn(s ownership) *ringCore {
	pred := NodeInfo{ID: 9, Point: 50, Addr: "pred"}
	succ := NodeInfo{ID: 2, Point: 200, Addr: "succ"}
	return &ringCore{
		id: 1, addr: "self", state: s, x: 100, end: 200, pred: pred, succ: succ, ringVer: 7,
		back:       []NodeInfo{pred, {ID: 5, Point: 400, Addr: "far"}},
		succs:      []NodeInfo{succ, {ID: 3, Point: 300, Addr: "succ2"}},
		repairSegs: []interval.Segment{{Start: 500, Len: 10}},
	}
}

// deepCopy clones c and every slice it references.
func deepCopy(c *ringCore) *ringCore {
	d := *c
	d.back, d.succs, d.repairSegs = slices.Clone(c.back), slices.Clone(c.succs), slices.Clone(c.repairSegs)
	return &d
}

var allStates = []ownership{joining, serving, leaving, absorbing, absorbingExtended}

// TestCoreTransitionTable runs every state × event pair: each either
// transitions — to the state the table names, leaving the published core
// untouched — or is refused with the named error the table names. The
// refusals are the ones the node answered before its ring state became
// one core, one for one.
func TestCoreTransitionTable(t *testing.T) {
	seen := map[error]bool{}
	for _, ev := range coreEvents() {
		for _, s := range allStates {
			c := coreIn(s)
			before := deepCopy(c)
			next, err := ev.apply(c)
			if !reflect.DeepEqual(c, before) {
				t.Errorf("%s in %s wrote to the core it was given", ev.name, s)
			}
			if want := ev.refused[s]; err != want {
				t.Errorf("%s in %s: refusal %v, want %v", ev.name, s, err, want)
				continue
			}
			if err != nil {
				seen[err] = true
				continue
			}
			want := s
			if ev.to != nil {
				want = ev.to(s)
			}
			if next.state != want {
				t.Errorf("%s in %s: led to %s, want %s", ev.name, s, next.state, want)
			}
		}
	}
	for _, err := range []error{errJoining, errLeaving, errFenced, errPrepareLeaving, errAbsorbResolving,
		errLeaveInProgress, errHandoffBusy, errAbsorbBusy, errNotSuccessor, errChainUnknown, errSuccMoved} {
		if !seen[err] {
			t.Errorf("no pair refused with %q", err)
		}
	}
}

// TestCoreRingVerStampsEveryBoundaryMove: a transition that moves end or
// succ yields ringVer + 1, and no other transition changes ringVer. A
// handoff commit stamped at prepare relies on it to see that its boundary
// moved under it.
func TestCoreRingVerStampsEveryBoundaryMove(t *testing.T) {
	moves := 0
	for _, ev := range coreEvents() {
		for _, s := range allStates {
			c := coreIn(s)
			next, err := ev.apply(c)
			if err != nil {
				continue
			}
			want := c.ringVer
			if next.end != c.end || next.succ != c.succ {
				want++
				moves++
			}
			if next.ringVer != want {
				t.Errorf("%s in %s: ringVer %d → %d (end %d → %d, succ %s → %s), want %d",
					ev.name, s, c.ringVer, next.ringVer, uint64(c.end), uint64(next.end), c.succ.Addr, next.succ.Addr, want)
			}
		}
	}
	if moves == 0 {
		t.Fatal("no transition moved end or succ")
	}
}

// TestCoreCrashAbsorbHealsTwoNodeRing: with the dead successor the only
// entry of a wrapped chain, the survivor absorbs the full circle, becomes
// its own predecessor and queues the lost segment for repair.
func TestCoreCrashAbsorbHealsTwoNodeRing(t *testing.T) {
	c := coreIn(serving)
	c.succs = c.succs[:1]
	c.succsWrapped = true
	next, err := c.crashAbsorb(c.succ, true)
	if err != nil || next.segment() != interval.FullCircle || next.pred.ID != c.id {
		t.Fatalf("two-node crash absorb: %v, segment %v, pred %x; want the full circle and pred = self", err, next.segment(), next.pred.ID)
	}
	if q := next.repairSegs; len(q) != 2 || q[1] != (interval.Segment{Start: 200, Len: uint64(c.x - c.end)}) {
		t.Fatalf("repair queue after a two-node crash absorb: %v", q)
	}
}

// ringState reads n's segment and ring pointers from its published core.
func ringState(n *Node) (x, end interval.Point, pred, succ NodeInfo) {
	c := n.core.Load()
	return c.x, c.end, c.pred, c.succ
}

// TestCoreJoinRanges: a prepare fences [p, end), cut short at the nearest
// streaming join session after p, whose joiner succeeds the new one; a
// commit flips only the segment tail, makes an inner range wait while an
// outer session still ends at the tail, and refuses for good a range the
// boundary moved past since its stamp.
func TestCoreJoinRanges(t *testing.T) {
	c := coreIn(serving)
	joiner := func(id uint64) handoff.Peer { return handoff.Peer{ID: id, Addr: "joiner"} }
	outer := &handoff.Session{Seg: interval.Segment{Start: 150, Len: 50}, Role: handoff.RoleJoin, Peer: joiner(40), RingVer: c.ringVer}
	inner := &handoff.Session{Seg: interval.Segment{Start: 120, Len: 30}, Role: handoff.RoleJoin, Peer: joiner(41), RingVer: c.ringVer}

	if upper, succ, err := c.prepareJoin(120, []*handoff.Session{outer}); err != nil || upper != inner.Seg || succ.ID != 40 {
		t.Fatalf("prepare at 120 beside a session at 150: %v, %v, %v; want %v succeeded by the outer joiner", upper, succ, err, inner.Seg)
	}
	if upper, succ, err := c.prepareJoin(150, nil); err != nil || upper != outer.Seg || succ != c.succ {
		t.Fatalf("prepare at 150: %v, %v, %v; want %v succeeded by the node's successor", upper, succ, err, outer.Seg)
	}
	for _, p := range []interval.Point{c.x, 250} {
		if _, _, err := c.prepareJoin(p, nil); !errors.Is(err, errOutsideSegment) {
			t.Fatalf("prepare at %d: %v, want %v", uint64(p), err, errOutsideSegment)
		}
	}
	full := coreIn(serving)
	full.end, full.succ = full.x, NodeInfo{ID: full.id, Point: uint64(full.x), Addr: full.addr}
	if upper, succ, err := full.prepareJoin(50, nil); err != nil || upper.Start != 50 || upper.End() != full.x || succ.ID != full.id {
		t.Fatalf("prepare on the full circle: %v, %v, %v; want [50, x) succeeded by the node itself", upper, succ, err)
	}

	if _, err := c.commitJoin(inner, []*handoff.Session{outer, inner}); !errors.Is(err, errOuterPending) {
		t.Fatalf("inner commit beside a streaming outer session: %v, want %v", err, errOuterPending)
	}
	if _, err := c.commitJoin(inner, []*handoff.Session{inner}); !errors.Is(err, errOuterPending) {
		t.Fatalf("inner commit, boundary unmoved: %v, want %v", err, errOuterPending)
	}
	moved := &handoff.Session{Seg: inner.Seg, Role: handoff.RoleJoin, Peer: inner.Peer, RingVer: c.ringVer - 1}
	if _, err := c.commitJoin(moved, []*handoff.Session{moved}); !errors.Is(err, errBoundaryMoved) {
		t.Fatalf("commit of a range the boundary moved past: %v, want %v", err, errBoundaryMoved)
	}
	next, err := c.commitJoin(outer, []*handoff.Session{outer, inner})
	if err != nil || next.end != 150 || next.succ.ID != 40 {
		t.Fatalf("outer commit: %v, end %d, succ %x; want end 150 and the joiner as successor", err, uint64(next.end), next.succ.ID)
	}
	if _, err := next.commitJoin(inner, []*handoff.Session{inner}); err != nil {
		t.Fatalf("inner commit after the outer one: %v", err)
	}
}
