// Package p2p runs the Distance Halving DHT as live nodes over TCP.
//
// Lock rule: a forwarding hop reads the published ringCore and takes no lock.
// An owner-side item op serves under the read side of Node.mu. A transition
// publishes the next core under the write side and sends RPCs after unlocking.
package p2p

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"condisc/internal/handoff"
	"condisc/internal/interval"
)

// ownership is where a node stands in §2.1's two segment moves: a joiner
// splitting its owner's segment, and a leaver's predecessor enlarging its own.
type ownership uint8

const (
	joining           ownership = iota // no segment yet: refuses everything, fast, until its join commits
	serving                            // owns [x, end) and serves it
	leaving                            // streaming its segment to its predecessor: item ops refused
	absorbing                          // pulling a leaving successor's segment
	absorbingExtended                  // absorbed segment published, the leaver's commit unresolved
)

func (s ownership) String() string {
	return [...]string{"joining", "serving", "leaving", "absorbing", "absorbing-extended"}[s]
}

// The named refusals. A peer or caller receives one as its text; one that
// says "retry" names a window that passes.
var (
	errJoining         = errors.New("node is joining; retry")
	errLeaving         = errors.New("node is leaving; retry")
	errFenced          = errors.New("range is mid-handoff; retry")
	errPrepareLeaving  = errors.New("node is leaving; retry via another node")
	errAbsorbResolving = errors.New("leave absorption resolving; retry")
	errLeaveInProgress = errors.New("p2p: leave already in progress")
	errHandoffBusy     = errors.New("p2p: handoff in progress; retry")
	errAbsorbBusy      = errors.New("absorption in progress; retry")
	errNotSuccessor    = errors.New("leave offer from a node that is not my successor")
	errTailTaken       = errors.New("p2p: a join took the segment tail while the leave streamed")
	errOutsideSegment  = errors.New("join point outside segment")
	errOuterPending    = errors.New("outer handoff session unresolved; retry commit")
	errBoundaryMoved   = errors.New("segment boundary moved since prepare; rejoin")
	errSuccMoved       = errors.New("p2p: successor changed since the probe")
	errChainUnknown    = errors.New("p2p: the dead successor's successor is unknown")
)

// ringCore is everything that decides who owns a point, as one immutable
// value: Node publishes it through an atomic pointer and replaces it whole.
// Transitions are pure: the current core and an event go in, the next core
// or a named refusal comes out, with no I/O and no clock.
type ringCore struct {
	id      uint64 // the node's identity, fixed for its lifetime
	addr    string
	state   ownership
	x, end  interval.Point // the segment [x, end); x == end is the full circle
	pred    NodeInfo
	succ    NodeInfo
	ringVer uint64 // counts end/succ moves: handoff sessions stamp it at prepare
	// back is the backward table — the covers of b(s) that Fast Lookup hops
	// through — sorted by Point and patched by stable ID.
	back []NodeInfo
	// succs is the K−1-deep successor chain (entry 0 is succ): replica
	// targets, and crash repair's replica holders. succsWrapped records that
	// the last chain walk came back to this node, which alone proves the ring
	// is smaller than the walk wanted.
	succs        []NodeInfo
	succsWrapped bool
	// The repair queue: crash-absorbed segments whose items exist only as
	// replicas until repair re-materializes them, and whether the owned
	// range needs re-replicating.
	repairSegs []interval.Segment
	replDirty  bool
}

// setEndSucc is the only writer of end and succ, and moving either bumps
// ringVer: a handoff commit stamped with an older version then sees that
// its boundary moved. It acts on a core not yet published.
func (c *ringCore) setEndSucc(end interval.Point, succ NodeInfo) {
	if c.end != end || c.succ != succ {
		c.end, c.succ = end, succ
		c.ringVer++
	}
}

// step is the shape of every transition: unless refused, edit a copy of c.
func (c *ringCore) step(refusal error, edit func(next *ringCore)) (*ringCore, error) {
	if refusal != nil {
		return nil, refusal
	}
	next := *c
	edit(&next)
	return &next, nil
}

func (c *ringCore) segment() interval.Segment {
	if c.x == c.end {
		return interval.FullCircle
	}
	return interval.Segment{Start: c.x, Len: uint64(c.end - c.x)}
}

// admit gates every request a peer sends, and every transition but adopt.
func (c *ringCore) admit() error {
	if c.state == joining {
		return errJoining
	}
	return nil
}

// serves checks an owner-side Get or Put. A leaving node's store is
// mid-handoff to its predecessor: a write would be invisible to the stream,
// and after commit a read would be a silent miss. fenced says a Put's point
// lies in a range mid-handoff to a joiner, whose stream cursor may be past
// it; reads there keep being served, the range is ours until commit. An
// absorber whose extension waits on the leaver's commit refuses Puts: a
// refused commit deletes the absorbed range from its store.
func (c *ringCore) serves(put, fenced bool) error {
	switch {
	case c.state == joining:
		return errJoining
	case c.state == leaving:
		return errLeaving
	case put && fenced:
		return errFenced
	case put && c.state == absorbingExtended:
		return errAbsorbResolving
	}
	return nil
}

// prepareJoin picks the range a join at p fences, and the joiner's
// successor: the upper part [p, end) of the segment — [p, x) on the full
// circle — cut short at the start of the nearest streaming join session
// after p, whose joiner then succeeds the new one. Ownership moves only
// at commit; the session itself lives in handoff.Sessions.
//
// While absorbing-extended no successor can be named for the joiner: the
// leaver if the absorption rolls back, its successor if not. An absorption
// before that does not refuse: the session is stamped with ringVer, and
// commitJoin checks the stamp and the boundary, so whichever of the two
// moves publishes second sees the other.
func (c *ringCore) prepareJoin(p interval.Point, streaming []*handoff.Session) (interval.Segment, NodeInfo, error) {
	err := c.admit()
	switch {
	case c.state == leaving:
		err = errPrepareLeaving
	case c.state == absorbingExtended:
		err = errAbsorbResolving
	case err == nil && (!c.segment().Contains(p) || p == c.x):
		err = fmt.Errorf("%w: %v", errOutsideSegment, p)
	}
	if err != nil {
		return interval.Segment{}, NodeInfo{}, err
	}
	upper, succ := interval.Segment{Start: p, Len: uint64(c.end - p)}, c.succ
	if c.x == c.end { // singleton network: this node succeeds the joiner
		succ = NodeInfo{ID: c.id, Point: uint64(c.x), Addr: c.addr}
	}
	for _, s := range streaming {
		if d := uint64(s.Seg.Start - p); s.Role == handoff.RoleJoin && d > 0 && d < upper.Len {
			upper.Len, succ = d, NodeInfo(s.Peer)
		}
	}
	return upper, succ, nil
}

// busy refuses taking over a successor's segment — by a leave absorption,
// by the failure detector's trip or by the crash absorb that follows it —
// while joining, while leaving (the items would park in a store about to
// be cleared), or while absorbing: two extensions would race to rewrite
// end. Outbound join sessions do not exclude an absorption; extend checks
// the boundary before it publishes.
func (c *ringCore) busy() error {
	switch c.state {
	case leaving:
		return errLeaving
	case absorbing, absorbingExtended:
		return errAbsorbBusy
	}
	return c.admit()
}

// adopt gives the node its ring position: StartFirst, or a committed join.
func (c *ringCore) adopt(x, end interval.Point, pred, succ NodeInfo, dirty bool) (*ringCore, error) {
	return c.step(nil, func(next *ringCore) {
		next.state, next.x, next.pred, next.back, next.replDirty = serving, x, pred, []NodeInfo{pred}, dirty
		next.setEndSucc(end, succ)
	})
}

// commitJoin hands a join session's range to its joiner. Only the segment
// tail may flip: an inner range flipping first would, if an outer session
// then aborted, leave a hole no stabilization repairs, so it waits while
// some streaming join session still ends at the segment end. Without one,
// and with the boundary moved since the session's stamp — an absorption
// extended the segment past it — no commit can make the range the tail
// again, and flipping would strand the absorbed range: refused for good.
func (c *ringCore) commitJoin(sess *handoff.Session, streaming []*handoff.Session) (*ringCore, error) {
	err := c.admit()
	if err == nil && sess.Seg.End() != c.end {
		err = errOuterPending
		tail := slices.ContainsFunc(streaming, func(s *handoff.Session) bool {
			return s.Role == handoff.RoleJoin && s.Seg.End() == c.end
		})
		if sess.RingVer != c.ringVer && !tail {
			err = errBoundaryMoved
		}
	}
	return c.step(err, func(next *ringCore) { next.setEndSucc(sess.Seg.Start, NodeInfo(sess.Peer)) })
}

func (c *ringCore) setPred(p NodeInfo) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) { next.pred = p })
}

// patchBack adds, or removes, backward-table entries by stable ID.
func (c *ringCore) patchBack(remove bool, es ...NodeInfo) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) { next.back = patched(c.back, remove, es) })
}

// setBack replaces the whole backward table (a stabilization refresh).
func (c *ringCore) setBack(entries []NodeInfo) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) { next.back = patched(nil, false, entries) })
}

// patched returns a copy of back with each of es removed by ID and, unless
// remove, added again, sorted by Point.
func patched(back []NodeInfo, remove bool, es []NodeInfo) []NodeInfo {
	back = slices.Clone(back)
	for _, e := range es {
		back = slices.DeleteFunc(back, func(b NodeInfo) bool { return b.ID == e.ID })
		if !remove {
			back = append(back, e)
		}
	}
	sortByPoint(back)
	return back
}

// stabilized applies a successor probe: adopt cand (the successor's
// predecessor) if it lies inside our segment, or else re-read end from a
// successor that names us as its predecessor.
func (c *ringCore) stabilized(cand *NodeInfo, succPoint interval.Point, succPred string) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) {
		if cand != nil {
			if p := interval.Point(cand.Point); c.segment().Contains(p) && p != c.x {
				next.setEndSucc(p, *cand)
			}
		} else if succPred == c.addr {
			next.setEndSucc(succPoint, c.succ)
		}
	})
}

// refreshSuccs installs a fresh successor chain; with replication on, a
// changed chain marks the owned range for re-replication.
func (c *ringCore) refreshSuccs(chain []NodeInfo, wrapped, repl bool) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) {
		next.succs, next.succsWrapped = chain, wrapped
		if repl && !slices.EqualFunc(chain, c.succs, func(a, b NodeInfo) bool { return a.ID == b.ID }) {
			next.replDirty = true
		}
	})
}

// leave starts handing the segment to the predecessor; streaming says a
// join session holds a fence a leave stream would violate. An absorption
// is still promoting items the leave stream would miss and its commit's
// store clear would destroy.
func (c *ringCore) leave(streaming bool) (*ringCore, error) {
	err := c.admit()
	switch {
	case c.state == leaving:
		err = errLeaveInProgress
	case err == nil && (streaming || c.state == absorbing || c.state == absorbingExtended):
		err = errHandoffBusy
	}
	return c.step(err, func(next *ringCore) { next.state = leaving })
}

// resume ends a leave that did not commit: the node serves again.
func (c *ringCore) resume() (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) { next.state = c.state.after(leaving, serving) })
}

// after returns to if s is from, else s: a transition that ends one phase
// leaves a node in any other state where it was.
func (s ownership) after(from, to ownership) ownership {
	if s == from {
		return to
	}
	return s
}

// absorb accepts a leave offer from src.
func (c *ringCore) absorb(src string) (*ringCore, error) {
	err := c.busy()
	if err == nil && src != c.succ.Addr {
		err = errNotSuccessor
	}
	return c.step(err, func(next *ringCore) { next.state = absorbing })
}

// extend publishes the absorbed segment [segStart, end) before the
// leaver's commit, unless a join took the tail meanwhile.
func (c *ringCore) extend(segStart, end interval.Point, succ NodeInfo) (*ringCore, error) {
	err := c.admit()
	if err == nil && c.end != segStart {
		err = errTailTaken
	}
	return c.step(err, func(next *ringCore) {
		next.state = absorbingExtended
		next.setEndSucc(end, succ)
	})
}

// settle resolves the extension once the leaver's commit has an answer:
// kept, or rolled back to the end and successor it replaced.
func (c *ringCore) settle(keep bool, oldEnd interval.Point, oldSucc NodeInfo) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) {
		next.state = c.state.after(absorbingExtended, absorbing)
		if !keep {
			next.setEndSucc(oldEnd, oldSucc)
		}
	})
}

// finishAbsorb ends an absorption: the absorbed arc's covers join the
// backward table, and dirty asks for the absorbed range to be re-replicated.
func (c *ringCore) finishAbsorb(covers []NodeInfo, dirty bool) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) {
		next.state = c.state.after(absorbing, serving).after(absorbingExtended, serving)
		next.back = patched(c.back, false, covers)
		next.replDirty = c.replDirty || dirty
	})
}

// crashAbsorb declares the successor dead and takes its segment, healing
// past it to the cached chain's next live node — or, after a walk that
// wrapped right behind it, to this node alone. With replication the
// segment is queued for repair from replicas.
func (c *ringCore) crashAbsorb(dead NodeInfo, repl bool) (*ringCore, error) {
	err := c.busy()
	if err == nil && (c.succ.ID != dead.ID || c.succ.Addr != dead.Addr) {
		err = errSuccMoved
	}
	heal := NodeInfo{ID: c.id, Point: uint64(c.x), Addr: c.addr} // a two-node ring: the survivor owns the full circle
	switch {
	case len(c.succs) > 1 && c.succs[1].Addr != dead.Addr && c.succs[1].ID != c.id:
		heal = c.succs[1]
	case !c.succsWrapped || len(c.succs) != 1 || c.succs[0].ID != dead.ID:
		// Absorbing the whole circle here would split-brain a larger ring.
		err = cmp.Or(err, errChainUnknown)
	}
	return c.step(err, func(next *ringCore) {
		next.setEndSucc(interval.Point(heal.Point), heal)
		if heal.ID == c.id {
			next.pred = heal
		}
		next.back = patched(c.back, true, []NodeInfo{dead})
		if repl {
			lost := interval.Segment{Start: c.end, Len: uint64(next.end - c.end)}
			next.repairSegs = append(slices.Clip(c.repairSegs), lost)
			next.replDirty = true
		}
	})
}

func (c *ringCore) markDirty() (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) { next.replDirty = true })
}

// takeRepairs starts a repair pass: the re-replicate bit is consumed, the
// segments stay queued until repaired retires them.
func (c *ringCore) takeRepairs() (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) { next.replDirty = false })
}

// repaired retires the segments a repair pass re-materialized.
func (c *ringCore) repaired(done []interval.Segment) (*ringCore, error) {
	return c.step(c.admit(), func(next *ringCore) {
		next.repairSegs = slices.Clone(c.repairSegs)
		for _, s := range done {
			if i := slices.Index(next.repairSegs, s); i >= 0 {
				next.repairSegs = slices.Delete(next.repairSegs, i, i+1)
			}
		}
	})
}

// nextHop picks the backward-table entry covering pos, or a ring step
// while the table has none but this node.
func (c *ringCore) nextHop(pos interval.Point) NodeInfo {
	if len(c.back) > 0 {
		i := sort.Search(len(c.back), func(k int) bool { return c.back[k].Point > uint64(pos) })
		if i == 0 {
			i = len(c.back)
		}
		if cand := c.back[i-1]; cand.Addr != c.addr {
			return cand
		}
	}
	return c.ringStep(pos)
}

// ringStep returns the ring neighbour in the direction of p.
func (c *ringCore) ringStep(p interval.Point) NodeInfo {
	if interval.CWDist(c.x, p) <= 1<<63 {
		return c.succ
	}
	return c.pred
}

// sortByPoint orders routing-table entries by segment start.
func sortByPoint(entries []NodeInfo) {
	sort.Slice(entries, func(a, b int) bool { return entries[a].Point < entries[b].Point })
}
