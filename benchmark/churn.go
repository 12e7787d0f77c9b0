package main

import (
	"math/rand/v2"
	"time"
)

// The membership schedule is open loop: one event every churnEvery,
// whether or not the previous one has finished — churnBurst joins, then
// graceful leaves of those same nodes, repeating — and one stabilization
// sweep of the base nodes after every stabilizeEvery events. Because the
// schedule is fixed, a faster Join does not hand the reader more
// interference: join_p50_ms and the reader's tail move independently.
const (
	churnEvery     = 150 * time.Millisecond
	stabilizeEvery = 10
)

// openLoop runs do(i) for every event i that falls due before end, event i
// being due at start + i·every. An event never starts before it is due; if
// the previous one overran, it starts at once and the wait is charged to
// it: late[i] is how long after its due time it began, took[i] how long
// after its due time it finished. Both are ns; now and sleep are the
// clock, injected so the accounting can be tested without waiting.
func openLoop(start, end, every int64, now func() int64, sleep func(int64), do func(i int)) (late, took []int64) {
	for i := 0; ; i++ {
		due := start + int64(i)*every
		if due >= end {
			return late, took
		}
		if t := now(); t < due {
			sleep(due - t)
		}
		late = append(late, max(now()-due, 0))
		do(i)
		took = append(took, now()-due)
	}
}

// churner drives the schedule against a live cluster.
type churner struct {
	h     *harness
	cl    *cluster
	rng   *rand.Rand // bootstrap picks, from the run's seed
	ring  *rand.Rand // the joiners' sampled points, from clusterSeed like the base ring's
	lane  *lane
	burst int

	joined         []*member // nodes the schedule added, oldest first
	isJoin         []bool    // per event
	failedEv       []bool
	late, took     []int64
	stabilizeFails int
}

func newChurner(h *harness, cl *cluster) *churner {
	return &churner{h: h, cl: cl, rng: cl.in.stream(streamChurn), ring: rand.New(rand.NewPCG(clusterSeed, 2)),
		lane: h.newLane(), burst: h.cfg.sc.churnBurst}
}

func (ch *churner) run(start, end int64) {
	ch.late, ch.took = openLoop(start, end, int64(churnEvery), ch.h.now,
		func(ns int64) { time.Sleep(time.Duration(ns)) }, ch.event)
}

func (ch *churner) event(i int) {
	join := i%(2*ch.burst) < ch.burst
	ch.isJoin = append(ch.isJoin, join)
	var ok bool
	if join {
		sp := ch.lane.begin(ch.h.sp.join, -1, int64(i))
		ok = ch.join()
		ch.lane.end(sp)
	} else {
		sp := ch.lane.begin(ch.h.sp.leave, -1, int64(i))
		ok = ch.leave(maxRetries, retryDelay)
		ch.lane.end(sp)
	}
	ch.failedEv = append(ch.failedEv, !ok)
	if (i+1)%stabilizeEvery == 0 {
		sp := ch.lane.begin(ch.h.sp.stabilize, -1, int64(i))
		if err := ch.cl.stabilize(); err != nil {
			ch.stabilizeFails++
		}
		ch.lane.end(sp)
	}
}

func (ch *churner) join() bool {
	m, err := ch.cl.newMember()
	if err != nil {
		ch.h.noteFailure(err)
		return false
	}
	bootstrap := ch.cl.base[ch.rng.IntN(len(ch.cl.base))]
	if err := m.node.StartJoin(bootstrap.node.Addr(), ch.ring); err != nil {
		ch.h.noteFailure(err)
		m.node.Close()
		ch.cl.forget(m)
		return false
	}
	ch.joined = append(ch.joined, m)
	return true
}

// leave removes the oldest joined node, retrying a refusal ("handoff in
// progress; retry") like any other operation.
func (ch *churner) leave(retries int, delay time.Duration) bool {
	if len(ch.joined) == 0 {
		return true
	}
	m := ch.joined[0]
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		if err = m.node.Leave(); err == nil {
			ch.joined = ch.joined[1:]
			ch.cl.forget(m)
			return true
		}
		time.Sleep(delay)
	}
	ch.h.noteFailure(err)
	return false
}

// report sets the membership metrics and returns how many events ran.
func (ch *churner) report(rep *report) int {
	var joins, leaves []int64
	failed := 0
	for i, t := range ch.took {
		switch {
		case ch.failedEv[i]:
			failed++
		case ch.isJoin[i]:
			joins = append(joins, t)
		default:
			leaves = append(leaves, t)
		}
	}
	rep.attempted += len(ch.took)
	rep.failed += failed
	for _, m := range []struct {
		name string
		v    []int64
	}{{"join_p50_ms", joins}, {"leave_p50_ms", leaves}, {"churn.sched_late_p50_ms", ch.late}} {
		if v, ok := percentile(sortedCopy(m.v), 0.5); ok {
			rep.set(m.name, float64(v)/1e6)
		} else {
			rep.note("%s: not reported, %d samples leave fewer than %d beyond the median", m.name, len(m.v), minBeyond)
		}
	}
	var worst int64
	for _, l := range ch.late {
		worst = max(worst, l)
	}
	rep.set("churn.sched_late_max_ms", float64(worst)/1e6)
	rep.note("live_churn: %d joins, %d leaves, %d failed events, %d failed stabilization sweeps",
		len(joins), len(leaves), failed, ch.stabilizeFails)
	return len(ch.took)
}

// drain returns the ring to its base nodes after the window, outside any
// measurement: every node the schedule added leaves, then two sweeps.
func (ch *churner) drain(rep *report) {
	for len(ch.joined) > 0 {
		if !ch.leave(20, 50*time.Millisecond) {
			rep.ringOK = false
			rep.note("drain: %s would not leave", ch.joined[0].node.Addr())
			return
		}
	}
	for round := 0; round < 2; round++ {
		if err := ch.cl.stabilize(); err != nil {
			rep.note("drain: stabilization sweep: %v", err)
		}
	}
}
