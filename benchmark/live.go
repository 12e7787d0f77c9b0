package main

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"condisc/internal/interval"
	"condisc/internal/p2p"
	"condisc/internal/replicate"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// clusterSeed derives the shared item hash and the base ring's node
// points. It is part of the system under test, not a workload input: with
// it fixed, hops_per_op on the live workloads is a property of the code
// and not of the run's seed.
const clusterSeed = 0xC0D15C

// liveSpec is what distinguishes the three live workloads.
type liveSpec struct {
	name    string
	keys    int
	valSize int
	put     bool // operations are Client.Put with k=3 replication on WAL stores
	churn   bool // an open-loop join/leave schedule runs beside one reader
}

// member is one node of the in-process cluster together with the handles
// the benchmark keeps on it: its registry (counters are read from
// outside) and its store (the verifier reads the owner's copy directly).
type member struct {
	node *p2p.Node
	reg  *telemetry.Registry
	st   store.Store
	cli  *p2p.Client // enters the ring at this node
}

type cluster struct {
	spec   liveSpec
	in     *inputs
	dir    string
	hash   func(string) interval.Point
	cliReg *telemetry.Registry
	base   []*member
	// every is base plus the churn nodes now in the ring. A node that left
	// is dropped — a departed process holds no memory — after its counters
	// are folded into gone: they still belong in the window's totals.
	every []*member
	gone  map[string]int64
	made  int // members ever created, for directory names
}

func (cl *cluster) newMember() (*member, error) {
	m := &member{reg: telemetry.NewRegistry()}
	opts := []p2p.NodeOption{p2p.WithTelemetry(m.reg)}
	if cl.spec.put {
		// The dhnode -store=log policy: WAL with default options, fsync off.
		dir := filepath.Join(cl.dir, fmt.Sprintf("n%03d", cl.made))
		primary, err := store.OpenLog(filepath.Join(dir, "primary"), store.LogOptions{})
		if err != nil {
			return nil, err
		}
		replica, err := store.OpenLog(filepath.Join(dir, "replica"), store.LogOptions{})
		if err != nil {
			primary.Close()
			return nil, err
		}
		m.st = primary
		opts = append(opts, p2p.WithReplication(replicate.Policy{K: 3}), p2p.WithReplicaStore(replica))
	} else {
		m.st = store.NewMem()
	}
	node, err := p2p.NewNode("127.0.0.1:0", clusterSeed, append(opts, p2p.WithStore(m.st))...)
	if err != nil {
		return nil, err
	}
	m.node = node
	m.cli = &p2p.Client{Bootstrap: node.Addr(), Tel: cl.cliReg}
	cl.every = append(cl.every, m)
	cl.made++
	return m, nil
}

// forget drops a member that left the ring (or never got in), keeping
// its counters.
func (cl *cluster) forget(m *member) {
	for name, v := range m.reg.Snapshot().Counters {
		cl.gone[name] += v
	}
	for i, e := range cl.every {
		if e == m {
			cl.every = append(cl.every[:i], cl.every[i+1:]...)
			return
		}
	}
}

// buildCluster forms the base ring: the first node's store is filled
// before the ring exists, so each later join runs a real handoff of the
// range it takes over; two stabilization sweeps finish the tables. It is
// p2p.StartCluster's sequence spelled out, because StartCluster gives every
// node the same options and the benchmark needs a store and a registry of
// its own on each, and the first store filled before StartFirst.
func buildCluster(spec liveSpec, nodes int, in *inputs, dir string) (*cluster, error) {
	cl := &cluster{spec: spec, in: in, dir: dir, cliReg: telemetry.NewRegistry(), gone: map[string]int64{}}
	rng := rand.New(rand.NewPCG(clusterSeed, 1))
	for i := 0; i < nodes; i++ {
		m, err := cl.newMember()
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.base = append(cl.base, m)
		if i > 0 {
			if err := m.node.StartJoin(cl.base[0].node.Addr(), rng); err != nil {
				cl.close()
				return nil, fmt.Errorf("join %d: %w", i, err)
			}
			continue
		}
		cl.hash = m.node.HashFunc()
		if !spec.put {
			val := make([]byte, in.valSize)
			for k, key := range in.keys {
				fillValue(val, in.seed, k, 0)
				if err := m.st.Put(cl.hash(key), key, val); err != nil {
					cl.close()
					return nil, err
				}
			}
		}
		m.node.StartFirst(interval.Point(rng.Uint64()))
	}
	for round := 0; round < 2; round++ {
		if err := cl.stabilize(); err != nil {
			cl.close()
			return nil, err
		}
	}
	return cl, nil
}

// stabilize runs one sweep over the base nodes, returning the first error.
func (cl *cluster) stabilize() error {
	var first error
	for _, m := range cl.base {
		if err := m.node.Stabilize(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops every node still in the ring.
func (cl *cluster) close() {
	for _, m := range cl.every {
		m.node.Close()
	}
}

// counters is a snapshot of the cluster's telemetry, read from outside.
type counters struct {
	sum    map[string]int64 // Σ over every node ever started, departed ones included
	routed []int64          // condisc_p2p_msgs_routed_total per base node
}

func (cl *cluster) counters() counters {
	c := counters{sum: maps.Clone(cl.gone)}
	for _, m := range cl.every {
		for name, v := range m.reg.Snapshot().Counters {
			c.sum[name] += v
		}
	}
	for _, m := range cl.base {
		c.routed = append(c.routed, m.reg.Counter("condisc_p2p_msgs_routed_total").Value())
	}
	return c
}

// layerCounts turns the window's counter deltas into per-layer metrics.
// condisc_p2p_handoff_stream_bytes_total is deliberately not read: the
// node adds the stream's checksum to it, not its byte count (README,
// "defects found while measuring"); handoff bytes are computed from items.
func (cl *cluster) layerCounts(rep *report, c0, c1 counters, events int) {
	d := func(name string) float64 { return float64(c1.sum[name] - c0.sum[name]) }
	ops := rep.ops
	var rpcs float64
	for name := range c1.sum {
		if strings.HasPrefix(name, "condisc_p2p_rpc_total{") {
			rpcs += d(name)
		}
	}
	rep.set("p2p.wire.rpcs_per_op", rpcs/ops)
	// Dial-per-RPC: every RPC opens one socket.
	rep.set("proc.sockets_opened_per_op", rpcs/ops)
	rep.set("p2p.routing.msgs_routed_per_op", d("condisc_p2p_msgs_routed_total")/ops)
	rep.set("p2p.routing.stale_repairs_per_op", d("condisc_p2p_stale_repairs_total")/ops)
	var maxR, sumR float64
	for i := range c1.routed {
		r := float64(c1.routed[i] - c0.routed[i])
		maxR, sumR = max(maxR, r), sumR+r
	}
	rep.set("p2p.routing.load_max_over_mean", maxR/(sumR/float64(len(c1.routed))))

	if cl.spec.put {
		rep.set("p2p.replication.repl_puts_per_put", d("condisc_p2p_repl_puts_total")/ops)
	} else {
		rep.set("p2p.replication.fallbacks_per_get", d("condisc_p2p_repl_fallback_total")/ops)
	}
	rep.set("p2p.replication.quorum_fail_ratio", d("condisc_p2p_repl_quorum_fail_total")/ops)

	items := d("condisc_p2p_handoff_items_in_total")
	itemBytes := float64(8 + len(cl.in.keys[0]) + cl.in.valSize)
	rep.set("p2p.handoff.items_per_event", items/float64(events))
	rep.set("p2p.handoff.bytes_per_event", items*itemBytes/float64(events))
	rep.set("p2p.handoff.prepares_per_commit", d("condisc_p2p_handoff_prepares_total")/d("condisc_p2p_handoff_commits_total"))
	rep.set("p2p.handoff.aborts", d("condisc_p2p_handoff_aborts_total"))
}

// getDriver reads a uniform key through a uniform base node and checks
// the bytes.
type getDriver struct {
	h  *harness
	cl *cluster
}

func (d *getDriver) pick(c *client) {
	c.key, c.entry = c.rng.IntN(len(d.cl.in.keys)), c.rng.IntN(len(d.cl.base))
}

func (d *getDriver) try(c *client) (int, error) {
	val, hops, err := d.cl.base[c.entry].cli.Get(d.cl.in.keys[c.key], d.cl.hash)
	if err != nil {
		return 0, err
	}
	fillValue(c.scratch, d.cl.in.seed, c.key, 0)
	if !bytes.Equal(val, c.scratch) {
		return hops, errWrongBytes
	}
	return hops, nil
}

func (d *getDriver) done(*client, bool) {}

func (d *getDriver) trace(c *client, l *lane, op int64) { d.cl.traceRoute(d.h, c, l, op) }

// putDriver writes the next version of a key. Keys are split between the
// clients (key mod 2 = client id) so each key has one writer and "last
// acknowledged write" is well defined without any cross-client ordering.
type putDriver struct {
	h     *harness
	cl    *cluster
	tried []int32 // highest version sent per key
	acked []int32 // highest version acknowledged per key, -1 for none
}

const putWriters = 2

func newPutDriver(h *harness, cl *cluster) *putDriver {
	d := &putDriver{h: h, cl: cl, tried: make([]int32, len(cl.in.keys)), acked: make([]int32, len(cl.in.keys))}
	for i := range d.acked {
		d.tried[i], d.acked[i] = -1, -1
	}
	return d
}

func (d *putDriver) pick(c *client) {
	c.key = c.rng.IntN(len(d.cl.in.keys)/putWriters)*putWriters + c.id
	c.entry = c.rng.IntN(len(d.cl.base))
	d.tried[c.key]++
	c.version = d.tried[c.key]
}

func (d *putDriver) try(c *client) (int, error) {
	fillValue(c.scratch, d.cl.in.seed, c.key, c.version)
	return d.cl.base[c.entry].cli.Put(d.cl.in.keys[c.key], c.scratch, d.cl.hash)
}

func (d *putDriver) done(c *client, ok bool) {
	if ok {
		d.acked[c.key] = c.version
	}
}

func (d *putDriver) trace(c *client, l *lane, op int64) { d.cl.traceRoute(d.h, c, l, op) }

// traceRoute resolves the picked key's point through the picked entry
// node with per-hop tracing on and records the Hop records as nested
// child spans. A Hop carries only a duration (each node reports its own
// monotonic subtree time), so each child is centred inside its parent;
// self time — span minus child — is exact regardless of where it sits.
func (cl *cluster) traceRoute(h *harness, c *client, l *lane, op int64) {
	root := l.begin(h.sp.trace, -1, op)
	tr, err := cl.base[c.entry].cli.Trace(cl.hash(cl.in.keys[c.key]))
	l.end(root)
	if err != nil {
		return
	}
	parent, start, end := root, l.spans[root].start, l.spans[root].end
	for i, hop := range tr.Path {
		dur := min(hop.SubtreeNanos, end-start)
		start += (end - start - dur) / 2
		end = start + dur
		name := h.sp.hop
		if i == len(tr.Path)-1 {
			name = h.sp.owner
		}
		parent = l.add(name, parent, op, start, end)
	}
}

// traceSelfTimes reads the route traces back out of the span lanes: the
// median self time of a relaying hop and of the owner.
func traceSelfTimes(h *harness, rep *report) {
	var hopSelf, ownerSelf []int64
	for _, l := range h.rec.lanes {
		self := selfTimes(l.spans)
		for i, s := range l.spans {
			switch s.name {
			case h.sp.hop:
				hopSelf = append(hopSelf, self[i])
			case h.sp.owner:
				ownerSelf = append(ownerSelf, self[i])
			}
		}
	}
	if v, ok := percentile(sortedCopy(hopSelf), 0.5); ok {
		rep.set("p2p.routing.trace_hop_self_p50_us", float64(v)/1e3)
	}
	if v, ok := percentile(sortedCopy(ownerSelf), 0.5); ok {
		rep.set("p2p.routing.trace_owner_self_p50_us", float64(v)/1e3)
	}
}

// rpc0 measures the floor of one RPC: a Lookup of a node's own point
// entered at that node is answered with zero hops — one dial, one gob
// round trip, one dispatch. Nothing else runs, so the process-wide
// allocation delta is the RPC's.
func (cl *cluster) rpc0(h *harness, rep *report, n int) {
	l := h.newLane()
	sp := l.begin(h.sp.probe, -1, 0)
	defer l.end(sp)
	points := make([]interval.Point, len(cl.base))
	for i, m := range cl.base {
		points[i] = m.node.Point()
	}
	lat := make([]int64, 0, n)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		m := i % len(cl.base)
		t0 := time.Now()
		_, hops, err := cl.base[m].cli.Lookup(points[m])
		lat = append(lat, int64(time.Since(t0)))
		if err != nil || hops != 0 {
			rep.note("p2p.wire.rpc0: lookup of own point returned hops=%d err=%v", hops, err)
			return
		}
	}
	runtime.ReadMemStats(&m1)
	if v, ok := percentile(sortedCopy(lat), 0.5); ok {
		rep.set("p2p.wire.rpc0_p50_us", float64(v)/1e3)
	}
	rep.set("p2p.wire.rpc0_allocs", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	rep.set("p2p.wire.rpc0_bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
}

// quorumWait pairs a Lookup of a key's point with a Put of the key through
// the same entry node: same route, same wire, and the Put adds the value,
// the log append and the wait for the replica quorum. The median
// difference is what replication costs a writer.
func (d *putDriver) quorumWait(c *client, rep *report, n int) {
	l := d.h.newLane()
	sp := l.begin(d.h.sp.probe, -1, 0)
	defer l.end(sp)
	diffs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		d.pick(c)
		key := d.cl.in.keys[c.key]
		t0 := time.Now()
		_, _, lerr := d.cl.base[c.entry].cli.Lookup(d.cl.hash(key))
		t1 := time.Now()
		_, perr := d.try(c)
		t2 := time.Now()
		d.done(c, perr == nil)
		if lerr == nil && perr == nil {
			diffs = append(diffs, int64(t2.Sub(t1)-t1.Sub(t0)))
		}
	}
	if v, ok := percentile(sortedCopy(diffs), 0.5); ok {
		rep.set("p2p.replication.quorum_wait_p50_us", float64(v)/1e3)
	}
}

// verify is the correctness gate after the window. It walks the ring,
// requires it to close at expectNodes with segments that tile the circle,
// then checks every key at the store of the node the ring names as its
// owner, and reads a seeded sample back through Client.Get with the same
// retry rule as any operation. want(k) is the version key k must hold
// (-1: never acknowledged, skipped); alt(k) a later version that was sent
// but not acknowledged and may legitimately have landed.
func (cl *cluster) verify(rep *report, expectNodes, sample int, want, alt func(k int) int32) {
	states, err := cl.base[0].cli.RingStates()
	if err != nil {
		rep.ringOK = false
		rep.note("verify: ring walk failed: %v", err)
		return
	}
	sort.Slice(states, func(a, b int) bool { return states[a].Point < states[b].Point })
	for i, s := range states {
		if next := states[(i+1)%len(states)]; s.End != next.Point {
			rep.ringOK = false
			rep.note("verify: %s ends at %d but its successor starts at %d", s.Addr, s.End, next.Point)
		}
	}
	if len(states) != expectNodes {
		rep.ringOK = false
		rep.note("verify: ring closed at %d nodes, expected %d", len(states), expectNodes)
	}
	byAddr := map[string]*member{}
	for _, m := range cl.every {
		byAddr[m.node.Addr()] = m
	}
	matches := func(got []byte, k int, scratch []byte) bool {
		for _, v := range []int32{want(k), alt(k)} {
			fillValue(scratch, cl.in.seed, k, v)
			if bytes.Equal(got, scratch) {
				return true
			}
		}
		return false
	}
	scratch := make([]byte, cl.in.valSize)
	for k, key := range cl.in.keys {
		if want(k) < 0 {
			continue
		}
		p := cl.hash(key)
		// The owner is the node with the greatest point ≤ p; below the
		// smallest point the segment of the last node wraps around.
		i := sort.Search(len(states), func(i int) bool { return states[i].Point > uint64(p) })
		owner := byAddr[states[(i+len(states)-1)%len(states)].Addr]
		got, ok, err := owner.st.Get(p, key)
		if err != nil || !ok || !matches(got, k, scratch) {
			rep.mismatches++
		}
	}

	// Client read-back of a seeded sample, split between two readers.
	rng := cl.in.stream(streamVerify)
	picks := rng.Perm(len(cl.in.keys))[:min(sample, len(cl.in.keys))]
	var mu sync.Mutex
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]byte, cl.in.valSize)
			bad := 0
			for j := r; j < len(picks); j += 2 {
				k := picks[j]
				if want(k) < 0 {
					continue
				}
				entry := cl.base[k%len(cl.base)].cli
				var got []byte
				var err error
				for attempt := 0; attempt <= maxRetries; attempt++ {
					if got, _, err = entry.Get(cl.in.keys[k], cl.hash); err == nil || definitive(err) {
						break
					}
					time.Sleep(retryDelay)
				}
				if err != nil || !matches(got, k, scratch) {
					bad++
				}
			}
			mu.Lock()
			rep.mismatches += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// runLive runs one of the three live workloads.
func runLive(cfg config, spec liveSpec) (*report, error) {
	h := newHarness(cfg)
	rep := newReport(cfg)
	in := newInputs(cfg.seed, spec.keys, spec.valSize)
	dir := filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%s-%d", spec.name, os.Getpid()))
	defer os.RemoveAll(dir)

	// Set up several times and report the median; the last ring is used.
	var cl *cluster
	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		if cl != nil {
			cl.close()
		}
		t0 := time.Now()
		var err error
		if cl, err = buildCluster(spec, cfg.sc.nodes, in, filepath.Join(dir, fmt.Sprint(i))); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer cl.close()
	rep.set("setup_s", median(setups))

	var d driver
	var puts *putDriver
	if spec.put {
		puts = newPutDriver(h, cl)
		d = puts
	} else {
		d = &getDriver{h: h, cl: cl}
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	solo, full := window/2, window/2
	var ch *churner
	var background func(start, end int64)
	if spec.churn {
		solo, full = window, 0
		ch = newChurner(h, cl)
		background = ch.run
	}
	capHint := int(cfg.seconds * 4000)
	clients := []*client{h.newClient(0, in, capHint), h.newClient(1, in, capHint)}
	var c0, c1 counters
	w := h.measure(d, clients, window/10, solo, full,
		func() { c0 = cl.counters() }, func() { c1 = cl.counters() }, background)
	w.endToEndMetrics(rep)
	events := 0
	if ch != nil {
		events = ch.report(rep)
	}
	cl.layerCounts(rep, c0, c1, events)

	if cfg.trace {
		cl.rpc0(h, rep, cfg.sc.probeOps)
		w.hopFit(rep)
		traceSelfTimes(h, rep)
		if puts != nil {
			puts.quorumWait(clients[0], rep, cfg.sc.probeOps/4)
		}
		model := rep.get("p2p.wire.rpc0_p50_us") + rep.get("hops_per_op")*rep.get("p2p.wire.hop_us") +
			rep.get("p2p.replication.quorum_wait_p50_us")
		rep.note("reconcile: rpc0_p50_us + hops_per_op × hop_us + quorum_wait_p50_us = %.1f us against this run's op_p50_us %.1f us (%.1f%% apart)",
			model, rep.get("op_p50_us"), 100*relDiff(model, rep.get("op_p50_us")))
	}

	// Correctness gate.
	want, alt := func(int) int32 { return 0 }, func(int) int32 { return 0 }
	if puts != nil {
		want = func(k int) int32 { return puts.acked[k] }
		alt = func(k int) int32 { return puts.tried[k] }
	}
	if ch != nil {
		ch.drain(rep)
	}
	cl.verify(rep, len(cl.base), cfg.sc.readBack, want, alt)
	if puts != nil {
		// Bytes on disk per acknowledged user byte, primaries and replicas.
		var acked float64
		for _, v := range puts.acked {
			acked += float64(v+1) * float64(spec.valSize)
		}
		if disk, err := dirBytes(cl.dir); err == nil && acked > 0 {
			rep.set("store.log_disk_bytes_per_user_byte", float64(disk)/acked)
		}
		rep.note("live_put_k3: WAL stores with default LogOptions — fsync off, the dhnode -store=log policy")
	}
	if err := h.finish(rep, in, dir, spec.put); err != nil {
		return nil, err
	}
	return rep, nil
}
