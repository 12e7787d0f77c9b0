package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"condisc"
	"condisc/internal/dhgraph"
	"condisc/internal/erasure"
	"condisc/internal/handoff"
	"condisc/internal/hashing"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/partition"
	"condisc/internal/replicate"
	"condisc/internal/route"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// perOp runs f n times and returns the mean ns per call.
func perOp(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// mallocs returns the allocation count and bytes f causes.
func mallocs(f func()) (count, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// prober runs the direct layer probes of a traced run: each layer's
// exported functions called with the workload's own keys and values,
// after the measured window, with nothing else running. A probe failure
// is a note and a zero, never a failed run — the workload's own output
// check has already passed or failed by now.
type prober struct {
	h    *harness
	rep  *report
	lane *lane
	in   *inputs
	val  []byte
	pts  []interval.Point
}

// span times one probe as a span named after its layer.
func (p *prober) span(name string, f func() error) {
	sp := p.lane.begin(p.h.rec.name("probe."+name), -1, 0)
	err := f()
	p.lane.end(sp)
	if err != nil {
		p.rep.note("probe %s: %v", name, err)
	}
}

func runProbes(h *harness, rep *report, in *inputs, dir string, haveDiskRatio bool) {
	p := &prober{h: h, rep: rep, lane: h.newLane(), in: in, val: make([]byte, in.valSize)}
	fillValue(p.val, in.seed, 0, 0)
	hash := hashing.NewKWise(8, rand.New(rand.NewPCG(clusterSeed, clusterSeed^0x9e3779b97f4a7c15)))
	p.pts = make([]interval.Point, len(in.keys))
	for i, k := range in.keys {
		p.pts[i] = hash.Point(k)
	}
	dir = filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	n := h.cfg.sc.probeOps

	p.span("hashing", func() error {
		rep.set("hashing.point_ns", perOp(len(in.keys), func(i int) { sink += uint64(hash.Point(in.keys[i])) }))
		rep.set("interval.walkprefix_ns", perOp(100*n, func(i int) {
			sink += uint64(interval.WalkPrefix(p.pts[i%len(p.pts)], interval.Point(i), uint(i%64)))
		}))
		return nil
	})
	p.span("store.mem", p.memStore)
	p.span("handoff", p.handoffStream)
	p.span("store.log", func() error { return p.logStore(dir, n, haveDiskRatio) })
	p.span("replicate", p.replicatePayloads)
	p.span("route", func() error { return p.routeWalk(n) })
	p.span("condisc", func() error { return p.simulator(n) })
	p.span("telemetry", func() error {
		reg := telemetry.NewRegistry()
		ctr, hist, jrn := reg.Counter("probe_total"), reg.Histogram("probe_nanos"), journal.New(1024)
		rep.set("telemetry.counter_inc_ns", perOp(500*n, func(int) { ctr.Inc() }))
		rep.set("telemetry.histogram_observe_ns", perOp(500*n, func(i int) { hist.Observe(int64(i)) }))
		rep.set("journal.record_ns", perOp(500*n, func(i int) {
			jrn.Record(journal.KindHandStream, uint64(i), 0, 1, 2, 3)
		}))
		return nil
	})
}

// filledMem returns an in-memory store holding every key of the workload.
func (p *prober) filledMem() (*store.Mem, error) {
	m := store.NewMem()
	for i, k := range p.in.keys {
		if err := m.Put(p.pts[i], k, p.val); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (p *prober) memStore() error {
	m := store.NewMem()
	var err error
	p.rep.set("store.mem_put_ns", perOp(len(p.in.keys), func(i int) {
		if e := m.Put(p.pts[i], p.in.keys[i], p.val); e != nil {
			err = e
		}
	}))
	p.rep.set("store.mem_get_ns", perOp(len(p.in.keys), func(i int) {
		v, _, e := m.Get(p.pts[i], p.in.keys[i])
		if e != nil {
			err = e
		}
		sink += uint64(len(v))
	}))
	// Half the circle split off and merged back, five times.
	half := interval.Segment{Start: 0, Len: 1 << 63}
	var splits []float64
	for r := 0; r < 5 && err == nil; r++ {
		t0 := time.Now()
		part, e := m.SplitRange(half)
		splits = append(splits, float64(time.Since(t0))/1e3)
		if e != nil {
			return e
		}
		err = m.MergeFrom(part)
	}
	p.rep.set("store.split_range_us", median(splits))
	return err
}

// handoffStream pushes the whole key set through Stream → ReadStream over
// an in-memory pipe — the framing, checksumming and batching a join pays,
// with no socket — and through Move between two stores.
func (p *prober) handoffStream() error {
	src, err := p.filledMem()
	if err != nil {
		return err
	}
	itemBytes := float64(8 + len(p.in.keys[0]) + len(p.val))
	dst := store.NewMem()
	var took time.Duration
	var readErr error
	allocs, _ := mallocs(func() {
		pr, pw := io.Pipe()
		t0 := time.Now()
		go func() {
			cur := src.Cursor(interval.FullCircle)
			_, _, err := handoff.Stream(pw, cur, 0, nil)
			cur.Close()
			pw.CloseWithError(err) // nil closes with EOF
		}()
		_, readErr = handoff.ReadStream(bufio.NewReader(pr), func(items []store.Item) error {
			for _, it := range items {
				if err := dst.Put(it.Point, it.Key, it.Value); err != nil {
					return err
				}
			}
			return nil
		}, nil)
		took = time.Since(t0)
		pr.Close() // unblocks the sender if the reader stopped early
	})
	if readErr != nil {
		return readErr
	}
	if dst.Len() != len(p.in.keys) {
		return fmt.Errorf("stream delivered %d of %d items", dst.Len(), len(p.in.keys))
	}
	items := float64(len(p.in.keys))
	p.rep.set("handoff.stream_mb_s", items*itemBytes/1e6/took.Seconds())
	p.rep.set("handoff.stream_allocs_per_item", allocs/items)

	t0 := time.Now()
	moved, err := handoff.Move(src, store.NewMem(), interval.FullCircle)
	p.rep.set("handoff.move_items_per_s", float64(moved)/time.Since(t0).Seconds())
	return err
}

func (p *prober) logStore(dir string, n int, haveDiskRatio bool) error {
	n = min(n, len(p.in.keys))
	lg, err := store.OpenLog(filepath.Join(dir, "log"), store.LogOptions{})
	if err != nil {
		return err
	}
	defer lg.Close()
	p.rep.set("store.log_put_ns", perOp(n, func(i int) {
		if e := lg.Put(p.pts[i], p.in.keys[i], p.val); e != nil {
			err = e
		}
	}))
	p.rep.set("store.log_get_ns", perOp(n, func(i int) {
		v, _, e := lg.Get(p.pts[i], p.in.keys[i])
		if e != nil {
			err = e
		}
		sink += uint64(len(v))
	}))
	if err != nil {
		return err
	}
	if !haveDiskRatio {
		disk, derr := dirBytes(lg.Dir())
		if derr != nil {
			return derr
		}
		p.rep.set("store.log_disk_bytes_per_user_byte", float64(disk)/float64(n*len(p.val)))
	}
	// The fsync number is this sandbox's file system, not a device.
	synced, err := store.OpenLog(filepath.Join(dir, "log-fsync"), store.LogOptions{Fsync: true})
	if err != nil {
		return err
	}
	defer synced.Close()
	p.rep.set("store.log_put_fsync_us", perOp(max(n/20, 10), func(i int) {
		if e := synced.Put(p.pts[i], p.in.keys[i], p.val); e != nil {
			err = e
		}
	})/1e3)
	return err
}

func (p *prober) replicatePayloads() error {
	pol := replicate.Policy{K: 3}
	var payloads [][]byte
	p.rep.set("replicate.payloads_ns", perOp(2000, func(int) { payloads = replicate.Payloads(pol, p.val) }))
	ok := true
	p.rep.set("replicate.reconstruct_ns", perOp(2000, func(int) {
		v, good := replicate.Reconstruct(payloads)
		ok = ok && good
		sink += uint64(len(v))
	}))
	if !ok {
		return fmt.Errorf("Reconstruct refused the payloads Payloads built")
	}
	code, err := erasure.NewCode(4, 8)
	if err != nil {
		return err
	}
	ns := perOp(200, func(int) { sink += uint64(len(code.Encode(p.val))) })
	p.rep.set("erasure.encode_mb_s", float64(len(p.val))/1e6/(ns/1e9))
	return nil
}

// routeWalk times the simulator's Fast Lookup and cover resolution on a
// ring of the simulator workload's size.
func (p *prober) routeWalk(n int) error {
	servers := p.h.cfg.sc.simServers
	rng := p.in.stream(streamProbe)
	ring := partition.Grow(partition.New(), servers, partition.MultipleChooser(2), rng)
	nw := route.NewNetwork(dhgraph.Build(ring, 2))
	lookups := 10 * n
	var ns float64
	allocs, _ := mallocs(func() {
		ns = perOp(lookups, func(i int) {
			sink += uint64(len(nw.FastLookup(i%servers, p.pts[i%len(p.pts)])))
		})
	})
	p.rep.set("route.fastlookup_ns", ns)
	p.rep.set("route.fastlookup_allocs", allocs/float64(lookups))
	snap := ring.Snapshot()
	p.rep.set("partition.cover_ns", perOp(100*n, func(i int) { sink += uint64(snap.Cover(p.pts[i%len(p.pts)])) }))
	return nil
}

func (p *prober) simulator(n int) error {
	servers := p.h.cfg.sc.simServers
	t0 := time.Now()
	d := condisc.New(servers, condisc.Options{Seed: p.in.seed, CacheThreshold: -1, Telemetry: telemetry.NewRegistry()})
	defer d.Close()
	p.rep.set("condisc.build_s", time.Since(t0).Seconds())
	n = min(n, len(p.in.keys))
	p.rep.set("condisc.put_ns", perOp(n, func(i int) { sink += uint64(d.Put(i%servers, p.in.keys[i], p.val)) }))
	t0 = time.Now()
	ids := d.JoinBatch(16)
	err := d.LeaveBatch(ids)
	p.rep.set("condisc.wave16_ms", float64(time.Since(t0))/1e6)
	return err
}
