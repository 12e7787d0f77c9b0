package main

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"condisc/internal/p2p"
)

// One operation is one logical request: an error other than a definitive
// one is retried up to maxRetries times, retryDelay apart (a node answers
// "…; retry" while it leaves or fences a handoff range), the latency spans
// every attempt, and the operation fails only if every attempt does or the
// bytes that came back are wrong.
const (
	maxRetries = 3
	retryDelay = 5 * time.Millisecond
	// levelSlices is how many equal time slices a phase is cut into for
	// the level metrics (op_p50_us, ops_per_s), which report the second
	// best slice; tailSlices is the most the tail ratio is cut into.
	levelSlices = 10
	tailSlices  = 5
	// traceEvery: in a traced run every traceEvery-th operation is followed
	// by a Client.Trace of the same point through the same entry node.
	traceEvery = 50
	// traceSlice: a traced run records spans in every second slice of this
	// length and none in the others, so one process, one ring and one
	// minute of machine weather give both sides of trace.overhead_ratio.
	traceSlice = 500 * time.Millisecond
)

var (
	errWrongBytes = errors.New("benchmark: returned bytes differ from value(seed, key, version)")
	errSimMiss    = errors.New("benchmark: simulator Get missed a key that was Put")
)

// definitive reports whether retrying err cannot help.
func definitive(err error) bool {
	return errors.Is(err, p2p.ErrNotFound) || errors.Is(err, errWrongBytes) || errors.Is(err, errSimMiss)
}

// driver is what a workload plugs into the client loop.
type driver interface {
	// pick draws the next operation's inputs from c.rng into c.
	pick(c *client)
	// try makes one attempt at the picked operation and checks its output.
	try(c *client) (hops int, err error)
	// done is told the operation's final outcome.
	done(c *client, ok bool)
	// trace follows a traced operation with a per-hop route trace,
	// recorded into l as children of a new root span of operation op.
	trace(c *client, l *lane, op int64)
}

// sample is one finished operation.
type sample struct {
	start, end int64 // ns since the harness epoch
	hops       int32
	ok         bool
	traced     bool
}

// client is one closed-loop load generator: it issues its next operation
// only when the previous one has returned.
type client struct {
	id      int
	rng     *rand.Rand
	scratch []byte // value buffer, reused: the harness allocates nothing per op
	samples []sample
	retries int
	ops     int64
	lane    *lane // nil in an untraced run

	// The picked operation.
	key, entry int
	version    int32
}

// spanNames are the interned names of the spans the harness records.
type spanNames struct {
	op, attempt, trace, hop, owner, join, leave, stabilize, probe uint16
}

// harness holds what one run of one workload shares.
type harness struct {
	cfg   config
	epoch time.Time
	rec   *recorder // nil in an untraced run
	sp    spanNames

	mu         sync.Mutex
	reasons    map[string]int // failed-operation error texts → count
	wrongBytes int            // operations that returned wrong bytes
}

func newHarness(cfg config) *harness {
	h := &harness{cfg: cfg, epoch: time.Now(), reasons: map[string]int{}}
	if cfg.trace {
		h.rec = newRecorder()
		h.rec.epoch = h.epoch
		h.sp = spanNames{
			op: h.rec.name("client.op"), attempt: h.rec.name("client.attempt"),
			trace: h.rec.name("client.trace"), hop: h.rec.name("p2p.hop"), owner: h.rec.name("p2p.owner"),
			join: h.rec.name("churn.join"), leave: h.rec.name("churn.leave"),
			stabilize: h.rec.name("churn.stabilize"), probe: h.rec.name("probe"),
		}
	}
	return h
}

func (h *harness) now() int64 { return int64(time.Since(h.epoch)) }

// newLane returns a span lane, or nil in an untraced run.
func (h *harness) newLane() *lane {
	if h.rec == nil {
		return nil
	}
	return h.rec.newLane()
}

// noteFailure records why an operation failed; at most 16 distinct texts
// are kept.
func (h *harness) noteFailure(err error) {
	h.mu.Lock()
	if errors.Is(err, errWrongBytes) {
		h.wrongBytes++
	}
	if len(h.reasons) < 16 || h.reasons[err.Error()] > 0 {
		h.reasons[err.Error()]++
	}
	h.mu.Unlock()
}

// finish closes a run: the failure record and the correctness metrics,
// and in a traced run the layer probes and the span file. dir is where
// the probes may put their log stores.
func (h *harness) finish(rep *report, in *inputs, dir string, haveDiskRatio bool) error {
	rep.reasons, rep.wrongBytes = h.reasons, h.wrongBytes
	rep.set("fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)))
	rep.set("verify_mismatches", float64(rep.mismatches))
	if !h.cfg.trace {
		return nil
	}
	runProbes(h, rep, in, dir, haveDiskRatio)
	return h.writeTrace(rep)
}

func (h *harness) newClient(id int, in *inputs, capHint int) *client {
	return &client{id: id, rng: in.stream(streamClient + uint64(id)),
		scratch: make([]byte, in.valSize), samples: make([]sample, 0, capHint), lane: h.newLane()}
}

// loop issues operations back to back until the clock passes until.
func (c *client) loop(h *harness, d driver, until int64) {
	for {
		start := h.now()
		if start >= until {
			return
		}
		d.pick(c)
		c.ops++
		op := int64(c.id)<<40 | c.ops
		l := c.lane
		if (start/int64(traceSlice))%2 == 0 {
			l = nil
		}
		opSpan := l.begin(h.sp.op, -1, op)
		var hops int
		var err error
		for attempt := 0; ; attempt++ {
			at := l.begin(h.sp.attempt, opSpan, op)
			hops, err = d.try(c)
			l.end(at)
			if err == nil || attempt == maxRetries || definitive(err) {
				break
			}
			c.retries++
			time.Sleep(retryDelay)
		}
		end := h.now()
		l.end(opSpan)
		d.done(c, err == nil)
		c.samples = append(c.samples, sample{start: start, end: end, hops: int32(hops), ok: err == nil, traced: l != nil})
		if err != nil {
			h.noteFailure(err)
		}
		if l != nil && c.ops%traceEvery == 0 {
			d.trace(c, l, op)
		}
	}
}

// window is one measured run of a workload: a solo phase with one client,
// then a full phase with two (the box has two cores).
type window struct {
	start, soloEnd, end int64
	clients             []*client
	mem0, mem1          runtime.MemStats
	cpu0, cpu1          float64 // process user+sys CPU, µs
	heapMB              float64
	goroutinesPeak      int
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measure warms up with one client, then runs the solo and full phases.
// onStart and onEnd bracket the measured window (counter snapshots);
// background, if non-nil, runs for the whole window beside the clients
// (the churn schedule) and is waited for.
func (h *harness) measure(d driver, clients []*client, warm, solo, full time.Duration,
	onStart, onEnd func(), background func(start, end int64)) *window {
	clients[0].loop(h, d, h.now()+int64(warm))
	for _, c := range clients {
		c.samples, c.retries = c.samples[:0], 0
	}
	// Start every window from a just-collected heap, so GC cycles inside it
	// depend on what the window allocates and not on what set-up left.
	runtime.GC()

	w := &window{clients: clients}
	stopSampler := func() {}
	if h.cfg.trace {
		stopSampler = w.sampleGoroutines()
	}
	onStart()
	runtime.ReadMemStats(&w.mem0)
	w.cpu0 = cpuMicros()
	w.start = h.now()
	w.soloEnd = w.start + int64(solo)
	w.end = w.soloEnd + int64(full)

	var bg sync.WaitGroup
	if background != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			background(w.start, w.end)
		}()
	}
	clients[0].loop(h, d, w.soloEnd)
	if full > 0 {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.loop(h, d, w.end)
			}()
		}
		wg.Wait()
	}
	bg.Wait()
	w.cpu1 = cpuMicros()
	runtime.ReadMemStats(&w.mem1)
	onEnd()
	stopSampler()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return w
}

// sampleGoroutines tracks the peak goroutine count (one goroutine per hop
// is pinned for the whole downstream subtree today) until stopped.
func (w *window) sampleGoroutines() (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > w.goroutinesPeak {
					w.goroutinesPeak = n
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// all returns every client's samples that started inside [from, to).
func (w *window) all(from, to int64) []sample {
	var out []sample
	for _, c := range w.clients {
		for _, s := range c.samples {
			if s.start >= from && s.start < to {
				out = append(out, s)
			}
		}
	}
	return out
}

// endToEndMetrics derives the workload-independent end-to-end numbers.
// Latency comes from the solo phase, throughput from the full phase (the
// whole window when there is no full phase).
func (w *window) endToEndMetrics(rep *report) {
	soloS := w.all(w.start, w.soloEnd)
	obs := make([]timed, len(soloS))
	soloLat := make([]int64, len(soloS))
	for i, s := range soloS {
		obs[i] = timed{at: s.end, v: s.end - s.start}
		soloLat[i] = s.end - s.start
	}
	slices.Sort(soloLat)
	// A run always prints every metric. When the machine is so slow that
	// the solo phase cannot support a sliced percentile under the
	// minBeyond rule, the plain percentile of the whole phase is reported
	// instead and the run says so: a number to read with the note beside it.
	p50, _ := percentile(soloLat, 0.5)
	p99, _ := percentile(soloLat, 0.99)
	if mids := sliceMedians(obs, w.start, w.soloEnd, levelSlices); mids != nil {
		rep.set("op_p50_us", secondBest(mids, false)/1e3)
		rep.note("op_p50_us: %d samples, second lowest of %d slice medians", len(obs), len(mids))
	} else {
		rep.set("op_p50_us", float64(p50)/1e3)
		rep.note("degraded: op_p50_us is the plain median of %d solo-phase samples, fewer than %d beyond it", len(obs), minBeyond)
	}
	if ratio, tail, k, ok := tailRatio(obs, w.start, w.soloEnd, 0.99, tailSlices); ok {
		rep.set("op_p99_over_p50", ratio)
		rep.set("op_p99_us", tail/1e3)
		rep.note("op_p99_over_p50, op_p99_us: %d samples, median of %d time slices", len(obs), k)
	} else {
		rep.set("op_p99_over_p50", float64(p99)/float64(p50))
		rep.set("op_p99_us", float64(p99)/1e3)
		rep.note("degraded: op_p99_over_p50 and op_p99_us are plain percentiles of %d solo-phase samples, fewer than %d beyond the 99th", len(obs), minBeyond)
	}

	from, to := w.soloEnd, w.end
	if to == from {
		from = w.start
	}
	var ends []int64
	for _, s := range w.all(from, to) {
		if s.ok {
			ends = append(ends, s.end)
		}
	}
	rep.set("ops_per_s", secondBest(sliceRates(ends, from, to, levelSlices), true))

	whole := w.all(w.start, w.end)
	lat := make([]int64, len(whole))
	var hops, okN float64
	var maxHops int32
	for i, s := range whole {
		lat[i] = s.end - s.start
		maxHops = max(maxHops, s.hops)
		if s.ok {
			hops += float64(s.hops)
			okN++
		}
	}
	var retries int
	for _, c := range w.clients {
		retries += c.retries
	}
	n := float64(len(whole))
	rep.attempted += len(whole)
	rep.failed += len(whole) - int(okN)
	rep.ops = n
	rep.set("cpu_us_per_op", (w.cpu1-w.cpu0)/n)
	rep.set("allocs_per_op", float64(w.mem1.Mallocs-w.mem0.Mallocs)/n)
	rep.set("alloc_bytes_per_op", float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/n)
	rep.set("hops_per_op", hops/okN)
	rep.set("live_heap_mb", w.heapMB)

	rep.set("p2p.client.retry_ratio", float64(retries)/n)
	rep.set("proc.gc_cycles", float64(w.mem1.NumGC-w.mem0.NumGC))
	rep.set("proc.gc_pause_total_ms", float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6)
	rep.set("proc.goroutines_peak", float64(w.goroutinesPeak))

	rep.set("p2p.routing.hops_max", float64(maxHops))
	slices.Sort(lat)
	if v, ok := percentile(lat, 0.999); ok {
		rep.set("p2p.client.op_p999_us", float64(v)/1e3)
	} else {
		rep.note("p2p.client.op_p999_us: not reported, %d pooled samples leave fewer than %d beyond it", len(lat), minBeyond)
	}

	// Tracing overhead: the same client, alternating traced and untraced
	// slices of the solo phase (an untraced run has no traced samples).
	var on, off []int64
	for _, s := range soloS {
		if s.traced {
			on = append(on, s.end-s.start)
		} else {
			off = append(off, s.end-s.start)
		}
	}
	pOn, okOn := percentile(sortedCopy(on), 0.5)
	pOff, okOff := percentile(sortedCopy(off), 0.5)
	if okOn && okOff {
		rep.set("trace.overhead_ratio", float64(pOn)/float64(pOff))
	}
}

// hopFit sets the per-hop wire cost from the solo phase: the slope of
// latency on hops, and the allocations one more hop costs given what a
// zero-hop RPC costs.
func (w *window) hopFit(rep *report) {
	soloS := w.all(w.start, w.soloEnd)
	hops := make([]int, 0, len(soloS))
	lat := make([]int64, 0, len(soloS))
	for _, s := range soloS {
		if s.ok {
			hops = append(hops, int(s.hops))
			lat = append(lat, s.end-s.start)
		}
	}
	if slope, ok := hopSlope(hops, lat); ok {
		rep.set("p2p.wire.hop_us", slope/1e3)
	}
	if h := rep.get("hops_per_op"); h > 0 && rep.get("p2p.wire.rpc0_allocs") > 0 {
		rep.set("p2p.wire.hop_allocs", (rep.get("allocs_per_op")-rep.get("p2p.wire.rpc0_allocs"))/h)
	}
}
