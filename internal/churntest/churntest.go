// Package churntest is the deterministic churn harness: it generates
// seeded traces of join, leave, put, and get events, replays them against
// a simulated DHT, and returns the canonical dump of the final state
// (condisc.DHT.WriteState). Tests pin digests of those dumps, so a
// refactor that moves a ring point, a graph edge, a load counter, a cache
// entry or an item fails loudly; and they compare a replay with reader
// goroutines running inside the churn against a reader-free one, so a
// torn snapshot or an unfenced write surfaces (run them with -race).
//
// Determinism contract: a Trace is a pure function of its seed and
// options, and both runners derive every random decision (the DHT seed,
// lookup digits) from seeds carried in the trace. A failure reproduces
// from two integers.
package churntest

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"condisc"
	"condisc/internal/journal"
)

// EventKind enumerates trace events.
type EventKind int

const (
	// EvJoin adds a server at an explicit point.
	EvJoin EventKind = iota
	// EvLeave removes the server with a stable id predicted at generation
	// time (handles are assigned in admission order, which both runners
	// preserve).
	EvLeave
	// EvPut stores an item from a source server.
	EvPut
	// EvGet looks an item up from a source server.
	EvGet
)

// Event is one trace step.
type Event struct {
	Kind  EventKind
	Point condisc.Point    // EvJoin
	ID    condisc.ServerID // EvLeave
	Src   int              // EvPut / EvGet: source server index at event time
	Key   string           // EvPut / EvGet
	Val   []byte           // EvPut
}

// Trace is a reproducible churn workload.
type Trace struct {
	Seed    uint64 // the DHT construction seed
	Initial int    // servers before the first event
	Events  []Event
}

// GenOptions shapes a generated trace. Fractions select event kinds; the
// remainder after joins, leaves, and puts are gets. Leaves never shrink
// the network below 8 servers.
type GenOptions struct {
	Initial   int
	Events    int
	JoinFrac  float64
	LeaveFrac float64
	PutFrac   float64
}

// Generate builds the trace for a seed. Handle prediction: the initial
// ring holds handles 1..Initial; every successful join takes the next
// handle in trace order. Join points are distinct uniform draws, so every
// join succeeds and the prediction is exact.
func Generate(seed uint64, opt GenOptions) Trace {
	rng := rand.New(rand.NewPCG(seed, seed^0x51a3c0de))
	tr := Trace{Seed: seed | 1, Initial: opt.Initial}
	alive := make([]condisc.ServerID, opt.Initial)
	for i := range alive {
		alive[i] = condisc.ServerID(i + 1)
	}
	next := condisc.ServerID(opt.Initial + 1)
	used := make(map[condisc.Point]struct{})
	nKeys := 0
	var keys []string
	rng.Uint64() // reserved draw: keeps every seed's trace, and the pinned digests, unchanged
	for len(tr.Events) < opt.Events {
		r := rng.Float64()
		switch {
		case r < opt.JoinFrac:
			var p condisc.Point
			for {
				p = condisc.Point(rng.Uint64())
				if _, dup := used[p]; !dup {
					break
				}
			}
			used[p] = struct{}{}
			tr.Events = append(tr.Events, Event{Kind: EvJoin, Point: p})
			alive = append(alive, next)
			next++
		case r < opt.JoinFrac+opt.LeaveFrac:
			if len(alive) <= 8 {
				continue
			}
			i := rng.IntN(len(alive))
			id := alive[i]
			alive = append(alive[:i], alive[i+1:]...)
			tr.Events = append(tr.Events, Event{Kind: EvLeave, ID: id})
		case r < opt.JoinFrac+opt.LeaveFrac+opt.PutFrac:
			key := fmt.Sprintf("it-%d", nKeys)
			nKeys++
			keys = append(keys, key)
			tr.Events = append(tr.Events, Event{
				Kind: EvPut, Src: rng.IntN(len(alive)), Key: key,
				Val: []byte(fmt.Sprintf("v-%d", nKeys)),
			})
		default:
			if len(keys) == 0 {
				continue
			}
			tr.Events = append(tr.Events, Event{
				Kind: EvGet, Src: rng.IntN(len(alive)), Key: keys[rng.IntN(len(keys))],
			})
		}
	}
	return tr
}

// Config selects the DHT a runner applies a trace to.
type Config struct {
	// Storage / DataDir select the item-store engine (default StorageMem).
	Storage condisc.StorageEngine
	DataDir string
	// Journal, when non-nil, attaches a flight recorder to the DHT. Like
	// telemetry it must be a pure observer: the digest-invariance arm
	// runs the same trace with and without one and requires byte-equal
	// dumps.
	Journal *journal.Journal
}

// Run applies the trace's events in order and returns the canonical dump
// of the final state (condisc.DHT.WriteState).
func Run(tr Trace, cfg Config) ([]byte, error) {
	d := condisc.New(tr.Initial, condisc.Options{
		Seed: tr.Seed, Storage: cfg.Storage, DataDir: cfg.DataDir,
		Journal: cfg.Journal,
	})
	defer d.Close()
	for _, ev := range tr.Events {
		if err := apply(d, ev); err != nil {
			return nil, err
		}
	}
	var b bytes.Buffer
	if err := d.WriteState(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// apply applies one trace event to d.
func apply(d *condisc.DHT, ev Event) error {
	switch ev.Kind {
	case EvJoin:
		if _, ok := d.JoinAt(ev.Point); !ok {
			return fmt.Errorf("churntest: join point %d already present", uint64(ev.Point))
		}
	case EvLeave:
		return d.Leave(ev.ID)
	case EvPut:
		d.Put(ev.Src, ev.Key, ev.Val)
	case EvGet:
		d.Get(ev.Src, ev.Key)
	}
	return nil
}

// RunInterleaved is the read-path arm of the harness: it applies the
// trace exactly as Run does, while `readers` extra goroutines hammer Get,
// Put, and Lookup on keys that were pre-loaded before the first event —
// INSIDE the churn events, not between them. Caching is disabled (readers
// would make cache state depend on the interleaving) and the load
// counters are reset before the dump (routing work is
// interleaving-dependent by design); everything else — ring, graph, item
// placement — must remain byte-identical to a run with no readers at all.
//
// Each reader also checks the epoch consistency contract on every
// operation: a Get of a pre-loaded key must return exactly its value
// (the key exists at its owner in every published epoch — a reader sees
// the pre- or the post-event owner, never a gap), a re-Put of the same
// value must settle, and a Lookup must return a non-empty path. Any
// violation fails the run. Run it with -race: a torn snapshot or an
// unfenced write surfaces here.
func RunInterleaved(tr Trace, cfg Config, readers int) ([]byte, error) {
	d := condisc.New(tr.Initial, condisc.Options{
		Seed: tr.Seed, Storage: cfg.Storage, DataDir: cfg.DataDir,
		CacheThreshold: -1, Journal: cfg.Journal,
	})
	defer d.Close()

	// Pre-load every key the trace will ever put, in trace order, so the
	// readers have a stable key universe whose values never change (the
	// trace's own EvPut events re-put identical values: idempotent).
	type kv struct {
		key string
		val []byte
	}
	var universe []kv
	for _, ev := range tr.Events {
		if ev.Kind == EvPut {
			d.Put(ev.Src, ev.Key, ev.Val)
			universe = append(universe, kv{ev.Key, ev.Val})
		}
	}
	if len(universe) == 0 && readers > 0 {
		return nil, fmt.Errorf("churntest: interleaved run needs PutFrac > 0 for a key universe")
	}

	stop := make(chan struct{})
	errCh := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(tr.Seed^0xc0ffee, uint64(r)+1))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Yield between operations: readers spinning through full
				// preemption quanta would starve the churn goroutine on
				// small GOMAXPROCS, inflating wall time by readers×quantum
				// per churn event.
				runtime.Gosched()
				it := universe[rng.IntN(len(universe))]
				src := rng.IntN(tr.Initial)
				switch i % 3 {
				case 0:
					v, _, ok := d.Get(src, it.key)
					if !ok || !bytes.Equal(v, it.val) {
						errCh <- fmt.Errorf("churntest: reader %d: Get(%q) = %q, %v — want %q, true",
							r, it.key, v, ok, it.val)
						return
					}
				case 1:
					if hops := d.Put(src, it.key, it.val); hops < 0 {
						errCh <- fmt.Errorf("churntest: reader %d: Put(%q) returned %d hops", r, it.key, hops)
						return
					}
				default:
					if path := d.Lookup(src, it.key); len(path) == 0 {
						errCh <- fmt.Errorf("churntest: reader %d: Lookup(%q) returned an empty path", r, it.key)
						return
					}
				}
			}
		}(r)
	}

	var churnErr error
	for _, ev := range tr.Events {
		if churnErr = apply(d, ev); churnErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if churnErr != nil {
		return nil, churnErr
	}
	select {
	case err := <-errCh:
		return nil, err
	default:
	}

	// Routing load is interleaving-dependent by design (the readers route);
	// everything else in the dump must match the reader-free serial run.
	d.ResetLoad()
	var b bytes.Buffer
	if err := d.WriteState(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// FirstDiff locates the first line where two dumps diverge, for failure
// reports ("-" first dump, "+" second).
func FirstDiff(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n- %s\n+ %s", i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		return fmt.Sprintf("dumps differ in length: %d vs %d lines", len(al), len(bl))
	}
	return ""
}
