// Package condisc is a Go implementation of the continuous-discrete
// approach to peer-to-peer networks (Naor & Wieder, "Novel Architectures
// for P2P Applications: the Continuous-Discrete Approach", SPAA 2003).
//
// The package root offers a high-level simulated Distance Halving DHT —
// join/leave, logarithmic lookups, and the paper's hot-spot caching
// protocol — while the full machinery lives in the internal packages:
//
//	internal/interval    exact fixed-point arithmetic on [0,1)
//	internal/continuous  the continuous DH graph and its path trees
//	internal/partition   dynamic decompositions + §4 ID selection
//	internal/dhgraph     the discrete DH graph (Theorems 2.1, 2.2)
//	internal/route       Fast and Distance Halving lookups (§2.2)
//	internal/cache       the §3 dynamic caching protocol
//	internal/overlap     the §6 fault-tolerant overlapping DHT
//	internal/expander    the §5 Gabber–Galil dynamic expander
//	internal/emulate     the §7 general graph emulation
//	internal/baselines   Chord, Tapestry-style, CAN, small worlds, butterfly
//	internal/store       ordered item stores (in-memory + disk-backed WAL)
//	internal/handoff     streaming two-phase churn transfer sessions
//	internal/churntest   seeded churn traces, pinned state digests, readers under churn
//	internal/p2p         a real TCP implementation of the DH node
//	internal/experiments drivers reproducing every table/figure/theorem
//
// A real-network node is available under cmd/dhnode with the client
// cmd/dhctl, and cmd/condisc-bench regenerates every paper experiment.
package condisc

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"condisc/internal/cache"
	"condisc/internal/dhgraph"
	"condisc/internal/doctor"
	"condisc/internal/hashing"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/partition"
	"condisc/internal/route"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

// Point is a point of the unit interval I = [0,1) in 64-bit fixed point.
type Point = interval.Point

// ServerID is a stable identifier for a server, assigned at join time and
// never reused. Unlike a server's index (its position in the sorted
// decomposition, which shifts whenever any other server joins or leaves),
// a ServerID keeps naming the same server across arbitrary churn, so it is
// the only safe way to remove a specific server.
type ServerID = partition.Handle

// StorageEngine selects the item-store backend of a DHT.
type StorageEngine int

const (
	// StorageMem keeps each server's items in an in-memory ordered store
	// (the default).
	StorageMem StorageEngine = iota
	// StorageLog keeps each server's items in a disk-backed WAL store
	// under Options.DataDir, scaling the item population past RAM.
	StorageLog
)

// Options configures a simulated DHT.
type Options struct {
	// Delta is the alphabet size ∆ of the underlying De Bruijn-style graph
	// (degree/path tradeoff of §2.3). Default 2.
	Delta uint64
	// Seed makes the instance deterministic. Default 1.
	Seed uint64
	// CacheThreshold is the hot-spot protocol's threshold c; 0 selects
	// Θ(log n) at construction. Negative disables caching.
	CacheThreshold int
	// Storage selects the per-server item-store engine. Both engines keep
	// items ordered by hash point, so Join/Leave item migration is a pure
	// range move (internal/store).
	Storage StorageEngine
	// DataDir is the root directory for StorageLog stores; required when
	// Storage == StorageLog.
	DataDir string
	// Telemetry receives the instance's runtime metrics; nil selects the
	// process-wide telemetry.Default. Metrics are pure observers — no code
	// path reads one back into a decision — so two instances differing only
	// in Telemetry (or with recording disabled) behave identically.
	Telemetry *telemetry.Registry
	// Journal, when non-nil, receives one flight-recorder record per
	// churn admit/apply/retire and epoch publish (internal/journal).
	// Like Telemetry it is a pure observer: attaching one changes no
	// externally visible state (the churntest digest arm enforces it).
	Journal *journal.Journal
}

// dhtMetrics holds the DHT's pre-resolved telemetry handles: resolved
// once in New so every hot-path record is a plain sharded-atomic write.
type dhtMetrics struct {
	reads       *telemetry.Counter   // Get calls
	puts        *telemetry.Counter   // Put calls
	readRetries *telemetry.Counter   // epoch flips absorbed by Get/Put retry loops
	fenceWaits  *telemetry.Counter   // writes that waited on the moving-range fence
	waves       *telemetry.Counter   // published churn events (one epoch each)
	waveNanos   *telemetry.Histogram // wall time per churn event, fence to fence-lift
	epoch       *telemetry.Gauge     // published epoch, stamped at publish time
}

func newDHTMetrics(reg *telemetry.Registry) dhtMetrics {
	m := dhtMetrics{
		reads:       reg.Counter("condisc_reads_total"),
		puts:        reg.Counter("condisc_puts_total"),
		readRetries: reg.Counter("condisc_read_retries_total"),
		fenceWaits:  reg.Counter("condisc_fence_waits_total"),
		waves:       reg.Counter("condisc_waves_total"),
		waveNanos:   reg.Histogram("condisc_wave_duration_nanos"),
		epoch:       reg.Gauge("condisc_epoch"),
	}
	// Snapshot age is derived at scrape time from the epoch gauge's stamp
	// (how long ago the last churn event published — 0 forever on a
	// churn-free instance). Re-registering after a second New replaces the
	// closure, which is the right answer for the shared Default registry:
	// the newest instance is the one being observed.
	reg.RegisterCollector("condisc_snapshot_age_seconds", func() float64 {
		return m.epoch.Age().Seconds()
	})
	return m
}

// DHT is a simulated Distance Halving network: n servers holding segments
// of I, routing lookups over the discrete DH graph, storing items at the
// server covering their hash point. All per-server state — routing edges,
// load counters, cache supply counts, and the item stores — is keyed by
// the stable ServerID, so a churn event rewrites exactly the state of the
// servers adjacent to the changed segment and nothing else.
type DHT struct {
	opts     Options
	rng      *rand.Rand
	ring     *partition.Ring
	net      *route.Network
	hash     *hashing.Func
	cache    *cache.System
	stores   storeTable // the stores themselves are internally synchronized
	newStore func() store.Store
	storeSeq int
	met      dhtMetrics
	jrn      *journal.Journal // nil when no flight recorder is attached

	// churnMu serializes churn (Join/Leave and the batch forms; see
	// condisc_churn.go). The read path (Get/Put/Lookup/Owner) never takes
	// it: reads resolve ownership against the ring's epoch snapshots and
	// retry if an epoch flips mid-call.
	churnMu sync.Mutex

	// readSeed/readCtr derive a private PCG stream per read-path call
	// (stream = the call's ticket), so concurrent reads never share a
	// *rand.Rand with each other or with the churn path's d.rng.
	readSeed uint64
	readCtr  atomic.Uint64

	// moving, while a churn event is in flight, holds its owner-changing
	// range. Put fences on it: a write into a mid-handoff range waits for
	// the event's publish, closing the window where a fresh key could land
	// on the source store behind the copy cursor and vanish. nil when no
	// churn event is running.
	moving atomic.Pointer[interval.Segment]
}

// New builds a DHT of n servers (n >= 2) with Multiple Choice IDs.
func New(n int, opts Options) *DHT {
	if n < 2 {
		panic("condisc: need at least 2 servers")
	}
	if opts.Delta == 0 {
		opts.Delta = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	d := &DHT{
		opts:     opts,
		rng:      rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x632be59bd9b4e019)),
		readSeed: opts.Seed ^ 0x9e3779b97f4a7c15,
	}
	d.hash = hashing.NewKWise(16, d.rng)
	d.ring = partition.Grow(partition.New(), n, partition.MultipleChooser(2), d.rng)
	d.net = route.NewNetwork(dhgraph.Build(d.ring, d.opts.Delta))
	if opts.Telemetry == nil {
		opts.Telemetry = telemetry.Default
	}
	d.opts.Telemetry = opts.Telemetry
	d.met = newDHTMetrics(opts.Telemetry)
	d.net.SetTelemetry(opts.Telemetry)
	d.jrn = opts.Journal
	d.ring.SetJournal(d.jrn)
	if d.opts.Delta == 2 && d.opts.CacheThreshold >= 0 {
		d.cache = cache.NewSystem(d.net, d.hash, d.autoThreshold())
	}
	switch opts.Storage {
	case StorageMem:
		d.newStore = func() store.Store { return store.NewMem() }
	case StorageLog:
		if opts.DataDir == "" {
			panic("condisc: StorageLog requires Options.DataDir")
		}
		// The simulated DHT does not adopt prior on-disk state: the ring
		// decomposition is rebuilt from the seed, so items replayed from a
		// previous run would sit in stores whose segments no longer cover
		// them. Refuse a non-empty DataDir instead of corrupting silently.
		if entries, err := os.ReadDir(opts.DataDir); err == nil && len(entries) > 0 {
			panic(fmt.Sprintf("condisc: DataDir %s is not empty; the simulated DHT does not adopt prior state", opts.DataDir))
		}
		d.newStore = func() store.Store {
			d.storeSeq++
			s, err := store.OpenLog(filepath.Join(opts.DataDir, fmt.Sprintf("s-%06d", d.storeSeq)), store.LogOptions{})
			if err != nil {
				panic(fmt.Sprintf("condisc: open log store: %v", err))
			}
			return s
		}
	default:
		panic(fmt.Sprintf("condisc: unknown storage engine %d", opts.Storage))
	}
	for i := 0; i < n; i++ {
		d.stores.set(d.ring.HandleAt(i), d.newStore())
	}
	return d
}

// Close releases the per-server stores (the disk-backed engine holds open
// WAL files). The DHT must not be used afterwards.
func (d *DHT) Close() error {
	var first error
	d.stores.each(func(_ ServerID, s store.Store) {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// storePageBits sizes the store table's pages: 1<<10 slots, 8 KiB each.
const storePageBits = 10

type storePage [1 << storePageBits]atomic.Pointer[storeRef]

// storeRef boxes a store so that a table slot can swap it atomically.
type storeRef struct{ s store.Store }

// storeTable maps a server's handle to its item store. Get and Put read it
// without a lock — a reader-writer lock here would park readers behind
// every join and leave — and churn, under churnMu, is its only writer.
// Page i holds handles [i<<storePageBits, (i+1)<<storePageBits); growing
// copies the page pointers, never the pages.
type storeTable struct {
	pages atomic.Pointer[[]*storePage]
}

// slot returns h's slot, or nil if h lies past the last page.
func (t *storeTable) slot(h ServerID) *atomic.Pointer[storeRef] {
	if p := t.pages.Load(); p != nil && uint64(h)>>storePageBits < uint64(len(*p)) {
		return &(*p)[h>>storePageBits][h&(1<<storePageBits-1)]
	}
	return nil
}

// get returns the store of the server with handle h.
func (t *storeTable) get(h ServerID) (store.Store, bool) {
	if sl := t.slot(h); sl != nil {
		if r := sl.Load(); r != nil {
			return r.s, true
		}
	}
	return nil, false
}

// set installs s as h's store, adding pages up to h's first. Owner-side.
func (t *storeTable) set(h ServerID, s store.Store) {
	if t.slot(h) == nil {
		var dir []*storePage
		if p := t.pages.Load(); p != nil {
			dir = *p
		}
		dir = append([]*storePage(nil), dir...)
		for uint64(len(dir)) <= uint64(h)>>storePageBits {
			dir = append(dir, new(storePage))
		}
		t.pages.Store(&dir)
	}
	t.slot(h).Store(&storeRef{s})
}

// drop removes h's store from the table. Owner-side.
func (t *storeTable) drop(h ServerID) {
	if sl := t.slot(h); sl != nil {
		sl.Store(nil)
	}
}

// each calls fn for every installed store in handle order.
func (t *storeTable) each(fn func(h ServerID, s store.Store)) {
	p := t.pages.Load()
	if p == nil {
		return
	}
	for i, pg := range *p {
		for j := range pg {
			if r := pg[j].Load(); r != nil {
				fn(ServerID(i<<storePageBits|j), r.s)
			}
		}
	}
}

// readSource returns a fresh deterministic PRNG source for one read-path
// call: every call gets its own PCG stream (the ticket from readCtr),
// split from the instance seed. Concurrent reads therefore share no RNG
// state, and a serial sequence of reads draws a reproducible digit
// sequence regardless of churn interleaving — reads no longer consume the
// churn path's d.rng. Callers wrap it in rand.New themselves, so the Rand
// stays on their stack whether or not this function is inlined.
func (d *DHT) readSource() *rand.PCG {
	return rand.NewPCG(d.readSeed, d.readCtr.Add(1))
}

// --- the moving-range fence ---

// setMoving installs the churn event's owner-changing range; writers into
// it wait out the event.
func (d *DHT) setMoving(seg interval.Segment) { d.moving.Store(&seg) }

// clearMoving lifts the fence after the event's cleanup.
func (d *DHT) clearMoving() { d.moving.Store(nil) }

// pointMoving reports whether p lies in the range whose owner the churn
// event in flight is changing.
func (d *DHT) pointMoving(p Point) bool {
	seg := d.moving.Load()
	return seg != nil && seg.Contains(p)
}

// waitNotMoving spins (yielding) until p's range has no handoff in
// flight. A churn event is bounded (copy + publish + cleanup), so the wait
// is too; the iteration bound turns a stuck event into a loud failure
// instead of a silent hang.
func (d *DHT) waitNotMoving(p Point) {
	for i := 0; d.pointMoving(p); i++ {
		if i == 0 {
			d.met.fenceWaits.Inc() // one wait episode, however many spins
		}
		if i > 1<<26 {
			panic("condisc: put stalled on an unfinished churn event")
		}
		runtime.Gosched()
	}
}

// autoThreshold resolves the caching threshold c for the current size.
func (d *DHT) autoThreshold() int {
	if c := d.opts.CacheThreshold; c != 0 {
		return c
	}
	return int(math.Log2(float64(d.ring.N()))) + 1
}

// N returns the number of servers.
func (d *DHT) N() int { return d.ring.N() }

// Smoothness returns ρ of the current decomposition (Definition 1).
func (d *DHT) Smoothness() float64 { return d.ring.Smoothness() }

// MaxDegree returns the maximum routing-table size.
func (d *DHT) MaxDegree() int { return d.net.G.MaxDegree() }

// Doctor recomputes the paper's cluster-wide bounds — smoothness,
// degree, lookup dilation, routed-load skew — from the live
// decomposition, graph index, and load counters, and returns one
// verdict per invariant (internal/doctor). It serializes against churn,
// so the verdicts describe one quiescent instant; a breach shows up on
// the first Doctor call after the churn event that caused it.
func (d *DHT) Doctor() doctor.Report {
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	segs := d.ring.Segments()
	cs := doctor.ClusterStats{
		N:      d.ring.N(),
		Delta:  d.opts.Delta,
		MaxDeg: d.net.G.MaxDegree(),
		HopP99: d.opts.Telemetry.Histogram("condisc_route_lookup_hops").Quantile(0.99),
	}
	cs.SegLens = make([]uint64, len(segs))
	for i, s := range segs {
		cs.SegLens[i] = s.Len
	}
	cs.Loads = make([]float64, 0, cs.N)
	for i := 0; i < cs.N; i++ {
		cs.Loads = append(cs.Loads, float64(d.net.LoadOf(d.ring.HandleAt(i))))
	}
	return doctor.Diagnose(cs)
}

// KeyPoint returns the hash point of a key.
func (d *DHT) KeyPoint(key string) Point { return d.hash.Point(key) }

// Owner returns the server index responsible for a key, resolved against
// the latest published epoch snapshot (wait-free under churn).
func (d *DHT) Owner(key string) int {
	return d.ring.Snapshot().Cover(d.hash.Point(key))
}

// Lookup routes from server src to the owner of key using the randomized
// Distance Halving Lookup and returns the path of servers visited. The
// route resolves covers against one epoch snapshot and draws digits from
// a private per-call stream, so concurrent lookups (and lookups under
// churn) never block or race.
func (d *DHT) Lookup(src int, key string) []int {
	return d.net.DHLookup(src, d.hash.Point(key), rand.New(d.readSource()))
}

// readRetryLimit bounds the stale-owner retries of Get and Put. A retry
// is only taken when the published epoch actually advanced, so the limit
// is consumed only if distinct churn events keep landing mid-call.
const readRetryLimit = 8

// Put stores a value from server src, returning the routing path length.
//
// Put is wait-free against churn except in one range: a write whose point
// lies in a segment whose ownership is mid-handoff waits for the churn
// event to publish (the moving-range fence) — otherwise a fresh key could
// land on the source store behind the copy cursor and be lost by the
// post-publish DeleteRange. After writing, Put re-resolves the owner; if
// the epoch flipped and moved the point's segment mid-write, the write is
// undone and retried against the new owner (bounded by readRetryLimit).
func (d *DHT) Put(src int, key string, value []byte) int {
	d.met.puts.Inc()
	p := d.hash.Point(key)
	path := d.Lookup(src, key)
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			d.met.readRetries.Inc()
		}
		d.waitNotMoving(p)
		snap := d.ring.Snapshot()
		owner := snap.CoverHandle(p)
		st, ok := d.stores.get(owner)
		if ok {
			if err := st.Put(p, key, value); err != nil {
				if d.ring.Snapshot().Epoch() == snap.Epoch() {
					// Errors are only expected from a store being retired
					// by a leave, which always advances the epoch first.
					panic(fmt.Sprintf("condisc: store put: %v", err))
				}
				// Store retired mid-call: re-resolve and retry.
			} else if fresh := d.ring.Snapshot(); fresh.CoverHandle(p) != owner {
				// The owner changed under the write (the snapshot was
				// stale, or a churn event published mid-put): reclaim the
				// orphan before retrying at the real owner, so the old
				// store never retains an item outside its segment. An
				// error here is benign — a destroyed store takes the
				// orphan with it.
				_ = st.Delete(p, key)
			} else if !d.pointMoving(p) {
				// Settled: the write landed on the store the current epoch
				// names as p's owner, with no handoff of p in flight.
				return len(path) - 1
			}
			// Owner unchanged but p's range is mid-handoff: the copy
			// cursor may have passed p before the write landed. Leave the
			// write in place (the post-publish cleanup wipes that range at
			// the source), wait the event out, and re-put on the settled
			// owner.
		}
		if attempt >= readRetryLimit {
			panic(fmt.Sprintf("condisc: put of %q could not settle after %d owner changes", key, attempt))
		}
	}
}

// Get retrieves a value from server src. With caching enabled, hot items
// are served by cache-tree copies without reaching the owner (§3).
//
// Get is wait-free: it resolves the owner against the latest epoch
// snapshot and reads that server's store directly. If the read misses (or
// the store errors / is gone) while the published epoch has advanced
// mid-call, the owner may have changed — Get re-resolves and retries,
// bounded by readRetryLimit. A miss with a stable epoch is a genuine
// miss.
func (d *DHT) Get(src int, key string) (value []byte, hops int, ok bool) {
	d.met.reads.Inc()
	p := d.hash.Point(key)
	snap := d.ring.Snapshot()
	var v []byte
	for attempt := 0; ; attempt++ {
		owner := snap.CoverHandle(p)
		st, live := d.stores.get(owner)
		var found bool
		var err error
		if live {
			v, found, err = st.Get(p, key)
		}
		if live && err == nil && found {
			break
		}
		// Miss, vanished store, or store error: all are expected exactly
		// when a churn event republished mid-call. Re-resolve and retry.
		fresh := d.ring.Snapshot()
		if fresh.Epoch() != snap.Epoch() && attempt < readRetryLimit {
			d.met.readRetries.Inc()
			snap = fresh
			continue
		}
		if err != nil {
			panic(fmt.Sprintf("condisc: store get: %v", err))
		}
		if !live {
			panic(fmt.Sprintf("condisc: epoch %d names server %d, which has no store", snap.Epoch(), owner))
		}
		return nil, 0, false
	}
	if d.cache != nil {
		path, _ := d.cache.Request(src, key, rand.New(d.readSource()))
		return v, len(path) - 1, true
	}
	path := d.Lookup(src, key)
	return v, len(path) - 1, true
}

// EndEpoch advances the caching protocol's epoch (step 2–3 of §3.1).
func (d *DHT) EndEpoch() {
	if d.cache != nil {
		d.cache.EndEpoch()
	}
}

// Servers returns the stable identifiers of all current servers in index
// order.
func (d *DHT) Servers() []ServerID {
	out := make([]ServerID, d.ring.N())
	for i := range out {
		out[i] = d.ring.HandleAt(i)
	}
	return out
}

// IDAt returns the stable identifier of the server currently at index i.
func (d *DHT) IDAt(i int) ServerID { return d.ring.HandleAt(i) }

// IndexOf returns the current index of the server named by id.
func (d *DHT) IndexOf(id ServerID) (int, bool) { return d.ring.IndexOfHandle(id) }

// MaxLoad returns the highest per-server message count since the last
// ResetLoad — the congestion the §2.2 theorems bound.
func (d *DHT) MaxLoad() int64 { return d.net.MaxLoad() }

// LoadOf returns the message count of the server named by id.
func (d *DHT) LoadOf(id ServerID) int64 { return d.net.LoadOf(id) }

// SuppliedOf returns how many requests the server named by id has served
// from its cache (0 when caching is disabled).
func (d *DHT) SuppliedOf(id ServerID) int64 {
	if d.cache == nil {
		return 0
	}
	return d.cache.SuppliedOf(id)
}

// ResetLoad zeroes the congestion counters.
func (d *DHT) ResetLoad() { d.net.ResetLoad() }

// Items returns how many items server i currently stores.
func (d *DHT) Items(i int) int {
	st, ok := d.stores.get(d.ring.HandleAt(i))
	if !ok {
		return 0
	}
	return st.Len()
}
