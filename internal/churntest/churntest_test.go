package churntest

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"condisc"
	"condisc/internal/journal"
	"condisc/internal/telemetry"
)

// mustRun applies the trace and fails the test on any runner error.
func mustRun(t *testing.T, tr Trace, cfg Config) []byte {
	t.Helper()
	dump, err := Run(tr, cfg)
	if err != nil {
		t.Fatalf("run (width=%d sched=%d): %v", cfg.Width, cfg.SchedSeed, err)
	}
	return dump
}

// diffFatal fails with the first diverging line of two dumps.
func diffFatal(t *testing.T, what string, serial, conc []byte) {
	t.Helper()
	if !bytes.Equal(serial, conc) {
		t.Fatalf("%s: concurrent state diverged from serial\n%s", what, FirstDiff(serial, conc))
	}
}

// TestDifferential1kEventsWidth16 is the acceptance centerpiece: a
// 1000-event churn trace (joins, leaves, puts, gets) applied through
// width-16 concurrent batches under three seeded schedule perturbations
// must leave the ring, graph, load counters, cache, and item placement
// byte-identical to the same trace applied serially. Run it with -race:
// an under-covered lease span surfaces as a data race here.
func TestDifferential1kEventsWidth16(t *testing.T) {
	tr := Generate(1, GenOptions{
		Initial: 256, Events: 1000,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	serial := mustRun(t, tr, Config{Width: 1})
	for _, schedSeed := range []uint64{1, 2, 3} {
		conc := mustRun(t, tr, Config{Width: 16, SchedSeed: schedSeed})
		diffFatal(t, "width=16", serial, conc)
	}
}

// TestDifferentialWidthSweep checks every batch width against the serial
// baseline on a shorter trace.
func TestDifferentialWidthSweep(t *testing.T) {
	tr := Generate(7, GenOptions{
		Initial: 128, Events: 300,
		JoinFrac: 0.45, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	serial := mustRun(t, tr, Config{Width: 1})
	for _, w := range []int{2, 4, 8, 32, 64} {
		conc := mustRun(t, tr, Config{Width: w, SchedSeed: uint64(w)})
		diffFatal(t, "sweep", serial, conc)
	}
}

// TestDifferentialOverlapHeavy drives clustered join points so most
// events of a batch conflict: the wave-draining path (refused leases) must
// still commit the exact serial state — deferred events observe the ring
// state their conflicting predecessors committed, not the state at batch
// entry.
func TestDifferentialOverlapHeavy(t *testing.T) {
	tr := Generate(13, GenOptions{
		Initial: 64, Events: 400,
		JoinFrac: 0.5, LeaveFrac: 0.3, PutFrac: 0.1,
		Adjacent: true,
	})
	serial := mustRun(t, tr, Config{Width: 1})
	for _, schedSeed := range []uint64{4, 5} {
		conc := mustRun(t, tr, Config{Width: 16, SchedSeed: schedSeed})
		diffFatal(t, "overlap-heavy", serial, conc)
	}
}

// TestDifferentialDelta exercises the ∆ > 2 graphs (no caching layer)
// through the same oracle — ∆ = 4 for the power-of-two exact image maps,
// ∆ = 3 for the one-ulp-rounded maps the lease spans must over-cover.
func TestDifferentialDelta(t *testing.T) {
	for _, delta := range []uint64{3, 4} {
		testDifferentialDelta(t, delta)
	}
}

func testDifferentialDelta(t *testing.T, delta uint64) {
	tr := Generate(21, GenOptions{
		Initial: 96, Events: 250,
		JoinFrac: 0.45, LeaveFrac: 0.35, PutFrac: 0.1,
	})
	run := func(cfg Config) []byte {
		d := condisc.New(tr.Initial, condisc.Options{Seed: tr.Seed, Delta: delta})
		defer d.Close()
		if cfg.SchedSeed != 0 {
			d.SetChurnSchedHook(schedPerturb(cfg.SchedSeed))
		}
		var pts []condisc.Point
		var ids []condisc.ServerID
		flush := func() {
			if len(pts) > 0 {
				for _, id := range d.JoinAtBatch(pts) {
					if id == 0 {
						t.Fatal("join point already present")
					}
				}
				pts = pts[:0]
			}
			if len(ids) > 0 {
				if err := d.LeaveBatch(ids); err != nil {
					t.Fatal(err)
				}
				ids = ids[:0]
			}
		}
		for _, ev := range tr.Events {
			switch ev.Kind {
			case EvJoin:
				if len(ids) > 0 || len(pts) >= cfg.Width {
					flush()
				}
				pts = append(pts, ev.Point)
			case EvLeave:
				if len(pts) > 0 || len(ids) >= cfg.Width {
					flush()
				}
				ids = append(ids, ev.ID)
			default: // puts/gets route identically; skip for the ∆=4 arm
			}
		}
		flush()
		var b bytes.Buffer
		if err := d.WriteState(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := run(Config{Width: 1})
	conc := run(Config{Width: 16, SchedSeed: 6})
	diffFatal(t, fmt.Sprintf("delta=%d", delta), serial, conc)
}

// TestDifferentialLogStore runs the oracle over the disk-backed WAL
// engine: concurrent batches must place every item in exactly the WAL
// directories the serial run uses (store numbering is part of the serial
// admission order).
func TestDifferentialLogStore(t *testing.T) {
	tr := Generate(33, GenOptions{
		Initial: 32, Events: 80,
		JoinFrac: 0.4, LeaveFrac: 0.3, PutFrac: 0.2,
	})
	serial := mustRun(t, tr, Config{Width: 1, Storage: condisc.StorageLog, DataDir: t.TempDir()})
	conc := mustRun(t, tr, Config{Width: 16, SchedSeed: 9, Storage: condisc.StorageLog, DataDir: t.TempDir()})
	diffFatal(t, "logstore", serial, conc)
}

// TestInterleavedReadsUnderChurnWaves is the read-path acceptance test:
// Get/Put/Lookup run INSIDE width-2..64 churn waves from four concurrent
// reader goroutines. Every Get must return exactly the pre-loaded value
// (a reader resolves against the pre- or the post-wave epoch — never a
// torn state, never a window with no owner holding the item), and the
// final ring/graph/item state must be byte-identical to a width-1 run
// with no readers. Run it with -race: an unfenced write or a torn
// snapshot surfaces here.
func TestInterleavedReadsUnderChurnWaves(t *testing.T) {
	tr := Generate(51, GenOptions{
		Initial: 128, Events: 400,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.20,
	})
	serial, err := RunInterleaved(tr, Config{Width: 1}, 0)
	if err != nil {
		t.Fatalf("serial interleaved baseline: %v", err)
	}
	for _, w := range []int{2, 8, 64} {
		conc, err := RunInterleaved(tr, Config{Width: w, SchedSeed: uint64(w)}, 4)
		if err != nil {
			t.Fatalf("width=%d interleaved: %v", w, err)
		}
		diffFatal(t, fmt.Sprintf("interleaved width=%d", w), serial, conc)
	}
}

// TestTelemetryDigestInvariance pins the observability contract: telemetry
// is write-only observation, so running the full width-16 concurrent trace
// with instrumentation recording must leave a WriteState dump byte-identical
// to the same trace with the global telemetry kill switch off. Any metric
// that leaked back into a decision — a counter steering routing, a clock
// read perturbing RNG consumption, an allocation changing a map's iteration
// — would shift the dump and fail here. Run it with -race: the recording
// paths execute inside the same churn waves the differential oracle covers.
func TestTelemetryDigestInvariance(t *testing.T) {
	tr := Generate(1, GenOptions{
		Initial: 256, Events: 1000,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	prev := telemetry.Enabled()
	defer telemetry.SetEnabled(prev)

	telemetry.SetEnabled(false)
	off := mustRun(t, tr, Config{Width: 16, SchedSeed: 2})
	telemetry.SetEnabled(true)
	on := mustRun(t, tr, Config{Width: 16, SchedSeed: 2})
	diffFatal(t, "telemetry on vs off (width=16)", off, on)
}

// TestJournalDigestInvariance is the flight recorder's counterpart of the
// telemetry arm: the journal is write-only observation, so attaching one
// to the full width-16 concurrent trace must leave the final WriteState
// dump byte-identical to the same trace with no journal at all. A journal
// record that leaked back into a decision — or an emit that perturbed RNG
// consumption or scheduling-visible state — would shift the dump here.
// The run must also actually have recorded the churn: an accidentally
// dead emit path would pass the diff trivially.
func TestJournalDigestInvariance(t *testing.T) {
	tr := Generate(1, GenOptions{
		Initial: 256, Events: 1000,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	off := mustRun(t, tr, Config{Width: 16, SchedSeed: 2})
	jrn := journal.New(1 << 16)
	on := mustRun(t, tr, Config{Width: 16, SchedSeed: 2, Journal: jrn})
	diffFatal(t, "journal on vs off (width=16)", off, on)

	var churn int
	for _, r := range jrn.Records() {
		switch r.Kind {
		case journal.KindChurnAdmit, journal.KindChurnApply, journal.KindChurnRetire:
			churn++
		}
	}
	if churn == 0 {
		t.Fatal("journal recorded no churn events over a 1000-event trace")
	}
}

// TestStateDigestPinned pins the canonical dump of the 1000-event trace,
// serial and at width 16, to a recorded digest. The differential tests
// only compare runs of the same build with each other; this one catches a
// refactor of the ring queries, the lookup walk or the churn path that
// moves a ring point, a graph edge, a load counter, a cache entry or an
// item in every run alike.
func TestStateDigestPinned(t *testing.T) {
	const want uint64 = 0xd588ae2a8584bfc3
	tr := Generate(1, GenOptions{
		Initial: 256, Events: 1000,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	for _, cfg := range []Config{{Width: 1}, {Width: 16, SchedSeed: 2}} {
		h := fnv.New64a()
		h.Write(mustRun(t, tr, cfg))
		if got := h.Sum64(); got != want {
			t.Errorf("width=%d: state digest %#x, want %#x", cfg.Width, got, want)
		}
	}
}

// TestCountersSurviveConcurrentChurn is the no-lost-updates property:
// accumulate load and cache-supply counters with traffic, run a
// concurrent churn storm, and require every surviving server's counters
// untouched and every departed server's counters dropped.
func TestCountersSurviveConcurrentChurn(t *testing.T) {
	d := condisc.New(128, condisc.Options{Seed: 77})
	defer d.Close()
	for i := 0; i < 64; i++ {
		d.Put(i%d.N(), key(i), []byte("v"))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 128; i++ {
			d.Get(i%d.N(), key(i%64))
		}
	}
	before := map[condisc.ServerID][2]int64{}
	for _, id := range d.Servers() {
		before[id] = [2]int64{d.LoadOf(id), d.SuppliedOf(id)}
	}

	joined := d.JoinBatch(16)
	victims := make([]condisc.ServerID, 0, 16)
	for i, id := range d.Servers() {
		if i%9 == 0 && len(victims) < 16 && before[id] != [2]int64{} {
			victims = append(victims, id)
		}
	}
	if err := d.LeaveBatch(victims); err != nil {
		t.Fatal(err)
	}

	gone := map[condisc.ServerID]bool{}
	for _, id := range victims {
		gone[id] = true
	}
	for id, counts := range before {
		if gone[id] {
			if d.LoadOf(id) != 0 || d.SuppliedOf(id) != 0 {
				t.Errorf("departed server %d retains counters load=%d supplied=%d",
					id, d.LoadOf(id), d.SuppliedOf(id))
			}
			continue
		}
		if got := [2]int64{d.LoadOf(id), d.SuppliedOf(id)}; got != counts {
			t.Errorf("server %d counters changed across concurrent churn: %v -> %v", id, counts, got)
		}
	}
	for _, id := range joined {
		if d.LoadOf(id) != 0 || d.SuppliedOf(id) != 0 {
			t.Errorf("newcomer %d has nonzero counters", id)
		}
	}
}

func key(i int) string { return "ctr-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
