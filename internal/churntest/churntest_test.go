package churntest

import (
	"bytes"
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
		t.Fatalf("run: %v", err)
	}
	return dump
}

// diffFatal fails with the first diverging line of two dumps.
func diffFatal(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Fatalf("%s: state diverged\n%s", what, FirstDiff(want, got))
	}
}

// digest is the FNV-64a hash of a dump, the form the pinned tests compare.
func digest(dump []byte) uint64 {
	h := fnv.New64a()
	h.Write(dump)
	return h.Sum64()
}

// TestDifferentialDelta pins the churn state of the ∆ > 2 graphs (no
// caching layer): ∆ = 4 for the power-of-two exact image maps, ∆ = 3 for
// the one-ulp-rounded maps whose preimage covers the graph pads. Only the
// trace's joins and leaves are applied.
func TestDifferentialDelta(t *testing.T) {
	tr := Generate(21, GenOptions{
		Initial: 96, Events: 250,
		JoinFrac: 0.45, LeaveFrac: 0.35, PutFrac: 0.1,
	})
	for _, c := range []struct {
		delta uint64
		want  uint64
	}{{3, 0x14361d85a890bdf2}, {4, 0xa6e7273ed5c505d1}} {
		d := condisc.New(tr.Initial, condisc.Options{Seed: tr.Seed, Delta: c.delta})
		for _, ev := range tr.Events {
			if ev.Kind != EvJoin && ev.Kind != EvLeave {
				continue
			}
			if err := apply(d, ev); err != nil {
				t.Fatal(err)
			}
		}
		var b bytes.Buffer
		if err := d.WriteState(&b); err != nil {
			t.Fatal(err)
		}
		d.Close()
		if got := digest(b.Bytes()); got != c.want {
			t.Errorf("delta=%d: state digest %#x, want %#x", c.delta, got, c.want)
		}
	}
}

// TestDifferentialLogStore pins the churn state over the disk-backed WAL
// engine: every item must land in the same store, under the same store
// numbering, as when the digest was recorded.
func TestDifferentialLogStore(t *testing.T) {
	const want uint64 = 0xa70c1842fe5ddd4d
	tr := Generate(33, GenOptions{
		Initial: 32, Events: 80,
		JoinFrac: 0.4, LeaveFrac: 0.3, PutFrac: 0.2,
	})
	dump := mustRun(t, tr, Config{Storage: condisc.StorageLog, DataDir: t.TempDir()})
	if got := digest(dump); got != want {
		t.Errorf("logstore: state digest %#x, want %#x", got, want)
	}
}

// TestInterleavedReadsUnderChurnWaves is the read-path acceptance test:
// Get/Put/Lookup run INSIDE the churn events from four concurrent reader
// goroutines. Every Get must return exactly the pre-loaded value (a
// reader resolves against the pre- or the post-event epoch — never a torn
// state, never a window with no owner holding the item), and the final
// ring/graph/item state must be byte-identical to a run with no readers.
// Run it with -race: an unfenced write or a torn snapshot surfaces here.
func TestInterleavedReadsUnderChurnWaves(t *testing.T) {
	tr := Generate(51, GenOptions{
		Initial: 128, Events: 400,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.20,
	})
	quiet, err := RunInterleaved(tr, Config{}, 0)
	if err != nil {
		t.Fatalf("reader-free baseline: %v", err)
	}
	busy, err := RunInterleaved(tr, Config{}, 4)
	if err != nil {
		t.Fatalf("with readers: %v", err)
	}
	diffFatal(t, "4 readers vs none", quiet, busy)
}

// TestTelemetryDigestInvariance pins the observability contract: telemetry
// is write-only observation, so running the full 1000-event trace with
// instrumentation recording must leave a WriteState dump byte-identical to
// the same trace with the global telemetry kill switch off. Any metric
// that leaked back into a decision — a counter steering routing, a clock
// read perturbing RNG consumption, an allocation changing a map's iteration
// — would shift the dump and fail here.
func TestTelemetryDigestInvariance(t *testing.T) {
	tr := Generate(1, GenOptions{
		Initial: 256, Events: 1000,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	prev := telemetry.Enabled()
	defer telemetry.SetEnabled(prev)

	telemetry.SetEnabled(false)
	off := mustRun(t, tr, Config{})
	telemetry.SetEnabled(true)
	on := mustRun(t, tr, Config{})
	diffFatal(t, "telemetry on vs off", off, on)
}

// TestJournalDigestInvariance is the flight recorder's counterpart of the
// telemetry arm: the journal is write-only observation, so attaching one
// to the full 1000-event trace must leave the final WriteState
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
	off := mustRun(t, tr, Config{})
	jrn := journal.New(1 << 16)
	on := mustRun(t, tr, Config{Journal: jrn})
	diffFatal(t, "journal on vs off", off, on)

	var churn int
	for _, r := range jrn.Records() {
		switch r.Kind {
		case journal.KindChurn:
			churn++
		}
	}
	if churn == 0 {
		t.Fatal("journal recorded no churn events over a 1000-event trace")
	}
}

// TestStateDigestPinned pins the canonical dump of the 1000-event trace
// to a recorded digest: it catches a refactor of the ring queries, the
// lookup walk or the churn path that moves a ring point, a graph edge, a
// load counter, a cache entry or an item.
func TestStateDigestPinned(t *testing.T) {
	const want uint64 = 0xd588ae2a8584bfc3
	tr := Generate(1, GenOptions{
		Initial: 256, Events: 1000,
		JoinFrac: 0.40, LeaveFrac: 0.30, PutFrac: 0.15,
	})
	if got := digest(mustRun(t, tr, Config{})); got != want {
		t.Errorf("state digest %#x, want %#x", got, want)
	}
}

// TestCountersSurviveConcurrentChurn is the no-lost-updates property:
// accumulate load and cache-supply counters with traffic, run a churn
// storm of 16 joins and 16 leaves, and require every surviving server's
// counters untouched and every departed server's counters dropped.
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
			t.Errorf("server %d counters changed across churn: %v -> %v", id, counts, got)
		}
	}
	for _, id := range joined {
		if d.LoadOf(id) != 0 || d.SuppliedOf(id) != 0 {
			t.Errorf("newcomer %d has nonzero counters", id)
		}
	}
}

func key(i int) string { return "ctr-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
