package journal

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

func TestRecordAndRead(t *testing.T) {
	j := New(64)
	for i := uint64(0); i < 10; i++ {
		j.Record(KindChurn, i, i/2, i*10, i*100, 1)
	}
	recs := j.Records()
	if len(recs) != 10 {
		t.Fatalf("Records() = %d entries, want 10", len(recs))
	}
	if j.Len() != 10 || j.Dropped() != 0 {
		t.Fatalf("Len/Dropped = %d/%d, want 10/0", j.Len(), j.Dropped())
	}
	for i, r := range recs {
		want := Record{Seq: uint64(i), Kind: KindChurn, RingVer: uint64(i),
			Epoch: uint64(i / 2), A: uint64(i) * 10, B: uint64(i) * 100, C: 1}
		if r != want {
			t.Fatalf("record %d = %+v, want %+v", i, r, want)
		}
	}
}

func TestWraparoundKeepsNewest(t *testing.T) {
	j := New(16) // exact power of two
	for i := uint64(0); i < 40; i++ {
		j.Record(KindEpochPublish, 0, i, 0, 0, 0)
	}
	recs := j.Records()
	if len(recs) != 16 {
		t.Fatalf("Records() = %d entries, want 16", len(recs))
	}
	if j.Dropped() != 24 {
		t.Fatalf("Dropped() = %d, want 24", j.Dropped())
	}
	for i, r := range recs {
		if want := uint64(24 + i); r.Seq != want || r.Epoch != want {
			t.Fatalf("record %d: seq=%d epoch=%d, want %d", i, r.Seq, r.Epoch, want)
		}
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	j.Record(KindHandCommit, 1, 2, 3, 4, 5) // must not panic
	if j.Records() != nil || j.Len() != 0 || j.Dropped() != 0 {
		t.Fatal("nil journal should read as empty")
	}
}

func TestSetEnabled(t *testing.T) {
	defer SetEnabled(true)
	j := New(16)
	SetEnabled(false)
	j.Record(KindHandAbort, 1, 1, 1, 1, 1)
	if j.Len() != 0 {
		t.Fatal("disabled journal recorded")
	}
	SetEnabled(true)
	j.Record(KindHandAbort, 1, 1, 1, 1, 1)
	if j.Len() != 1 {
		t.Fatal("re-enabled journal did not record")
	}
}

// TestConcurrentRecordNoTorn hammers Record from many goroutines while
// readers snapshot continuously. Every record carries A == B == C, so a
// torn slot (fields from two different writes) is detectable. Run under
// -race this also proves the path is free of unsynchronized access.
func TestConcurrentRecordNoTorn(t *testing.T) {
	j := New(128)
	const writers, perWriter = 8, 4096
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range j.Records() {
					if rec.A != rec.B || rec.B != rec.C {
						t.Errorf("torn record: %+v", rec)
						return
					}
					if rec.Kind != KindStaleRepair {
						t.Errorf("unexpected kind: %+v", rec)
						return
					}
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				v := uint64(w)<<32 | uint64(i)
				j.Record(KindStaleRepair, v, v, v, v, v)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := j.Dropped() + uint64(j.Len()); got != writers*perWriter {
		t.Fatalf("emitted accounting: dropped+len = %d, want %d", got, writers*perWriter)
	}
}

func TestKindTextRoundTrip(t *testing.T) {
	for k := KindUnknown; k < kindCount; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Fatalf("kind %d: round trip gave %d, err %v", k, back, err)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("UnmarshalText accepted a bogus kind")
	}
	// JSON integration: kinds render as names.
	b, err := json.Marshal(Record{Kind: KindEndSuccFlip})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"end_succ_flip"`; !contains(string(b), want) {
		t.Fatalf("JSON %s does not contain %s", b, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMergeDeterministic merges the same streams in two input orders
// and demands identical timelines with every record present once.
func TestMergeDeterministic(t *testing.T) {
	mk := func(node uint64, n int, seed uint64) Stream {
		rng := rand.New(rand.NewPCG(seed, node))
		s := Stream{Node: node}
		for i := 0; i < n; i++ {
			s.Records = append(s.Records, Record{
				Seq: uint64(i), Kind: KindEndSuccFlip,
				RingVer: uint64(rng.IntN(6)), Epoch: uint64(rng.IntN(3)),
				A: rng.Uint64(),
			})
		}
		return s
	}
	a, b, c := mk(1, 20, 42), mk(2, 15, 43), mk(3, 25, 44)
	m1 := Merge([]Stream{a, b, c})
	m2 := Merge([]Stream{c, a, b})
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("merge is input-order dependent")
	}
	if len(m1) != 60 {
		t.Fatalf("merged %d records, want 60", len(m1))
	}
	// Ring-version order, and every (node, seq) exactly once.
	seen := map[[2]uint64]bool{}
	for i, rec := range m1 {
		if i > 0 && rec.RingVer < m1[i-1].RingVer {
			t.Fatalf("timeline out of ring-version order at %d", i)
		}
		k := [2]uint64{rec.Node, rec.Seq}
		if seen[k] {
			t.Fatalf("record %v appears twice", k)
		}
		seen[k] = true
	}
}
