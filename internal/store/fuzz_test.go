package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"condisc/internal/interval"
)

// FuzzLogstoreRecovery drives the WAL engine through a fuzzer-chosen op
// script, then damages the final segment (truncation or a bit flip, also
// fuzzer-chosen) and reopens. Recovery must never panic, and the
// recovered state must be a consistent prefix of history: every item
// carries a value that was actually written for its key, iteration is
// strictly ordered, and with no damage the state matches the model
// exactly.
func FuzzLogstoreRecovery(f *testing.F) {
	f.Add([]byte{0, 1, 4, 2, 8, 3, 1, 1, 9, 200}, uint16(0))
	f.Add([]byte{0, 1, 0, 1, 2, 1, 12, 7}, uint16(5))
	f.Add([]byte{3, 0, 0, 3, 1, 1, 0, 2}, uint16(300))
	f.Fuzz(func(t *testing.T, script []byte, damage uint16) {
		dir := t.TempDir()
		opts := LogOptions{segmentBytes: 256, compactAt: 1 << 10}
		s, err := OpenLog(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		const nkeys = 8
		model := map[int]string{}
		history := map[int]map[string]bool{} // every value ever written per key
		for i := 0; i < nkeys; i++ {
			history[i] = map[string]bool{"": true}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, kb := script[i], int(script[i+1])%nkeys
			key := fmt.Sprintf("k%d", kb)
			p := pointFor(kb)
			switch op % 4 {
			case 0, 1:
				v := fmt.Sprintf("v%d.%d", i, kb)
				if err := s.Put(p, key, []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[kb] = v
				history[kb][v] = true
			case 2:
				if err := s.Delete(p, key); err != nil {
					t.Fatal(err)
				}
				delete(model, kb)
			case 3:
				seg := interval.Segment{Start: pointFor(kb), Len: 1 << 62}
				moved := splitRange(t, s, seg)
				if err := s.MergeFrom(moved); err != nil {
					t.Fatal(err)
				}
				if err := Destroy(moved); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		// Damage the final segment: 0 = none, odd = truncate, even = flip.
		ids, err := (&Log{dir: dir}).segmentIDs()
		if err != nil || len(ids) == 0 {
			t.Fatalf("segment listing: %v %v", ids, err)
		}
		last := filepath.Join(dir, segName(ids[len(ids)-1]))
		raw, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		damaged := damage != 0 && len(raw) > 0
		if damaged {
			if damage%2 == 1 {
				raw = raw[:len(raw)-min(int(damage)%len(raw)+1, len(raw))]
			} else {
				raw[int(damage)%len(raw)] ^= 0x40
			}
			if err := os.WriteFile(last, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		r, err := OpenLog(dir, opts)
		if err != nil {
			// Only acceptable for non-final-segment corruption, which this
			// harness never produces: recovery must succeed.
			t.Fatalf("recovery failed: %v", err)
		}
		defer r.Close()

		// Invariant 1: iteration is strictly (point, key)-ordered and
		// agrees with Len and Get.
		got := scanItems(t, r, interval.FullCircle)
		if len(got) != r.Len() {
			t.Fatalf("Len %d != iterated %d", r.Len(), len(got))
		}
		for i, it := range got {
			if i > 0 {
				prev := got[i-1]
				if prev.Point > it.Point || (prev.Point == it.Point && prev.Key >= it.Key) {
					t.Fatalf("recovered iteration out of order: %v then %v", prev, it)
				}
			}
			v, ok, err := r.Get(it.Point, it.Key)
			if err != nil || !ok || string(v) != string(it.Value) {
				t.Fatalf("recovered item %q disagrees with Get: %q %v %v", it.Key, v, ok, err)
			}
			var kb int
			fmt.Sscanf(it.Key, "k%d", &kb)
			// Invariant 2: every recovered value was actually written.
			if !history[kb][string(it.Value)] {
				t.Fatalf("recovered %q = %q, never written", it.Key, it.Value)
			}
		}

		// Invariant 3: an undamaged log recovers the exact final state.
		if !damaged {
			if r.Len() != len(model) {
				t.Fatalf("clean recovery: %d items, model %d", r.Len(), len(model))
			}
			for kb, v := range model {
				got, ok, err := r.Get(pointFor(kb), fmt.Sprintf("k%d", kb))
				if err != nil || !ok || string(got) != v {
					t.Fatalf("clean recovery lost k%d: %q %v %v", kb, got, ok, err)
				}
			}
		}
	})
}
