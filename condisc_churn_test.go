package condisc

import "testing"

// TestJoinBatchLeaveBatchRoundTrip: the batch forms grow and shrink the
// network, ids are distinct and stable, and the per-server invariants
// (every key still owned, counters for newcomers zero) hold.
func TestJoinBatchLeaveBatchRoundTrip(t *testing.T) {
	d := New(64, Options{Seed: 11})
	defer d.Close()
	for i := 0; i < 32; i++ {
		d.Put(i%d.N(), string(rune('a'+i)), []byte{byte(i)})
	}
	before := d.N()
	ids := d.JoinBatch(16)
	if len(ids) != 16 {
		t.Fatalf("JoinBatch returned %d ids", len(ids))
	}
	seen := map[ServerID]bool{}
	for _, id := range ids {
		if id == 0 || seen[id] {
			t.Fatalf("bad or duplicate id %d in %v", id, ids)
		}
		seen[id] = true
		if _, ok := d.IndexOf(id); !ok {
			t.Fatalf("joined server %d not in ring", id)
		}
	}
	if d.N() != before+16 {
		t.Fatalf("N = %d after JoinBatch(16), want %d", d.N(), before+16)
	}
	for i := 0; i < 32; i++ {
		if _, _, ok := d.Get(i%d.N(), string(rune('a'+i))); !ok {
			t.Fatalf("key %q lost across JoinBatch", string(rune('a'+i)))
		}
	}
	if err := d.LeaveBatch(ids); err != nil {
		t.Fatal(err)
	}
	if d.N() != before {
		t.Fatalf("N = %d after LeaveBatch, want %d", d.N(), before)
	}
	for i := 0; i < 32; i++ {
		if _, _, ok := d.Get(i%d.N(), string(rune('a'+i))); !ok {
			t.Fatalf("key %q lost across LeaveBatch", string(rune('a'+i)))
		}
	}
}

// TestLeaveBatchValidation: duplicate ids, unknown ids, and below-floor
// shrinks fail atomically — no partial application.
func TestLeaveBatchValidation(t *testing.T) {
	d := New(8, Options{Seed: 3})
	defer d.Close()
	ids := d.Servers()
	if err := d.LeaveBatch([]ServerID{ids[0], ids[0]}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if err := d.LeaveBatch([]ServerID{99999}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := d.LeaveBatch(ids[:7]); err == nil {
		t.Fatal("shrink below 2 servers accepted")
	}
	if d.N() != 8 {
		t.Fatalf("failed batches mutated the network: N = %d", d.N())
	}
	if err := d.LeaveBatch(ids[:6]); err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 {
		t.Fatalf("N = %d, want 2", d.N())
	}
}

// TestJoinAtExplicitPoint: JoinAt admits an explicit point once and
// refuses the duplicate without burning a handle.
func TestJoinAtExplicitPoint(t *testing.T) {
	d := New(4, Options{Seed: 5})
	defer d.Close()
	p := Point(0x4242424242424242)
	id, ok := d.JoinAt(p)
	if !ok || id == 0 {
		t.Fatalf("JoinAt(%d) = %d, %v", uint64(p), id, ok)
	}
	if id2, ok2 := d.JoinAt(p); ok2 || id2 != 0 {
		t.Fatalf("duplicate JoinAt admitted: %d, %v", id2, ok2)
	}
	if d.N() != 5 {
		t.Fatalf("N = %d, want 5", d.N())
	}
}
