package p2p

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"condisc/internal/interval"
)

func TestSingleNodeOwnsEverything(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	n.StartFirst(interval.FromFloat(0.5))
	defer n.Close()
	cl := &Client{Bootstrap: n.Addr()}
	if _, err := cl.Put("k", []byte("v"), n.HashFunc()); err != nil {
		t.Fatal(err)
	}
	v, hops, err := cl.Get("k", n.HashFunc())
	if err != nil || string(v) != "v" {
		t.Fatalf("get: %v %q", err, v)
	}
	if hops != 0 {
		t.Errorf("single-node get took %d hops", hops)
	}
}

func TestClusterRingIntegrity(t *testing.T) {
	c, err := StartCluster(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	order, err := c.RingOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("ring has %d nodes, want 12", len(order))
	}
	// Points must be in strict clockwise order from node 0.
	for i := 2; i < len(order); i++ {
		a := interval.CWDist(order[0], order[i-1])
		b := interval.CWDist(order[0], order[i])
		if b <= a {
			t.Fatalf("ring order violated at %d", i)
		}
	}
}

func TestClusterPutGet(t *testing.T) {
	c, err := StartCluster(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h := c.Hash()
	// Put through one node, get through another.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("val-%d", i))
		if _, err := c.Client(i%10).Put(key, val, h); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, _, err := c.Client((i+5)%10).Get(key, h)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if !bytes.Equal(got, []byte(fmt.Sprintf("val-%d", i))) {
			t.Fatalf("get %s = %q", key, got)
		}
	}
}

func TestGetMissingKey(t *testing.T) {
	c, err := StartCluster(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if _, _, err := c.Client(0).Get("nope", c.Hash()); err == nil {
		t.Fatal("expected error for missing key")
	}
}

// TestLookupConsistency: all nodes resolve the same owner for the same
// point, and the owner's segment contains it.
func TestLookupConsistency(t *testing.T) {
	c, err := StartCluster(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	rng := rand.New(rand.NewPCG(6, 6))
	for trial := 0; trial < 30; trial++ {
		p := interval.Point(rng.Uint64())
		owner0, _, err := c.Client(0).Lookup(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(c.Nodes); i++ {
			owner, _, err := c.Client(i).Lookup(p)
			if err != nil {
				t.Fatal(err)
			}
			if owner != owner0 {
				t.Fatalf("node %d resolves %v to %s, node 0 to %s", i, p, owner, owner0)
			}
		}
	}
}

// TestHopsLogarithmic: lookup hop counts stay near the Corollary 2.5 bound
// over real sockets.
func TestHopsLogarithmic(t *testing.T) {
	const n = 16
	c, err := StartCluster(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.StabilizeAll(3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	maxHops := 0
	for trial := 0; trial < 60; trial++ {
		_, hops, err := c.Client(rng.IntN(n)).Lookup(interval.Point(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		if hops > maxHops {
			maxHops = hops
		}
	}
	// log n + log ρ + slack; ρ is small with improved-single-choice joins.
	bound := int(math.Log2(n)) + 10
	if maxHops > bound {
		t.Errorf("max hops %d > %d", maxHops, bound)
	}
}

// TestLeaveHandsOffData: a leaving node's items remain retrievable.
func TestLeaveHandsOffData(t *testing.T) {
	c, err := StartCluster(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < 30; i++ {
		if _, err := c.Client(0).Put(fmt.Sprintf("k%d", i), []byte{byte(i)}, h); err != nil {
			t.Fatal(err)
		}
	}
	// Node 3 leaves gracefully.
	if err := c.Nodes[3].Leave(); err != nil {
		t.Fatal(err)
	}
	live := append(append([]*Node{}, c.Nodes[:3]...), c.Nodes[4:]...)
	for _, n := range live {
		if err := n.Stabilize(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		got, _, err := (&Client{Bootstrap: live[0].Addr()}).Get(fmt.Sprintf("k%d", i), h)
		if err != nil {
			t.Fatalf("after leave, get k%d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("after leave, k%d = %v", i, got)
		}
	}
}

// TestJoinTransfersItems: items whose hash falls in the new node's segment
// move to it.
func TestJoinTransfersItems(t *testing.T) {
	c, err := StartCluster(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < 64; i++ {
		if _, err := c.Client(0).Put(fmt.Sprintf("it%d", i), []byte("x"), h); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Nodes[0].NumItems() + c.Nodes[1].NumItems()
	// A third node joins; items must be conserved and redistributed.
	n3, err := NewNode("127.0.0.1:0", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := n3.StartJoin(c.Nodes[0].Addr(), rand.New(rand.NewPCG(11, 11))); err != nil {
		t.Fatal(err)
	}
	defer n3.Close()
	after := c.Nodes[0].NumItems() + c.Nodes[1].NumItems() + n3.NumItems()
	if before != 64 || after != 64 {
		t.Fatalf("items not conserved: before=%d after=%d", before, after)
	}
	// And all keys remain retrievable from anywhere.
	for i := 0; i < 64; i++ {
		if _, _, err := (&Client{Bootstrap: n3.Addr()}).Get(fmt.Sprintf("it%d", i), h); err != nil {
			t.Fatalf("get it%d: %v", i, err)
		}
	}
}

func TestSegmentsPartitionTheCircle(t *testing.T) {
	c, err := StartCluster(9, 12)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	var total uint64
	for _, n := range c.Nodes {
		x, end, _, _ := ringState(n)
		total += uint64(end - x)
	}
	if total != 0 { // segments tile the ring: lengths sum to 2^64 ≡ 0
		t.Errorf("segments sum to %d, want 2^64", total)
	}
}
