package p2p

// Tests for concurrent disjoint handoff sessions: the node no longer
// enforces one transfer at a time — a second joiner splitting the same
// owner gets the disjoint sub-range bounded at the first joiner's fenced
// range and both sessions stream simultaneously.

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// TestConcurrentJoinsSameOwner proves two join sessions against one owner
// genuinely overlap in time: joiner A is paused mid-stream (its session
// held open at the owner), joiner B then prepares and streams its
// disjoint sub-range — both sessions streaming at once, where the old
// one-transfer discipline refused B's overlapping-range prepare outright.
// Commits resolve in ring order (B's inner range waits for A's outer
// one), both joins complete, items are conserved across both splits, and
// every key stays readable from every node.
func TestConcurrentJoinsSameOwner(t *testing.T) {
	const items = 200
	owner, _ := handoffHarness(t, 140, items, withHandoffTTL(30*time.Second))
	defer owner.Close()

	aPaused := make(chan struct{})
	aResume := make(chan struct{})
	var pauseOnce sync.Once

	a, err := NewNode("127.0.0.1:0", 140)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.handoffChunkHook = func(chunk int) error {
		if chunk >= 1 {
			pauseOnce.Do(func() { close(aPaused) })
			<-aResume
		}
		return nil
	}
	aErr := make(chan error, 1)
	go func() { aErr <- a.StartJoin(owner.Addr(), rand.New(rand.NewPCG(141, 141))) }()

	<-aPaused
	if got := len(owner.sessions.Streaming()); got != 1 {
		t.Fatalf("owner has %d active sessions while A streams, want 1", got)
	}

	// B prepares and streams while A's session is frozen mid-stream. Its
	// prepare must be bounded at A's fenced range, not refused; its
	// commit queues behind A's (commit-in-order), so run it alongside.
	b, err := NewNode("127.0.0.1:0", 140)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bErr := make(chan error, 1)
	go func() { bErr <- b.StartJoin(owner.Addr(), rand.New(rand.NewPCG(142, 142))) }()

	// Both sessions must be streaming at the owner simultaneously.
	deadline := time.Now().Add(10 * time.Second)
	for len(owner.sessions.Streaming()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("owner never held 2 concurrent sessions (have %d)", len(owner.sessions.Streaming()))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Release A; it commits its outer range, unblocking B's inner commit.
	close(aResume)
	if err := <-aErr; err != nil {
		t.Fatalf("paused join A: %v", err)
	}
	if err := <-bErr; err != nil {
		t.Fatalf("concurrent join B: %v", err)
	}
	if b.NumItems() == 0 {
		t.Fatal("B committed but owns no items; pick seeds that land items in its range")
	}

	for round := 0; round < 3; round++ {
		for _, n := range []*Node{owner, a, b} {
			if err := n.Stabilize(); err != nil {
				t.Fatalf("stabilize: %v", err)
			}
		}
	}
	if sum := owner.NumItems() + a.NumItems() + b.NumItems(); sum != items {
		t.Fatalf("items not conserved across concurrent joins: %d + %d + %d != %d",
			owner.NumItems(), a.NumItems(), b.NumItems(), items)
	}
	if a.NumItems() == 0 {
		t.Fatal("A completed but owns no items")
	}
	for _, n := range []*Node{owner, a, b} {
		verifyAllKeys(t, n.Addr(), owner.HashFunc(), items, "after concurrent joins via "+n.Addr())
	}

	// The ring closes over exactly the three nodes.
	seen := map[string]bool{}
	addr := owner.Addr()
	for i := 0; i < 4; i++ {
		st, err := call(addr, request{Op: opState})
		if err != nil {
			t.Fatal(err)
		}
		seen[st.Addr] = true
		addr = st.SuccAddr
		if addr == owner.Addr() {
			break
		}
	}
	if len(seen) != 3 {
		t.Fatalf("ring closes over %d nodes, want 3 (%v)", len(seen), seen)
	}
}

// TestConcurrentClusterChurn is the stress arm the CI race job runs:
// joins, a leave, and read traffic all in flight against one cluster at
// once. Every operation either succeeds or retries; at the end the ring
// closes and every key is served.
func TestConcurrentClusterChurn(t *testing.T) {
	const n = 6
	const items = 60
	c, err := StartCluster(n, 2024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	h := c.Hash()
	for i := 0; i < items; i++ {
		if _, err := c.Client(i%n).Put(key2(i), []byte(val2(i)), h); err != nil {
			t.Fatal(err)
		}
	}

	var churnWg sync.WaitGroup
	errs := make(chan error, 8)
	stop := make(chan struct{})

	// Two concurrent joiners through different bootstrap nodes.
	joined := make([]*Node, 2)
	for j := 0; j < 2; j++ {
		churnWg.Add(1)
		go func(j int) {
			defer churnWg.Done()
			node, err := NewNode("127.0.0.1:0", 2024)
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewPCG(uint64(3000+j), uint64(j)+7))
			for attempt := 0; ; attempt++ {
				err = node.StartJoin(c.Nodes[j].Addr(), rng)
				if err == nil {
					break
				}
				if attempt >= 10 {
					errs <- fmt.Errorf("joiner %d: %w", j, err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			joined[j] = node
		}(j)
	}

	// One graceful leave, retried while the neighbourhood is busy.
	leaver := c.Nodes[n-1]
	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		for attempt := 0; ; attempt++ {
			err := leaver.Leave()
			if err == nil {
				return
			}
			if attempt >= 20 {
				errs <- fmt.Errorf("leave: %w", err)
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	// Read traffic throughout (a get may transiently fail while a node is
	// mid-leave; only persistent failures matter and the final sweep below
	// catches those).
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Client(i%4).Get(key2(i%items), h)
		}
	}()

	churnDone := make(chan struct{})
	go func() { churnWg.Wait(); close(churnDone) }()
	select {
	case <-churnDone:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent churn did not settle in 30s")
	}
	close(stop)
	<-trafficDone

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for _, node := range joined {
		if node != nil {
			defer node.Close()
			c.Nodes = append(c.Nodes, node)
		}
	}
	// Drop the departed leaver from the stabilization set.
	var live []*Node
	for _, node := range c.Nodes {
		if node != leaver {
			live = append(live, node)
		}
	}
	c.Nodes = live
	if err := c.StabilizeAll(3); err != nil {
		t.Fatalf("stabilize after churn: %v", err)
	}
	for i := 0; i < items; i++ {
		v, _, err := c.Client(0).Get(key2(i), h)
		if err != nil {
			t.Fatalf("get %s after concurrent churn: %v", key2(i), err)
		}
		if string(v) != val2(i) {
			t.Fatalf("get %s = %q, want %q", key2(i), v, val2(i))
		}
	}
	if _, err := c.RingOrder(); err != nil {
		t.Fatalf("ring integrity after concurrent churn: %v", err)
	}
}

func key2(i int) string { return fmt.Sprintf("ck%03d", i) }
func val2(i int) string { return fmt.Sprintf("cv%03d", i) }
