package p2p

// Tests for concurrent disjoint handoff sessions: the node no longer
// enforces one transfer at a time — a second joiner splitting the same
// owner gets the disjoint sub-range bounded at the first joiner's fenced
// range and both sessions stream simultaneously.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condisc/internal/interval"
	"condisc/internal/store"
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
	hookHandoff(a, func(chunk int) error {
		if chunk >= 1 {
			pauseOnce.Do(func() { close(aPaused) })
			<-aResume
		}
		return nil
	}, nil)
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
// joins, a leave, and read and write traffic all in flight against one
// cluster at once. Every operation either succeeds or is refused with a
// retry: a Get of a pre-loaded key never reads a miss or wrong bytes, and
// every acknowledged Put reads back once the ring has stabilized. At the
// end the ring closes and every key is served.
func TestConcurrentClusterChurn(t *testing.T) {
	const n = 6
	const items = 60
	slow := func(node *Node) { node.data = slowStore{store.NewMem()} }
	c, err := StartCluster(n, 2024, slow)
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

	// Read and write traffic throughout. A Get may be refused while a node
	// is mid-leave or mid-join, or find its owner gone, and a Put may meet
	// a fenced range: those are retries. A miss is not: a pre-loaded key
	// is always owned by someone, so ErrNotFound means an owner served it
	// from a store its range had already left.
	var trafficMu sync.Mutex
	var trafficErr error
	fail := func(err error) {
		trafficMu.Lock()
		defer trafficMu.Unlock()
		if trafficErr == nil {
			trafficErr = err
		}
	}
	const readers = 4
	var traffic sync.WaitGroup
	traffic.Add(readers + 1)
	var gets atomic.Int64
	for r := 0; r < readers; r++ {
		go func() {
			defer traffic.Done()
			for i := r * items / readers; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gets.Add(1)
				v, _, err := c.Client(r).Get(key2(i%items), h)
				switch {
				case errors.Is(err, ErrNotFound):
					fail(fmt.Errorf("get %s mid-churn: %w", key2(i%items), err))
				case err == nil && string(v) != val2(i%items):
					fail(fmt.Errorf("get %s mid-churn = %q, want %q", key2(i%items), v, val2(i%items)))
				}
			}
		}()
	}
	var acked []int // the Puts a node acknowledged, read back after the churn
	go func() {
		defer traffic.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Client(i%4).Put(putKey(i), []byte(putVal(i)), h); err == nil {
				acked = append(acked, i)
			}
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
	traffic.Wait()
	if trafficErr != nil {
		t.Fatal(trafficErr)
	}

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
	t.Logf("%d gets and %d acknowledged puts ran during the churn", gets.Load(), len(acked))
	if len(acked) == 0 {
		t.Fatal("no Put was acknowledged during the churn")
	}
	for _, i := range acked {
		v, _, err := c.Client(0).Get(putKey(i), h)
		if err != nil || string(v) != putVal(i) {
			t.Fatalf("acknowledged put %s after concurrent churn: %q, %v; want %q", putKey(i), v, err, putVal(i))
		}
	}
	if _, err := c.RingOrder(); err != nil {
		t.Fatalf("ring integrity after concurrent churn: %v", err)
	}
}

// slowStore holds every item read and write for a millisecond, so an
// ownership transition at the owner falls inside an item op in most runs:
// a check made against a stale ring state then shows as a miss or a lost
// write instead of hiding in a window of microseconds.
type slowStore struct{ store.Store }

func (s slowStore) Get(p interval.Point, key string) ([]byte, bool, error) {
	time.Sleep(time.Millisecond)
	return s.Store.Get(p, key)
}

func (s slowStore) Put(p interval.Point, key string, value []byte) error {
	time.Sleep(time.Millisecond)
	return s.Store.Put(p, key, value)
}

func key2(i int) string   { return fmt.Sprintf("ck%03d", i) }
func val2(i int) string   { return fmt.Sprintf("cv%03d", i) }
func putKey(i int) string { return fmt.Sprintf("cp%05d", i) }
func putVal(i int) string { return fmt.Sprintf("cw%05d", i) }
