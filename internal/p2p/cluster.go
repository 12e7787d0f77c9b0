package p2p

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"condisc/internal/interval"
)

// Cluster spins up an in-process network of nodes on loopback TCP —
// the harness examples and the E28 experiment use it to demonstrate the
// same algorithms over real sockets.
type Cluster struct {
	Nodes []*Node
	seed  uint64
	rng   *rand.Rand
	opts  []NodeOption
}

// StartCluster boots n nodes: the first owns the full circle and the rest
// join sequentially through it, with a stabilization pass after each join.
// opts apply to every node of the cluster (and to later Join calls); do
// not pass per-node options like WithStore here.
func StartCluster(n int, seed uint64, opts ...NodeOption) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("p2p: cluster needs n >= 1")
	}
	c := &Cluster{seed: seed, rng: rand.New(rand.NewPCG(seed, seed+1)), opts: opts}
	first, err := NewNode("127.0.0.1:0", seed, opts...)
	if err != nil {
		return nil, err
	}
	first.StartFirst(interval.Point(c.rng.Uint64()))
	c.Nodes = append(c.Nodes, first)
	for i := 1; i < n; i++ {
		if _, err := c.Join(); err != nil {
			c.Stop()
			return nil, fmt.Errorf("p2p: join %d: %w", i, err)
		}
	}
	return c, c.StabilizeAll(2)
}

// Join adds one node through the cluster's first node and appends it to
// Nodes — the churn half the E31 staleness sweep exercises live.
func (c *Cluster) Join() (*Node, error) {
	return c.JoinWith()
}

// JoinWith is Join with per-node options appended after the cluster-wide
// ones — E32 uses it to give each member its own telemetry registry so
// per-node load can be read apart.
func (c *Cluster) JoinWith(extra ...NodeOption) (*Node, error) {
	opts := append(append([]NodeOption{}, c.opts...), extra...)
	node, err := NewNode("127.0.0.1:0", c.seed, opts...)
	if err != nil {
		return nil, err
	}
	if err := node.StartJoin(c.Nodes[0].Addr(), c.rng); err != nil {
		node.Close()
		return nil, err
	}
	c.Nodes = append(c.Nodes, node)
	return node, nil
}

// LeaveAt gracefully removes node i (i > 0: node 0 is the bootstrap) from
// the ring and from Nodes.
func (c *Cluster) LeaveAt(i int) error {
	if i <= 0 || i >= len(c.Nodes) {
		return fmt.Errorf("p2p: cannot leave node %d of %d", i, len(c.Nodes))
	}
	if err := c.Nodes[i].Leave(); err != nil {
		return err
	}
	// slices.Delete zeroes the vacated slot, so the departed node (and its
	// store) is not kept reachable when the last index leaves.
	c.Nodes = slices.Delete(c.Nodes, i, i+1)
	return nil
}

// StabilizeAll runs `rounds` stabilization passes over every node.
func (c *Cluster) StabilizeAll(rounds int) error {
	for r := 0; r < rounds; r++ {
		for _, n := range c.Nodes {
			if err := n.Stabilize(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Client returns a client bootstrapped at node idx.
func (c *Cluster) Client(idx int) *Client {
	return &Client{Bootstrap: c.Nodes[idx].Addr()}
}

// Hash returns the shared item-hash function.
func (c *Cluster) Hash() func(string) interval.Point {
	return c.Nodes[0].HashFunc()
}

// Stop closes every node.
func (c *Cluster) Stop() {
	for _, n := range c.Nodes {
		n.Close()
	}
}

// RingOrder returns the nodes' points in ring-successor order starting at
// node 0, for verifying ring integrity.
func (c *Cluster) RingOrder() ([]interval.Point, error) {
	var out []interval.Point
	start := c.Nodes[0].Addr()
	addr := start
	for i := 0; i <= len(c.Nodes); i++ {
		st, err := call(addr, request{Op: opState})
		if err != nil {
			return nil, err
		}
		out = append(out, interval.Point(st.Point))
		addr = st.SuccAddr
		if addr == start {
			return out, nil
		}
	}
	return out, fmt.Errorf("p2p: ring does not close after %d hops", len(c.Nodes))
}
