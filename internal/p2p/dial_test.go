package p2p

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"condisc/internal/interval"
)

// blackHole is a peer that accepts every connection and never answers —
// what a frozen or partitioned node looks like to its callers.
func blackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { <-done; conn.Close() }()
		}
	}()
	t.Cleanup(func() { close(done); ln.Close() })
	return ln.Addr().String()
}

// TestRoutedHopHonoursRPCTimeout: a next hop that accepts and never
// answers costs a routed lookup the node's own RPC deadline before its
// ring-hop fallback — not the package's 5 s default, which every forward
// used to wait out whatever WithRPCTimeout said.
func TestRoutedHopHonoursRPCTimeout(t *testing.T) {
	const rpcT = 100 * time.Millisecond
	c, err := StartCluster(2, 161, WithRPCTimeout(rpcT))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	entry, hole := c.Nodes[0], blackHole(t)
	var stale []NodeInfo
	for _, e := range entry.core.Load().back {
		if e.Addr != entry.addr {
			e.Addr = hole
		}
		stale = append(stale, e)
	}
	editCore(entry, func(c *ringCore) { c.back = stale })

	cl := c.Client(0)
	for i := 0; i < 64; i++ {
		p := interval.Point(uint64(i) * 0x9e3779b97f4a7c15)
		t0 := time.Now()
		_, _, repairs, err := cl.LookupStats(p)
		took := time.Since(t0)
		if err != nil {
			t.Fatalf("lookup %v: %v", p, err)
		}
		if repairs == 0 {
			continue // this route never consulted the poisoned table
		}
		if took < rpcT || took > time.Second {
			t.Fatalf("lookup through a black-holed hop fell back after %v; the node's RPC deadline is %v", took, rpcT)
		}
		return
	}
	t.Fatal("no lookup out of 64 was routed through the black-holed table entry")
}

// flakyListener fails Accept while fails is positive (counting it down),
// or forever when it is negative.
type flakyListener struct {
	net.Listener
	fails atomic.Int32
	calls atomic.Int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	if f := l.fails.Load(); f < 0 || (f > 0 && l.fails.Add(-1) >= 0) {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestAcceptBacksOffOnErrors: a failing Accept is retried after 5 ms,
// then 10, 20, 40 — not in a spin — and the node serves again as soon as
// Accept does.
func TestAcceptBacksOffOnErrors(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 162)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ln := &flakyListener{Listener: n.ln}
	ln.fails.Store(4)
	n.ln = ln
	t0 := time.Now()
	n.StartFirst(interval.FromFloat(0.5))
	if _, err := call(n.Addr(), request{Op: opState}); err != nil {
		t.Fatalf("node did not recover from 4 failed accepts: %v", err)
	}
	if took, least := time.Since(t0), (5+10+20+40)*time.Millisecond; took < least {
		t.Fatalf("served after %v: four failures must have cost at least %v of back-off", took, least)
	}
	if calls := ln.calls.Load(); calls > 6 {
		t.Fatalf("Accept called %d times for 4 failures and one connection", calls)
	}
}

// TestAcceptBackoffStopsOnClose: with Accept failing for good the loop
// sleeps ever longer between attempts — and still exits the moment the
// node closes, however long the sleep it is in.
func TestAcceptBackoffStopsOnClose(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 163)
	if err != nil {
		t.Fatal(err)
	}
	ln := &flakyListener{Listener: n.ln}
	ln.fails.Store(-1)
	n.ln = ln
	n.StartFirst(interval.FromFloat(0.5))
	// 5+10+...+160 ms of back-off have passed after the 7th attempt; the
	// loop is then inside its 320 ms sleep.
	for ln.calls.Load() < 7 {
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	n.Close()
	if took := time.Since(t0); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with the accept loop backing off", took)
	}
	if calls := ln.calls.Load(); calls > 8 {
		t.Fatalf("Accept called %d times in under a second of persistent failure", calls)
	}
}
