// Command dhnode runs one Distance Halving DHT server over TCP.
//
// Start the first node of a network:
//
//	dhnode -listen 127.0.0.1:7001 -seed 42
//
// Join additional nodes through any existing one:
//
//	dhnode -listen 127.0.0.1:7002 -join 127.0.0.1:7001 -seed 42
//
// All nodes of a network must share -seed (it derives the item-hash
// function). The seed together with the listen address also determines the
// node's point placement, so a cluster restarted with the same seeds and
// addresses reproduces the same decomposition; pass -entropy to mix in
// wall-clock randomness instead. The node stabilizes its de Bruijn
// neighbour tables every
// -stabilize interval; the ring pointers are maintained synchronously and
// lookups fall back to ring hops while tables converge.
//
// Items live in an ordered store selected by -store: "mem" (default) keeps
// them in memory, "log" persists them in an append-only WAL under -data,
// scaling past RAM and surviving restarts (a restarted node replays its
// WAL; items handed off in a graceful Leave are not replayed because the
// store is cleared at the handoff commit). Join and Leave move items as
// streaming two-phase handoff sessions (internal/handoff): transfers are
// chunked — O(chunk) memory however large the range — and crash-safe; a
// node killed mid-join and restarted with the same -listen address and
// -data directory resumes the transfer from its staged prefix, or aborts
// it cleanly and joins fresh.
//
// Pass -replicas K (matching across all nodes) to survive ungraceful
// death: every value lives on its owner plus K−1 ring successors, a Put
// is acknowledged only after a write quorum (-quorum, default majority),
// reads fall back to replicas while an owner is dead, and each node's
// failure detector (-fd-threshold consecutive failed successor probes)
// absorbs a crashed successor's range without a handoff session and
// re-materializes it from the replicas. Replica payloads are held in
// memory on every engine — they are a crash-repair source, re-spread by
// the repair loop, not durable state.
//
// Pass -admin ADDR to expose the live introspection plane: /metrics
// (Prometheus text), /statusz (ring pointers + neighbour table + metric
// snapshot as JSON), /healthz (degrades to 503 while a paper invariant
// is breached), /journalz (the bounded flight-recorder ring of churn,
// handoff, epoch, and repair records; capacity set by -journal), /doctorz
// (live invariant verdicts with margins), and /debug/pprof. The admin
// address is advertised to the ring, so `dhctl top`, `dhctl journal`,
// and `dhctl doctor` can scrape the whole cluster from any one member.
// On SIGINT/SIGTERM the node leaves gracefully
// (handing its items to the predecessor) and dumps a final telemetry
// snapshot to stderr; a second signal forces an immediate exit.
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"os/signal"
	"syscall"
	"time"

	"condisc/internal/admin"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/p2p"
	"condisc/internal/replicate"
	"condisc/internal/store"
	"condisc/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	join := flag.String("join", "", "bootstrap address of an existing node (empty = start a new network)")
	seed := flag.Uint64("seed", 42, "cluster seed (must match across all nodes)")
	stabilize := flag.Duration("stabilize", 2*time.Second, "stabilization interval")
	entropy := flag.Bool("entropy", false, "mix wall-clock entropy into ID selection (placement no longer reproducible from -seed)")
	engine := flag.String("store", "mem", "item-store engine: mem (in-memory ordered) or log (disk-backed WAL)")
	data := flag.String("data", "", "data directory for -store=log")
	adminAddr := flag.String("admin", "", "admin HTTP address for /metrics, /statusz, /healthz, /journalz, /doctorz, /debug/pprof (empty = disabled)")
	journalCap := flag.Int("journal", journal.DefaultCapacity, "flight-recorder ring capacity in records (0 = disabled)")
	replicas := flag.Int("replicas", 1, "replication factor k: each value lives on its owner plus k-1 ring successors (1 = replication off; must match across all nodes)")
	quorum := flag.Int("quorum", 0, "write acks required before a Put is acknowledged (0 = majority of -replicas)")
	rpcTimeout := flag.Duration("rpc-timeout", 0, "per-RPC deadline for dial/read/write; streaming transfers allow 10x this per frame (0 = built-in default)")
	fdThreshold := flag.Int("fd-threshold", 0, "consecutive failed successor probes before declaring it crashed and absorbing its range (0 = default: 3 with replication, disarmed without)")
	flag.Parse()

	st, err := store.Open(*engine, *data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhnode:", err)
		os.Exit(1)
	}
	var jrn *journal.Journal
	if *journalCap > 0 {
		jrn = journal.New(*journalCap)
	}
	nodeOpts := []p2p.NodeOption{p2p.WithStore(st), p2p.WithJournal(jrn)}
	if *replicas > 1 {
		nodeOpts = append(nodeOpts, p2p.WithReplication(replicate.Policy{K: *replicas, Quorum: *quorum}))
	}
	if *rpcTimeout > 0 {
		nodeOpts = append(nodeOpts, p2p.WithRPCTimeout(*rpcTimeout))
	}
	if *fdThreshold > 0 {
		nodeOpts = append(nodeOpts, p2p.WithFDThreshold(*fdThreshold))
	}
	node, err := p2p.NewNode(*listen, *seed, nodeOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhnode:", err)
		os.Exit(1)
	}
	if *adminAddr != "" {
		srv, err := admin.Serve(*adminAddr, admin.Handler(node.Telemetry(),
			func() any { return node.Status() },
			admin.WithJournal(node.ID(), node.Addr(), jrn),
			admin.WithDoctor(node.Doctor)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dhnode: admin:", err)
			os.Exit(1)
		}
		defer srv.Close()
		node.SetAdminAddr(srv.Addr)
		fmt.Printf("dhnode: admin plane at http://%s\n", srv.Addr)
	}
	if *engine == "log" && node.NumItems() > 0 {
		fmt.Printf("dhnode: recovered %d items from %s\n", node.NumItems(), *data)
	}
	// Derive the ID-selection RNG from the cluster seed and this node's
	// bound address, so a cluster started with the same -seed and addresses
	// reproduces the same point placement run after run. Distinct addresses
	// keep nodes from colliding on the same point; -entropy opts back into
	// wall-clock randomness.
	salt := fnv.New64a()
	salt.Write([]byte(node.Addr()))
	streamSalt := salt.Sum64()
	if *entropy {
		streamSalt ^= uint64(time.Now().UnixNano())
	}
	rng := rand.New(rand.NewPCG(*seed, streamSalt))
	if *join == "" {
		node.StartFirst(interval.Point(rng.Uint64()))
		fmt.Printf("dhnode: started new network at %s (point %v)\n", node.Addr(), node.Point())
	} else {
		if err := node.StartJoin(*join, rng); err != nil {
			fmt.Fprintln(os.Stderr, "dhnode: join:", err)
			os.Exit(1)
		}
		fmt.Printf("dhnode: joined via %s at %s (point %v)\n", *join, node.Addr(), node.Point())
	}

	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(*stabilize)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := node.Stabilize(); err != nil {
				fmt.Fprintln(os.Stderr, "dhnode: stabilize:", err)
			}
		case <-stop:
			fmt.Println("dhnode: leaving gracefully (second signal forces exit)")
			go func() {
				// A second signal aborts the graceful leave: the handoff to
				// the predecessor may be mid-stream, which is exactly what
				// the crash-recovery path exists for.
				<-stop
				fmt.Fprintln(os.Stderr, "dhnode: forced exit before leave completed")
				flushTelemetry(node.Telemetry())
				os.Exit(1)
			}()
			if err := node.Leave(); err != nil {
				fmt.Fprintln(os.Stderr, "dhnode: leave:", err)
				node.Close()
			}
			flushTelemetry(node.Telemetry())
			return
		}
	}
}

// flushTelemetry dumps the final metric state and event ring to stderr on
// shutdown, so a scraperless deployment still gets a terminal snapshot.
func flushTelemetry(reg *telemetry.Registry) {
	fmt.Fprintln(os.Stderr, "dhnode: final telemetry snapshot:")
	_ = reg.WritePrometheus(os.Stderr)
	for _, e := range reg.Events() {
		fmt.Fprintf(os.Stderr, "dhnode: event %s %s %s\n",
			e.At.Format(time.RFC3339Nano), e.Kind, e.Detail)
	}
	if d := reg.EventsDropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "dhnode: (%d earlier events dropped by the bounded ring)\n", d)
	}
}
