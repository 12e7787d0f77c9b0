// Command dhctl is the client for dhnode networks.
//
// Usage:
//
//	dhctl -node 127.0.0.1:7001 -seed 42 put KEY VALUE
//	dhctl -node 127.0.0.1:7001 -seed 42 get KEY
//	dhctl -node 127.0.0.1:7001 -seed 42 lookup KEY
//	dhctl -node 127.0.0.1:7001 -seed 42 trace KEY
//	dhctl -node 127.0.0.1:7001 top
//	dhctl -node 127.0.0.1:7001 journal
//	dhctl -node 127.0.0.1:7001 doctor
//
// -seed must match the network's seed (it derives the item-hash function).
//
// get distinguishes its failures for scripts: exit 3 means the key is
// genuinely absent, exit 4 means the key's owner is unreachable (the key
// may exist — retry after the ring heals).
//
// trace routes a lookup with per-hop tracing on and prints the actual
// path the request took: each node's address and point, the stale-route
// repairs it saw, and the per-hop latency (derived from nested local
// durations, so no cross-node clock agreement is needed).
//
// top walks the ring from -node, scrapes every member's /statusz (nodes
// started without -admin are listed but not scraped; a dead admin
// endpoint is skipped with a warning after -scrape-timeout), and renders
// a cluster table: items, routed messages, owner-served ops, and
// lookup-hop stats per node, plus the load-skew summary the congestion
// theorems bound.
//
// journal scrapes every member's /journalz flight-recorder ring and
// merges the streams into one cluster-wide causal timeline, ordered by
// (ring version, epoch, node, sequence) — no clock agreement needed.
//
// doctor scrapes every member's /doctorz verdicts, then recomputes the
// cluster-wide invariants (smoothness from the ring decomposition,
// lookup-hop p99 from the merged histograms, routed-load skew from the
// per-node counters) and renders both. Exit status 1 if any invariant is
// breached anywhere — scriptable continuous verification of the paper's
// bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"strings"
	"time"

	"condisc/internal/doctor"
	"condisc/internal/hashing"
	"condisc/internal/interval"
	"condisc/internal/journal"
	"condisc/internal/p2p"
	"condisc/internal/telemetry"
)

func main() {
	node := flag.String("node", "127.0.0.1:7001", "any node of the network")
	seed := flag.Uint64("seed", 42, "cluster seed")
	scrapeTimeout := flag.Duration("scrape-timeout", 3*time.Second, "per-node admin scrape timeout for top/journal/doctor")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	h := hashing.NewKWise(8, rand.New(rand.NewPCG(*seed, *seed^0x9e3779b97f4a7c15)))
	client := &p2p.Client{Bootstrap: *node}

	switch args[0] {
	case "put":
		if len(args) != 3 {
			usage()
		}
		hops, err := client.Put(args[1], []byte(args[2]), h.Point)
		exitOn(err)
		fmt.Printf("ok (%d hops)\n", hops)
	case "get":
		if len(args) != 2 {
			usage()
		}
		val, hops, err := client.Get(args[1], h.Point)
		// A genuine miss and an unreachable owner are different failures:
		// scripts get distinct exit codes (3 = key not found, 4 = owner
		// unreachable — the key MAY exist but its owner is dead/partitioned).
		if errors.Is(err, p2p.ErrNotFound) {
			fmt.Fprintln(os.Stderr, "dhctl:", err)
			os.Exit(3)
		}
		if errors.Is(err, p2p.ErrOwnerUnreachable) {
			fmt.Fprintln(os.Stderr, "dhctl:", err)
			os.Exit(4)
		}
		exitOn(err)
		fmt.Printf("%s (%d hops)\n", val, hops)
	case "lookup":
		if len(args) != 2 {
			usage()
		}
		owner, hops, err := client.Lookup(h.Point(args[1]))
		exitOn(err)
		fmt.Printf("key %q -> point %v -> owner %s (%d hops)\n",
			args[1], h.Point(args[1]), owner, hops)
	case "trace":
		if len(args) != 2 {
			usage()
		}
		runTrace(client, h.Point, args[1])
	case "top":
		runTop(client, *scrapeTimeout)
	case "journal":
		runJournal(client, *scrapeTimeout)
	case "doctor":
		runDoctor(client, *scrapeTimeout)
	default:
		usage()
	}
}

// runTrace prints a traced lookup's actual per-hop path. Each node on the
// route reported the local duration of its whole subtree (itself plus
// everything downstream), so the latency attributed to hop i is the
// difference between node i's span and node i+1's — the RPC round trip
// plus node i's own routing work.
func runTrace(client *p2p.Client, hash func(string) interval.Point, key string) {
	tr, err := client.Trace(hash(key))
	exitOn(err)
	fmt.Printf("key %q -> point %v\n", key, hash(key))
	fmt.Printf("owner %s  hops %d  stale-repairs %d  ring-ver %d\n",
		tr.Owner, tr.Hops, tr.Stale, tr.RingVer)
	for i, hop := range tr.Path {
		var latency time.Duration
		if i+1 < len(tr.Path) {
			latency = time.Duration(hop.SubtreeNanos - tr.Path[i+1].SubtreeNanos)
		} else {
			latency = time.Duration(hop.SubtreeNanos) // the owner's serve time
		}
		role := "hop"
		switch {
		case i == 0 && i == len(tr.Path)-1:
			role = "entry+owner"
		case i == 0:
			role = "entry"
		case i == len(tr.Path)-1:
			role = "owner"
		}
		fmt.Printf("  %2d  %-11s %-21s point=%v stale-in=%d ring-ver=%d  %v\n",
			i, role, hop.Addr, hop.Point, hop.StaleIn, hop.RingVer, latency.Round(time.Microsecond))
	}
}

// statusDoc mirrors the admin plane's /statusz document.
type statusDoc struct {
	Node    p2p.NodeStatus     `json:"node"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// runTop walks the ring and renders one row per member from its scraped
// /statusz, then summarizes the load skew (max/mean routed messages —
// the live counterpart of the paper's congestion bound). A member whose
// admin endpoint is dead is skipped with a warning on stderr after the
// scrape timeout; the rest of the cluster still renders.
func runTop(client *p2p.Client, timeout time.Duration) {
	states, err := client.RingStates()
	exitOn(err)
	fmt.Printf("%-21s %-21s %-18s %7s %9s %8s %11s\n",
		"ADDR", "ADMIN", "POINT", "ITEMS", "ROUTED", "SERVED", "HOPS(mean)")
	var loads []float64
	httpc := &http.Client{Timeout: timeout}
	for _, st := range states {
		if st.AdminAddr == "" {
			fmt.Printf("%-21s %-21s %-18d %7s %9s %8s %11s\n",
				st.Addr, "(no -admin)", st.Point, "-", "-", "-", "-")
			continue
		}
		doc, err := scrapeStatus(httpc, st.AdminAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dhctl: warning: skipping %s: admin %s unreachable: %v\n",
				st.Addr, st.AdminAddr, err)
			fmt.Printf("%-21s %-21s %-18d %7s %9s %8s %11s\n",
				st.Addr, "(unreachable)", st.Point, "-", "-", "-", "-")
			continue
		}
		routed := doc.Metrics.Counters["condisc_p2p_msgs_routed_total"]
		served := doc.Metrics.Counters["condisc_p2p_owner_served_total"]
		hops := doc.Metrics.Histograms["condisc_p2p_lookup_hops"]
		fmt.Printf("%-21s %-21s %-18d %7d %9d %8d %11.2f\n",
			st.Addr, st.AdminAddr, st.Point, doc.Node.Items, routed, served, hops.Mean())
		loads = append(loads, float64(routed))
	}
	if len(loads) > 0 {
		var sum, max float64
		for _, l := range loads {
			sum += l
			if l > max {
				max = l
			}
		}
		mean := sum / float64(len(loads))
		skew := 0.0
		if mean > 0 {
			skew = max / mean
		}
		fmt.Printf("\nload: %d scraped nodes, routed max %.0f mean %.1f skew %.2fx\n",
			len(loads), max, mean, skew)
	}
}

func scrapeStatus(c *http.Client, adminAddr string) (statusDoc, error) {
	var doc statusDoc
	err := scrapeJSON(c, adminAddr, "/statusz", &doc)
	return doc, err
}

func scrapeJSON(c *http.Client, adminAddr, path string, into any) error {
	resp, err := c.Get("http://" + adminAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// runJournal merges every member's flight-recorder dump into one causal
// cluster timeline: ring-version order first (every ownership mutation
// bumps it), then epoch, node, and local sequence — deterministic
// without any cross-node clock.
func runJournal(client *p2p.Client, timeout time.Duration) {
	states, err := client.RingStates()
	exitOn(err)
	httpc := &http.Client{Timeout: timeout}
	var streams []journal.Stream
	for _, st := range states {
		if st.AdminAddr == "" {
			fmt.Fprintf(os.Stderr, "dhctl: warning: %s has no -admin; its records are absent from the timeline\n", st.Addr)
			continue
		}
		var stream journal.Stream
		if err := scrapeJSON(httpc, st.AdminAddr, "/journalz", &stream); err != nil {
			fmt.Fprintf(os.Stderr, "dhctl: warning: skipping %s: admin %s unreachable: %v\n",
				st.Addr, st.AdminAddr, err)
			continue
		}
		if stream.Addr == "" {
			stream.Addr = st.Addr
		}
		if stream.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "dhctl: note: %s overwrote %d older records (bounded ring)\n",
				st.Addr, stream.Dropped)
		}
		streams = append(streams, stream)
	}
	timeline := journal.Merge(streams)
	fmt.Printf("%8s %6s %-21s %-14s %20s %20s %8s\n",
		"RINGVER", "EPOCH", "NODE", "KIND", "A", "B", "C")
	for _, rec := range timeline {
		fmt.Printf("%8d %6d %-21s %-14s %20d %20d %8d\n",
			rec.RingVer, rec.Epoch, rec.Addr, rec.Kind, rec.A, rec.B, rec.C)
	}
	fmt.Printf("\n%d records from %d nodes\n", len(timeline), len(streams))
}

// runDoctor renders every member's local /doctorz verdicts, then
// recomputes the cluster-wide invariants this client can see globally:
// smoothness from the full ring decomposition, lookup-hop p99 from the
// merged per-node histograms, and routed-load skew from the per-node
// counters (Theorem 2.7). Exits 1 if anything is breached.
func runDoctor(client *p2p.Client, timeout time.Duration) {
	states, err := client.RingStates()
	exitOn(err)
	httpc := &http.Client{Timeout: timeout}
	breached := false

	fmt.Printf("%-21s %s\n", "NODE", "LOCAL VERDICT")
	var hops telemetry.HistogramSnapshot
	cs := doctor.ClusterStats{N: len(states), Delta: p2p.Delta}
	for _, st := range states {
		if st.AdminAddr == "" {
			fmt.Printf("%-21s (no -admin)\n", st.Addr)
			continue
		}
		var rep doctor.Report
		if err := scrapeJSON(httpc, st.AdminAddr, "/doctorz", &rep); err != nil {
			fmt.Fprintf(os.Stderr, "dhctl: warning: skipping %s: admin %s unreachable: %v\n",
				st.Addr, st.AdminAddr, err)
			fmt.Printf("%-21s (unreachable)\n", st.Addr)
			continue
		}
		if rep.Healthy {
			fmt.Printf("%-21s healthy\n", st.Addr)
		} else {
			breached = true
			fmt.Printf("%-21s BREACH: %s\n", st.Addr, strings.Join(rep.Breached(), ", "))
			for _, v := range rep.Verdicts {
				if !v.OK {
					fmt.Printf("%-21s   %s: value %.2f over limit %.2f (%s)\n",
						"", v.Invariant, v.Value, v.Limit, v.Bound)
				}
			}
		}
		doc, err := scrapeStatus(httpc, st.AdminAddr)
		if err != nil {
			continue
		}
		cs.Loads = append(cs.Loads, float64(doc.Metrics.Counters["condisc_p2p_msgs_routed_total"]))
		if deg := len(doc.Node.Back) + 2; deg > cs.MaxDeg {
			cs.MaxDeg = deg
		}
		hops = hops.Merge(doc.Metrics.Histograms["condisc_p2p_lookup_hops"])
	}

	// The decomposition's segment lengths fall out of the ring walk:
	// RingStates returns members in ring order, so each segment is the
	// gap to the next point (uint64 wraparound covers the last one).
	if len(states) > 1 {
		for i, st := range states {
			next := states[(i+1)%len(states)].Point
			cs.SegLens = append(cs.SegLens, next-st.Point)
		}
	}
	cs.HopP99 = hops.Quantile(0.99)

	rep := doctor.Diagnose(cs)
	fmt.Println("\ncluster invariants:")
	fmt.Print(doctor.Table(rep))
	if !rep.Healthy {
		breached = true
	}
	if breached {
		fmt.Println("\nverdict: DEGRADED")
		os.Exit(1)
	}
	fmt.Println("\nverdict: healthy — all paper bounds hold")
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dhctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dhctl -node ADDR -seed N {put KEY VALUE | get KEY | lookup KEY | trace KEY | top | journal | doctor}")
	os.Exit(2)
}
