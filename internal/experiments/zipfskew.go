package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"condisc/internal/admin"
	"condisc/internal/metrics"
	"condisc/internal/p2p"
	"condisc/internal/telemetry"
	"condisc/internal/workload"
)

// ZipfLoadSkew (E32) measures per-node load skew on a LIVE cluster under
// a Zipf-skewed lookup workload, reading the load entirely from scraped
// telemetry: every node runs its own registry and admin HTTP endpoint,
// the admin addresses are discovered by walking the ring (the dhctl top
// path), and the per-node routed-message counts come from each node's
// /statusz — the experiment exercises the whole observability stack
// end-to-end rather than any in-process accounting.
//
// The reference line is the paper's congestion bound for random lookups
// (Theorem 2.7): max per-node load is O(log n / n) of the total, i.e.
// max/mean skew O(log n). Uniform and mildly skewed workloads should sit
// at or under ~log2(n); a strongly skewed workload (s ≥ 1) concentrates
// demand on few hash points and is the regime the §3 caching protocol
// exists for.
func ZipfLoadSkew(cfg Config) Result {
	var rows []zipfRow
	for _, s := range []float64{0.2, 0.8, 1.4} {
		rows = append(rows, zipfRun(cfg, s))
	}
	t := metrics.NewTable("zipf s", "requests", "routed max", "routed mean", "skew", "log2(n)", "hops mean")
	notes := []string{
		"load read from each node's scraped /statusz (condisc_p2p_msgs_routed_total), not in-process state;",
		"log2(n) column = the Theorem 2.7 congestion skew reference for random lookups;",
		"s>=1 concentrates demand on few hash points — the hot-spot regime the §3 caching protocol targets.",
	}
	for _, r := range rows {
		t.AddRow(r.s, r.requests, fmt.Sprintf("%.0f", r.maxL), fmt.Sprintf("%.1f", r.meanL),
			fmt.Sprintf("%.2f", r.skew), fmt.Sprintf("%.2f", r.bound), fmt.Sprintf("%.2f", r.hopsMean))
	}
	return Result{Table: t,
		Notes: notes}
}

type zipfRow struct {
	s               float64
	maxL, meanL     float64
	skew, bound     float64
	hopsMean        float64
	nodes, requests int
}

// zipfRun drives one sweep point on a fresh live cluster.
func zipfRun(cfg Config, s float64) (r zipfRow) {
	const nodes = 8
	const items = 64
	requests := cfg.size(480)
	seed := cfg.Seed + uint64(s*1000)

	// One registry and one admin endpoint per node: the whole point is
	// that per-node load stays observable from outside the process.
	c, err := p2p.StartCluster(1, seed, p2p.WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		panic(fmt.Sprintf("E32: cluster: %v", err))
	}
	defer c.Stop()
	for i := 1; i < nodes; i++ {
		if _, err := c.JoinWith(p2p.WithTelemetry(telemetry.NewRegistry())); err != nil {
			panic(fmt.Sprintf("E32: join %d: %v", i, err))
		}
	}
	if err := c.StabilizeAll(2); err != nil {
		panic(fmt.Sprintf("E32: stabilize: %v", err))
	}
	var admins []*admin.Server
	defer func() {
		for _, a := range admins {
			a.Close()
		}
	}()
	for _, n := range c.Nodes {
		srv, err := admin.Serve("127.0.0.1:0", admin.Handler(n.Telemetry(),
			func() any { return n.Status() }))
		if err != nil {
			panic(fmt.Sprintf("E32: admin: %v", err))
		}
		admins = append(admins, srv)
		n.SetAdminAddr(srv.Addr)
	}

	cl := c.Client(0)
	cl.Tel = telemetry.NewRegistry()
	baseline := scrapeRouted(cl)

	rng := cfg.rng(seed)
	hash := c.Hash()
	for _, req := range workload.Batch(len(c.Nodes), requests, items, s, rng) {
		probe := c.Client(req.Src)
		probe.Tel = cl.Tel
		_, _, _ = probe.Lookup(hash(req.Item))
	}

	after := scrapeRouted(cl)
	var sum, max float64
	count := 0
	for addr, l := range after {
		d := float64(l - baseline[addr])
		sum += d
		if d > max {
			max = d
		}
		count++
	}
	mean := sum / float64(count)
	r.s, r.nodes, r.requests = s, count, requests
	r.maxL, r.meanL = max, mean
	if mean > 0 {
		r.skew = max / mean
	}
	r.bound = math.Log2(float64(count))
	hops := cl.Tel.Snapshot().Histograms["condisc_client_lookup_hops"]
	r.hopsMean = hops.Mean()
	return r
}

// scrapeRouted walks the ring from the client's bootstrap and returns
// each member's routed-message counter as read from its admin /statusz.
func scrapeRouted(cl *p2p.Client) map[string]int64 {
	states, err := cl.RingStates()
	if err != nil {
		panic(fmt.Sprintf("E32: ring walk: %v", err))
	}
	httpc := &http.Client{Timeout: 3 * time.Second}
	out := make(map[string]int64, len(states))
	for _, st := range states {
		if st.AdminAddr == "" {
			panic(fmt.Sprintf("E32: node %s advertises no admin address", st.Addr))
		}
		resp, err := httpc.Get("http://" + st.AdminAddr + "/statusz")
		if err != nil {
			panic(fmt.Sprintf("E32: scrape %s: %v", st.AdminAddr, err))
		}
		var doc struct {
			Metrics telemetry.Snapshot `json:"metrics"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			panic(fmt.Sprintf("E32: decode %s: %v", st.AdminAddr, err))
		}
		out[st.Addr] = doc.Metrics.Counters["condisc_p2p_msgs_routed_total"]
	}
	return out
}
