package experiments

import (
	"fmt"
	"strings"

	"condisc/internal/interval"
	"condisc/internal/metrics"
	"condisc/internal/p2p"
	"condisc/internal/telemetry"
)

// StalenessVsStabilization (E31) measures the routing-table staleness a
// real TCP cluster accumulates under churn as the stabilization period
// stretches — the open tradeoff ROADMAP carried since the incremental
// patch machinery landed. Ring pointers are maintained synchronously, so
// a lookup always terminates at the true owner; staleness instead shows
// up as (a) lookups that hit a dead backward-table entry and had to be
// repaired by a ring-hop fallback (the "stale-route rate": the fraction
// of lookups that would have been routed to a wrong — departed — owner
// without the fallback) and (b) hop inflation while joiners are missing
// from the tables. The sweep runs with the incremental join/leave
// patches disabled, so table repair is a pure function of how many churn
// events pass between stabilization rounds; the patches-on arm is the
// baseline showing the incremental announcements erase the tradeoff.
func StalenessVsStabilization(cfg Config) Result {
	type row struct {
		every   int
		patches string
		rate    float64
		avgHops float64
		maxHops int
	}
	var rows []row
	for _, S := range []int{1, 2, 4, 8} {
		rate, avg, maxh := stalenessRun(cfg, S, false)
		rows = append(rows, row{S, "off", rate, avg, maxh})
	}
	// Baseline arm: patches on at the longest period — the incremental
	// announcements repair tables in milliseconds, so the period barely
	// matters.
	rate, avg, maxh := stalenessRun(cfg, 8, true)
	rows = append(rows, row{8, "on", rate, avg, maxh})

	t := metrics.NewTable("stabilize every", "patches", "stale-route rate", "avg hops", "max hops")
	notes := []string{
		"stale-route rate = lookups hitting ≥1 dead table entry (misrouted without the ring fallback);",
		"patches off: staleness grows with the stabilization period; patches on: flat — repair is event-driven.",
		"figure: stale-route rate vs stabilization period (events/round)",
	}
	for _, r := range rows {
		t.AddRow(r.every, r.patches, r.rate, r.avgHops, r.maxHops)
		bar := strings.Repeat("█", int(r.rate*40+0.5))
		notes = append(notes, fmt.Sprintf("  S=%d %-3s |%-40s| %.3f", r.every, r.patches, bar, r.rate))
	}
	return Result{Table: t,
		Notes: notes}
}

// stalenessRun drives one sweep point: a live loopback cluster churning
// (alternating join/leave) with a stabilization pass every S events,
// probed by lookups between events.
//
// The tallying is the client telemetry itself: every probe goes through a
// Client pointed at a registry private to this sweep point, and the rates
// are read off one snapshot at the end — the same counters /metrics
// exposes, so the experiment measures exactly what an operator would see,
// with no parallel hand-rolled accounting to drift out of sync.
func stalenessRun(cfg Config, S int, patches bool) (staleRate, avgHops float64, maxHops int) {
	const (
		nodes           = 10
		events          = 20
		lookupsPerEvent = 6
	)
	seed := cfg.Seed + uint64(S)*1000
	if patches {
		seed += 7
	}
	var opts []p2p.NodeOption
	if !patches {
		opts = append(opts, p2p.WithoutPatches())
	}
	c, err := p2p.StartCluster(nodes, seed, opts...)
	if err != nil {
		panic(fmt.Sprintf("E31: cluster: %v", err))
	}
	defer c.Stop()
	rng := cfg.rng(seed)
	reg := telemetry.NewRegistry()

	for e := 0; e < events; e++ {
		if e%2 == 0 {
			if _, err := c.Join(); err != nil {
				panic(fmt.Sprintf("E31: join: %v", err))
			}
		} else {
			if err := c.LeaveAt(1 + rng.IntN(len(c.Nodes)-1)); err != nil {
				panic(fmt.Sprintf("E31: leave: %v", err))
			}
		}
		for k := 0; k < lookupsPerEvent; k++ {
			cl := c.Client(rng.IntN(len(c.Nodes)))
			cl.Tel = reg
			// A transient refusal mid-churn lands in the error counter; the
			// rate below folds it into the stale side — without the ring
			// fallback the lookup went nowhere useful.
			_, _, _, _ = cl.LookupStats(interval.Point(rng.Uint64()))
		}
		if (e+1)%S == 0 {
			if err := c.StabilizeAll(1); err != nil {
				panic(fmt.Sprintf("E31: stabilize: %v", err))
			}
		}
	}

	snap := reg.Snapshot()
	count := snap.Counters["condisc_client_lookups_total"]
	stale := snap.Counters["condisc_client_stale_lookups_total"] +
		snap.Counters["condisc_client_lookup_errors_total"]
	hops := snap.Histograms["condisc_client_lookup_hops"]
	return float64(stale) / float64(count), float64(hops.Sum) / float64(count), int(hops.Max)
}
