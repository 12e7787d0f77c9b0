package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"condisc/internal/interval"
	"condisc/internal/metrics"
	"condisc/internal/p2p"
	"condisc/internal/replicate"
	"condisc/internal/telemetry"
)

// CrashFaultTolerance (E34) kills ⌈n/10⌉ nodes of a live TCP cluster
// with no warning — no Leave, no handoff, sockets just gone — and
// measures what k-successor replication buys: with k=1 (the pre-crash-
// tolerance baseline) every key owned by a corpse is gone forever; with
// k=3 the failure detectors absorb the dead ranges, the repair loop
// re-materializes them from replicas, and zero acknowledged writes are
// lost. The availability column is measured mid-outage (before any
// stabilization pass), where replica-fallback reads already serve part
// of the dead ranges; the loss column is measured after repair, through
// the normal read path only.
//
// The kill set is drawn with no two victims ring-adjacent, so every
// corpse's predecessor survives to absorb it. That spacing is not a
// favor to replication — it is the regime the paper's fault model
// addresses (f independent failures, not a targeted wipe of one key's
// entire replica set; k=1 still loses everything a corpse owned).
func CrashFaultTolerance(cfg Config) Result {
	t := metrics.NewTable("k", "nodes", "killed", "acked writes",
		"avail mid-outage", "lost after repair", "crash absorbs", "items repaired")
	notes := []string{
		"kill = close the TCP listener and all state, mid-operation — the ungraceful half of §2.1;",
		"avail mid-outage = fraction of acked keys readable before any stabilization (replica fallback only);",
		"lost after repair = acked keys unreadable after the survivors' stabilize/absorb/repair rounds converge.",
	}
	for _, k := range []int{1, 3} {
		r := crashRun(cfg, k)
		t.AddRow(k, r.n, r.killed, r.acked,
			fmt.Sprintf("%.3f", r.avail), r.lost, r.absorbs, r.repaired)
		notes = append(notes, fmt.Sprintf(
			"  k=%d: %d/%d acked keys survived the crash of %d nodes",
			k, r.acked-r.lost, r.acked, r.killed))
	}
	return Result{Table: t, Notes: notes}
}

type crashStats struct {
	n, killed, acked, lost int
	avail                  float64
	absorbs, repaired      int64
}

func crashRun(cfg Config, k int) crashStats {
	n := cfg.size(64)
	if n < 16 {
		n = 16
	}
	f := (n + 9) / 10
	keys := 5 * n
	reg := telemetry.NewRegistry()
	opts := []p2p.NodeOption{
		p2p.WithRPCTimeout(250 * time.Millisecond),
		p2p.WithTelemetry(reg),
	}
	if k > 1 {
		opts = append(opts, p2p.WithReplication(replicate.Policy{K: k}))
	}
	c, err := p2p.StartCluster(n, cfg.Seed+uint64(k), opts...)
	if err != nil {
		panic(fmt.Sprintf("E34: start cluster: %v", err))
	}
	defer c.Stop()
	h := c.Hash()

	st := crashStats{n: n, killed: f}
	for i := 0; i < keys; i++ {
		if _, err := c.Client(i%n).Put(key34(i), []byte("v-"+key34(i)), h); err == nil {
			st.acked++
		}
	}

	victims := pickSpacedVictims(c.Nodes, f, cfg.rng(34+uint64(k)))
	dead := make(map[string]bool, f)
	for _, v := range victims {
		dead[v.Addr()] = true
		v.Close()
	}
	survivors := make([]*p2p.Node, 0, n-f)
	for _, node := range c.Nodes {
		if !dead[node.Addr()] {
			survivors = append(survivors, node)
		}
	}

	// Mid-outage availability: one read attempt per key from each of a few
	// survivor entry points (a client retrying elsewhere), before any
	// stabilization pass — the only help available is the replica fallback.
	available := 0
	for i := 0; i < keys; i++ {
		if getViaAny(survivors, key34(i), h, 3) {
			available++
		}
	}
	if st.acked > 0 {
		st.avail = float64(available) / float64(st.acked)
	}

	// Survivors converge on their own (the dead nodes obviously don't):
	// enough rounds for the detectors to trip (3 misses), the absorbs to
	// cascade, chains to refresh, and the repair pulls to drain.
	for round := 0; round < 10; round++ {
		for _, node := range survivors {
			_ = node.Stabilize()
		}
	}

	for i := 0; i < keys; i++ {
		if !getViaAny(survivors, key34(i), h, 3) {
			st.lost++
		}
	}
	st.absorbs = reg.Counter("condisc_p2p_crash_absorbs_total").Value()
	st.repaired = reg.Counter("condisc_p2p_repair_items_total").Value()

	// The k>=2 arm is the experiment's claim: it must not lose a byte.
	if k > 1 && st.lost > 0 {
		panic(fmt.Sprintf("E34: k=%d lost %d acked writes after repair", k, st.lost))
	}
	c.Nodes = survivors // Stop() must not re-close the victims
	return st
}

// CrashAvailabilityK3 runs E34's k=3 arm alone and returns its scalar
// outcomes — mid-outage availability, acked writes lost after repair,
// and total acked writes — for bench_test's custom-metric reporting.
func CrashAvailabilityK3(cfg Config) (avail float64, lost, acked int) {
	r := crashRun(cfg, 3)
	return r.avail, r.lost, r.acked
}

func key34(i int) string { return fmt.Sprintf("e34-key-%d", i) }

// getViaAny tries a Get through up to tries distinct survivor entry
// points, returning whether any attempt served the key.
func getViaAny(survivors []*p2p.Node, key string, h func(string) interval.Point, tries int) bool {
	for a := 0; a < tries && a < len(survivors); a++ {
		entry := survivors[a*len(survivors)/tries]
		if _, _, err := (&p2p.Client{Bootstrap: entry.Addr()}).Get(key, h); err == nil {
			return true
		}
	}
	return false
}

// pickSpacedVictims draws f victims, seeded, such that no two are
// ring-adjacent (every corpse's predecessor must survive to absorb it).
func pickSpacedVictims(nodes []*p2p.Node, f int, rng *rand.Rand) []*p2p.Node {
	byPoint := append([]*p2p.Node(nil), nodes...)
	sort.Slice(byPoint, func(i, j int) bool { return byPoint[i].Point() < byPoint[j].Point() })
	n := len(byPoint)
	order := rng.Perm(n)
	taken := make(map[int]bool, f)
	victims := make([]*p2p.Node, 0, f)
	for _, i := range order {
		if len(victims) == f {
			break
		}
		if taken[(i+1)%n] || taken[(i-1+n)%n] || taken[i] {
			continue
		}
		taken[i] = true
		victims = append(victims, byPoint[i])
	}
	return victims
}
