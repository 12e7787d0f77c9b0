package main

import (
	"bytes"
	"time"

	"condisc"
	"condisc/internal/telemetry"
)

// simDriver reads a uniform key from a uniform source server of the
// simulated DHT: the same lookup walk the live nodes run, with no sockets.
type simDriver struct {
	d  *condisc.DHT
	in *inputs
	n  int
}

func (s *simDriver) pick(c *client) { c.key, c.entry = c.rng.IntN(len(s.in.keys)), c.rng.IntN(s.n) }

func (s *simDriver) try(c *client) (int, error) {
	val, hops, ok := s.d.Get(c.entry, s.in.keys[c.key])
	if !ok {
		return 0, errSimMiss
	}
	fillValue(c.scratch, s.in.seed, c.key, 0)
	if !bytes.Equal(val, c.scratch) {
		return hops, errWrongBytes
	}
	return hops, nil
}

func (s *simDriver) done(*client, bool)          {}
func (s *simDriver) trace(*client, *lane, int64) {}

// buildSim builds the simulator and writes every key through DHT.Put.
func buildSim(servers int, in *inputs) *condisc.DHT {
	d := condisc.New(servers, condisc.Options{Seed: in.seed, CacheThreshold: -1, Telemetry: telemetry.NewRegistry()})
	val := make([]byte, in.valSize)
	src := in.stream(streamSetup)
	for k, key := range in.keys {
		fillValue(val, in.seed, k, 0)
		d.Put(src.IntN(servers), key, val)
	}
	return d
}

func runSim(cfg config) (*report, error) {
	h := newHarness(cfg)
	rep := newReport(cfg)
	in := newInputs(cfg.seed, cfg.sc.getKeys, 128)

	var d *condisc.DHT
	var setups []float64
	for i := 0; i < cfg.sc.setups; i++ {
		if d != nil {
			d.Close()
		}
		t0 := time.Now()
		d = buildSim(cfg.sc.simServers, in)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.Close()
	rep.set("setup_s", median(setups))

	window := time.Duration(cfg.seconds * float64(time.Second))
	capHint := int(cfg.seconds * 40000)
	clients := []*client{h.newClient(0, in, capHint), h.newClient(1, in, capHint)}
	drv := &simDriver{d: d, in: in, n: cfg.sc.simServers}
	w := h.measure(drv, clients, window/10, window/2, window/2, func() {}, func() {}, nil)
	w.endToEndMetrics(rep)

	// Correctness gate: every key read back once more, from server 0.
	scratch := make([]byte, in.valSize)
	for k, key := range in.keys {
		fillValue(scratch, in.seed, k, 0)
		if val, _, ok := d.Get(0, key); !ok || !bytes.Equal(val, scratch) {
			rep.mismatches++
		}
	}
	if err := h.finish(rep, in, cfg.outDir, false); err != nil {
		return nil, err
	}
	return rep, nil
}
