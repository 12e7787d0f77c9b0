package experiments

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"condisc/internal/erasure"
	"condisc/internal/handoff"
	"condisc/internal/hashing"
	"condisc/internal/interval"
	"condisc/internal/metrics"
	"condisc/internal/overlap"
	"condisc/internal/store"
)

// ErasureVsReplication reproduces the storage extension of §6.2: the covers
// of a data item form a clique, so instead of replicating the item at
// every cover it can be erasure-coded across them — "the data stored by
// any small subset of the servers suffices to reconstruct the data item",
// and per Weatherspoon & Kubiatowicz coding beats replication at equal
// storage. We compare, at identical 3× storage overhead, 3-way replication
// vs a Reed–Solomon (4, 12) code spread over an item's covers, measuring
// item availability under random fail-stop faults.
func ErasureVsReplication(cfg Config) Result {
	n := cfg.size(4096)
	rng := cfg.rng(70)
	o := overlap.Build(n, 1, rng)
	h := hashing.NewKWise(8, rng)
	code, err := erasure.NewCode(4, 12)
	if err != nil {
		panic(err)
	}

	const items = 300
	type placement struct {
		covers []int
		shards [][]byte
		data   []byte
	}
	places := make([]placement, items)
	for i := range places {
		data := []byte(fmt.Sprintf("item-%d-payload-%d", i, rng.Uint64()))
		covers := o.Covers(h.PointUint(uint64(i)))
		places[i] = placement{covers: covers, shards: code.Encode(data), data: data}
	}

	t := metrics.NewTable("p fail", "replication x3 avail", "RS(4,12) avail",
		"RS decode verified", "overhead both")
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		o.FailRandom(p, rng)
		repOK, rsOK, decodeOK, decodeTried := 0, 0, 0, 0
		for _, pl := range places {
			// Replication: full copies at the first 3 covers.
			repCopies := min(len(pl.covers), 3)
			repAlive := 0
			for _, c := range pl.covers[:repCopies] {
				if o.Alive(c) {
					repAlive++
				}
			}
			if repAlive >= 1 {
				repOK++
			}
			// Erasure: 12 fragments across the covers (wrapping if fewer).
			m := len(pl.shards)
			got := make([][]byte, m)
			have := 0
			for s := 0; s < m; s++ {
				holder := pl.covers[s%len(pl.covers)]
				if o.Alive(holder) && got[s] == nil {
					got[s] = pl.shards[s]
					have++
				}
			}
			if have >= code.K {
				rsOK++
				if decodeTried < 20 { // end-to-end decode spot check
					decodeTried++
					if dec, err := code.Decode(got); err == nil && bytes.Equal(dec, pl.data) {
						decodeOK++
					}
				}
			}
		}
		t.AddRow(p, float64(repOK)/items, float64(rsOK)/items,
			fmt.Sprintf("%d/%d", decodeOK, decodeTried), code.Overhead())
	}
	return Result{Table: t,
		Notes: []string{
			"equal 3× storage: RS(4,12) tolerates any 8 of 12 holders failing;",
			"3-way replication dies once its 3 holders fail — coding dominates at every p.",
		}}
}

// StoreEngines measures the ordered item-store layer (internal/store)
// behind the §2.1 item migration: put/get cost for both engines and, the
// property that motivates the layer, the cost of moving a fixed 256-item
// range out of stores of growing resident population — by handoff.Move
// into a fresh store of the same engine, the cursor → put → DeleteRange
// route every join and leave takes. With items ordered by hash point that
// is a range move — O(log S + moved) — so the "split µs" column stays flat
// as "resident" grows 8×; the seed's flat map paid O(resident) here.
func StoreEngines(cfg Config) Result {
	const (
		moved    = 256
		valBytes = 64
	)
	t := metrics.NewTable("engine", "resident", "put µs/op", "get µs/op", "split µs", "moved")
	val := bytes.Repeat([]byte("x"), valBytes)
	for _, engine := range []string{"mem", "log"} {
		open := func() store.Store {
			if engine == "mem" {
				return store.NewMem()
			}
			dir, err := os.MkdirTemp("", "condisc-e30-*")
			if err != nil {
				panic(err)
			}
			s, err := store.OpenLog(dir, store.LogOptions{})
			if err != nil {
				panic(err)
			}
			return s
		}
		for _, resident := range []int{cfg.size(16384), cfg.size(131072)} {
			s := open()
			step := ^uint64(0)/uint64(resident) + 1
			start := time.Now()
			for i := 0; i < resident; i++ {
				if err := s.Put(interval.Point(uint64(i)*step), fmt.Sprintf("k%09d", i), val); err != nil {
					panic(err)
				}
			}
			putUS := float64(time.Since(start).Microseconds()) / float64(resident)

			gets := min(resident, 4096)
			start = time.Now()
			for i := 0; i < gets; i++ {
				j := (i * 7919) % resident
				if _, ok, err := s.Get(interval.Point(uint64(j)*step), fmt.Sprintf("k%09d", j)); !ok || err != nil {
					panic(fmt.Sprintf("miss at %d: %v", j, err))
				}
			}
			getUS := float64(time.Since(start).Microseconds()) / float64(gets)

			// Move a fixed moved-count range out of the middle, several
			// times, merging back untimed. Clamp the range to half the
			// store: at extreme -scale values resident can drop below
			// `moved`, and moved*step would overflow uint64 — wrapping to
			// Len 0, the full-circle convention.
			mv := uint64(moved)
			if mv > uint64(resident)/2 {
				mv = uint64(resident) / 2
			}
			seg := interval.Segment{Start: interval.Point(uint64(resident/2) * step), Len: mv * step}
			const rounds = 20
			var moveTotal time.Duration
			movedN := 0
			for r := 0; r < rounds; r++ {
				dst := open()
				start = time.Now()
				n, err := handoff.Move(s, dst, seg)
				moveTotal += time.Since(start)
				if err != nil {
					panic(err)
				}
				movedN = n
				if err := s.MergeFrom(dst); err != nil {
					panic(err)
				}
				if err := store.Destroy(dst); err != nil {
					panic(err)
				}
			}
			t.AddRow(engine, resident, putUS, getUS,
				float64(moveTotal.Microseconds())/rounds, movedN)
			if err := store.Destroy(s); err != nil {
				panic(err)
			}
		}
	}
	return Result{Table: t,
		Notes: []string{
			"split µs = handoff.Move of the range into a fresh store of the same engine (the route churn takes),",
			"flat as resident grows 8×: migration cost is O(log S + moved), not O(resident);",
			"log engine = append-only WAL + ordered index; put pays one WAL append, get one pread.",
		}}
}
