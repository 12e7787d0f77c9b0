// Command condisc-bench regenerates every table and figure of the paper at
// configurable scale, printing paper-style tables (and optionally CSV).
//
// Usage:
//
//	condisc-bench [-seed N] [-scale K] [-csv] [-only E1,E22]
//
// Scale divides the default problem sizes: -scale 1 is paper scale
// (n up to 16384; a few minutes), -scale 8 is a quick smoke run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"condisc/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", 42, "PRNG seed (experiments are deterministic per seed)")
	scale := flag.Int("scale", 2, "problem-size divisor (1 = paper scale)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E1,E22)")
	figures := flag.Bool("figures", false, "render ASCII versions of the paper's figures and exit")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale}
	if *figures {
		fmt.Print(experiments.Figures(cfg))
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	start := time.Now()
	count := 0
	for _, e := range experiments.Index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		count++
		r := e.Run(cfg)
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		if *csv {
			fmt.Print(r.Table.CSV())
		} else {
			fmt.Print(r.Table.String())
		}
		for _, n := range r.Notes {
			fmt.Printf("   note: %s\n", n)
		}
		fmt.Println()
	}
	if count == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched -only filter")
		os.Exit(1)
	}
	fmt.Printf("ran %d experiments in %s (seed=%d scale=%d)\n",
		count, time.Since(start).Round(time.Millisecond), *seed, *scale)
}
