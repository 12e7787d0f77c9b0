// Command benchmark is the repository's benchmark: four workloads — three
// on an in-process cluster of real TCP nodes on loopback, one on the
// simulator — each reporting the same named end-to-end metrics, plus a
// traced run that reports per-layer metrics and writes a span file.
//
// It drives the code under test only through exported functions and times
// those calls from outside; nothing inside the program is instrumented.
// README.md has the metric tables and the reasoning behind each workload.
//
//	bash benchmark/run.sh -workload live_get -seed 7            # one untraced run
//	bash benchmark/run.sh -workload live_get -seed 7 -trace 1   # traced run + benchmark/out/live_get.trace.json
//	bash benchmark/run.sh                                       # every workload, untraced then traced
//	bash benchmark/run.sh -aa                                   # every workload twice, A/A spread against the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// runSeconds is the measured window of one run, the run_seconds of
// BENCHMARK.json: half solo (one client), half full (two clients); the
// warm-up before it is a tenth of it. The issue asked for 3 s + 30 s; the
// driver's budget (92 runs and two builds in 3420 s) allows about two
// thirds of that, and every window was shortened by the same factor.
const runSeconds = 20

// scale sizes a run; -smoke swaps in a configuration small enough for the
// package's tests.
type scale struct {
	nodes      int // base ring size
	getKeys    int // keys of the read workloads and the simulator
	putKeys    int // keys of live_put_k3
	simServers int
	setups     int // set-ups per run; setup_s is their median
	probeOps   int // base iteration count of the layer probes
	readBack   int // keys read back through Client.Get after the window
	churnBurst int // joins, then leaves, per schedule cycle
}

var (
	fullScale  = scale{nodes: 32, getKeys: 20_000, putKeys: 5_000, simServers: 100_000, setups: 3, probeOps: 2000, readBack: 3000, churnBurst: 8}
	smokeScale = scale{nodes: 8, getKeys: 2_000, putKeys: 500, simServers: 2_000, setups: 1, probeOps: 100, readBack: 500, churnBurst: 2}
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool // the small configuration of the package's tests
	outDir   string
	sc       scale
}

// runWorkload runs cfg.workload once.
func runWorkload(cfg config) (*report, error) {
	switch cfg.workload {
	case "live_get":
		return runLive(cfg, liveSpec{name: cfg.workload, keys: cfg.sc.getKeys, valSize: 128})
	case "live_put_k3":
		return runLive(cfg, liveSpec{name: cfg.workload, keys: cfg.sc.putKeys, valSize: 4096, put: true})
	case "live_churn":
		return runLive(cfg, liveSpec{name: cfg.workload, keys: cfg.sc.getKeys, valSize: 1024, churn: true})
	case "sim_read":
		return runSim(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// environment describes where the numbers were taken.
func environment(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "seed": cfg.seed,
		"warmup_s": cfg.seconds / 10, "solo_s": cfg.seconds / 2, "full_s": cfg.seconds / 2,
		"conditions": "loopback, in-process cluster, fsync off",
	}
}

// writeTrace writes the run's spans to <out>/<workload>.trace.json.
func (h *harness) writeTrace(rep *report) error {
	header := environment(h.cfg)
	header["workload"] = rep.workload
	path := filepath.Join(h.cfg.outDir, rep.workload+".trace.json")
	if err := h.rec.write(path, header); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

// runAll runs every named workload untraced and then traced, printing
// every metric by name.
func runAll(cfg config, names []string) (bool, error) {
	ok := true
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.workload, c.trace = name, traced
			rep, err := runWorkload(c)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			rep.printLines(os.Stdout)
			ok = ok && rep.correct()
		}
	}
	return ok, nil
}

func main() {
	var cfg config
	var trace int
	var aa bool
	flag.StringVar(&cfg.workload, "workload", "all", "live_get, live_put_k3, live_churn, sim_read, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs: keys, values, entry choices, churn schedule")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run — per-layer metrics and a span file; 0: untraced run — end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for span files and scratch data")
	flag.BoolVar(&cfg.smoke, "smoke", false, "small configuration (8 nodes, 1 s) that exercises every workload")
	flag.BoolVar(&aa, "aa", false, "run each workload twice on the same seed and compare against the bounds")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.sc = fullScale
	if cfg.smoke {
		cfg.sc = smokeScale
		seconds := false
		flag.Visit(func(f *flag.Flag) { seconds = seconds || f.Name == "seconds" })
		if !seconds {
			cfg.seconds = 1
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	ok, err := true, error(nil)
	switch {
	case aa:
		ok, err = runAA(cfg, names)
	case cfg.workload != "all":
		// The driver's form: one run, its result as the last line.
		var rep *report
		if rep, err = runWorkload(cfg); err == nil {
			rep.printLines(os.Stdout)
			fmt.Println(rep.resultLine())
			ok = rep.correct()
		}
	default:
		ok, err = runAll(cfg, names)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
