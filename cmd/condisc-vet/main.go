// Command condisc-vet runs this repository's five project-specific
// invariant analyzers (see README "Static analysis & invariants"):
//
//	segarith   — no raw arithmetic on interval lengths outside the
//	             ceiling-division primitives (sub-ulp full-circle alias)
//	epochpub   — published epoch snapshots are immutable: no Snapshot
//	             field writes outside package partition
//	fsyncack   — no acknowledgement over an unsynced framed WAL record
//	detpath    — no wall clock / global rand / map-order leaks in the
//	             packages that feed the pinned state digests
//	telemetryhot — //condisc:hot telemetry record functions may not
//	             allocate, lock, or touch maps (read-path overhead
//	             contract), and the record entry points must be marked
//
// It runs under go vet:
//
//	go build -o condisc-vet ./cmd/condisc-vet
//	go vet -vettool=$PWD/condisc-vet ./...
//
// It speaks enough of cmd/go's unit-checker protocol (-V=full, -flags,
// then one JSON cfg file per package) for that; diagnostics go to stderr
// and the exit status is 2, matching x/tools' unitchecker convention.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"condisc/internal/analysis"
	"condisc/internal/analysis/detpath"
	"condisc/internal/analysis/epochpub"
	"condisc/internal/analysis/fsyncack"
	"condisc/internal/analysis/load"
	"condisc/internal/analysis/segarith"
	"condisc/internal/analysis/telemetryhot"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		segarith.Analyzer,
		epochpub.Analyzer,
		fsyncack.Analyzer,
		detpath.Analyzer,
		telemetryhot.Analyzer,
	}
}

func main() {
	// cmd/go probes the tool's identity before trusting its results.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("condisc-vet version 1\n")
		return
	}
	// cmd/go asks for the tool's flag set (as a JSON array) so it can
	// pass analyzer flags through; the suite defines none.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(runVetTool(os.Args[1]))
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which condisc-vet) <packages>")
	os.Exit(1)
}

// vetConfig is the JSON unit-check configuration cmd/go hands a
// -vettool for each package (the fields condisc-vet needs; unknown
// fields are ignored).
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetTool(cfgPath string) int {
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "condisc-vet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "condisc-vet: parse %s: %v\n", cfgPath, err)
		return 1
	}
	// The suite carries no cross-package facts, but cmd/go requires the
	// facts file to exist before it trusts the run.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("condisc-vet.facts.v1\n"), 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "condisc-vet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	src, err := load.Parse(cfg.GoFiles)
	if err == nil {
		err = src.Check(cfg.ImportPath, func(path string) string {
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			return cfg.PackageFile[path]
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "condisc-vet:", err)
		return typecheckFailExit(cfg)
	}
	diags, err := analysis.RunAnalyzers(analyzers(), src.Fset, src.Files, src.Pkg, src.Info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "condisc-vet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func typecheckFailExit(cfg vetConfig) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	return 1
}
