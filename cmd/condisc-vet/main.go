// Command condisc-vet runs this repository's six project-specific
// invariant analyzers (see README "Static analysis & invariants"):
//
//	segarith   — no raw arithmetic on interval lengths outside the
//	             ceiling-division primitives (sub-ulp full-circle alias)
//	epochpub   — epoch-published state changes only at sanctioned publish
//	             points (only Build publishes in dhgraph, immutable snapshots,
//	             boundary moves only through setEndSuccLocked)
//	fsyncack   — no acknowledgement over an unsynced framed WAL record
//	detpath    — no wall clock / global rand / map-order leaks in the
//	             churntest determinism-contract packages
//	handlekey  — no churn-unstable ring indices in long-lived keys
//	telemetryhot — //condisc:hot telemetry record functions may not
//	             allocate, lock, or touch maps (read-path overhead
//	             contract), and the record entry points must be marked
//
// Two invocation modes:
//
//	condisc-vet ./...                           # standalone, whole tree
//	go vet -vettool=$(which condisc-vet) ./...  # unit-checker protocol
//
// Standalone mode loads packages itself (go list -export + go/types)
// and exits 1 if any diagnostics were reported. The vettool mode speaks
// enough of cmd/go's unit-checker protocol (-V=full, then one JSON cfg
// file per package) to run under `go vet`; diagnostics go to stderr and
// the exit status is 2, matching x/tools' unitchecker convention.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"condisc/internal/analysis"
	"condisc/internal/analysis/detpath"
	"condisc/internal/analysis/epochpub"
	"condisc/internal/analysis/fsyncack"
	"condisc/internal/analysis/handlekey"
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
		handlekey.Analyzer,
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
	listOnly := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: condisc-vet [-list] [package patterns]\n   or: go vet -vettool=$(which condisc-vet) <patterns>\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *listOnly {
		for _, az := range analyzers() {
			fmt.Printf("%-11s %s\n", az.Name, az.Doc)
		}
		return
	}
	os.Exit(runStandalone(flag.Args()))
}

func runStandalone(patterns []string) int {
	root, err := load.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "condisc-vet:", err)
		return 1
	}
	loader, err := load.New(root, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "condisc-vet:", err)
		return 1
	}
	exit := 0
	for _, path := range loader.Roots() {
		src, err := loader.LoadSource(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "condisc-vet: %s: %v\n", path, err)
			exit = 1
			continue
		}
		diags, err := analysis.RunAnalyzers(analyzers(), src.Fset, src.Files, src.Pkg, src.Info)
		if err != nil {
			fmt.Fprintf(os.Stderr, "condisc-vet: %s: %v\n", path, err)
			exit = 1
			continue
		}
		for _, d := range diags {
			fmt.Printf("%s\n", rel(root, d))
			exit = 1
		}
	}
	return exit
}

func rel(root string, d analysis.Diagnostic) string {
	if r, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = r
	}
	return d.String()
}

// vetConfig is the JSON unit-check configuration cmd/go hands a
// -vettool for each package (the fields condisc-vet needs; unknown
// fields are ignored).
type vetConfig struct {
	ID                        string
	Dir                       string
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
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, "condisc-vet:", err)
			return typecheckFailExit(cfg)
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	var typeErr error
	conf := types.Config{Importer: imp, Error: func(err error) {
		if typeErr == nil {
			typeErr = err
		}
	}}
	pkg, _ := conf.Check(cfg.ImportPath, fset, files, info)
	if typeErr != nil {
		fmt.Fprintf(os.Stderr, "condisc-vet: %s: %v\n", cfg.ImportPath, typeErr)
		return typecheckFailExit(cfg)
	}
	diags, err := analysis.RunAnalyzers(analyzers(), fset, files, pkg, info)
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
