// Package analysis is a self-contained, stdlib-only reimplementation of
// the golang.org/x/tools/go/analysis surface this repository's custom
// vet suite needs: an Analyzer is a named check with a Run function, a
// Pass hands it one type-checked package, and diagnostics are positions
// plus messages. The container this project builds in has no module
// proxy access, so rather than vendoring x/tools (~10k files) the five
// project analyzers run on this shim; their Run functions are written
// against the same shape (pass.Fset / pass.TypesInfo / pass.Reportf) so
// they would port to the real framework by changing one import.
//
// The suite machine-checks invariants that a code shape states and a
// test run would not reliably show (see README "Static analysis &
// invariants"):
//
//   - sub-ulp segment arithmetic must go through the ceiling-division
//     primitives (segarith),
//   - the PR 7 epoch-publication contract of the wait-free read path:
//     published snapshots are immutable (epochpub),
//   - WAL discipline: no acknowledgement may be returned over an
//     unsynced framed record (fsyncack),
//   - determinism: no wall clock, global randomness, or map-order
//     leaks in the packages that feed the pinned state digests
//     (detpath),
//   - the telemetry record path neither allocates nor locks
//     (telemetryhot).
//
// Invariants that behaviour states are tests instead: churn cost flat
// in n (condisc's TestChurnAllocsFlatInN, dhgraph's
// TestIncrementalLocality), only Build publishing inside dhgraph
// (dhgraph's TestOnlyBuildPublishes), and every boundary move of a live
// node bumping its ring version (p2p's
// TestCoreRingVerStampsEveryBoundaryMove).
//
// Opt-outs are explicit comment directives that must carry a
// justification:
//
//	//condisc:wallclock <why>        – detpath, clock/global-rand hits
//	//condisc:allow <analyzer> <why> – any analyzer, same or previous line
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //condisc:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant, and the
	// historical bug class it guards against.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass provides one type-checked package to an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report     func(Diagnostic)
	directives map[string]map[int][]directive // file -> line -> directives
}

type directive struct {
	name   string // "wallclock", "allow", ...
	reason string // text after the directive name
}

const directivePrefix = "//condisc:"

// NewPass assembles a Pass over an already type-checked package. report
// receives every non-suppressed diagnostic.
func NewPass(az *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	p := &Pass{
		Analyzer: az, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		report:     report,
		directives: map[string]map[int][]directive{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				name, reason, _ := strings.Cut(text, " ")
				pos := fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = map[int][]directive{}
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line],
					directive{name: name, reason: strings.TrimSpace(reason)})
			}
		}
	}
	return p
}

// Reportf records a diagnostic at pos unless an opt-out directive
// covers it. A directive with an empty justification does not suppress:
// it produces its own diagnostic instead, so every escape hatch in the
// tree documents why it is safe.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		// The invariants bind production code; tests may use wall
		// clocks, global rand, and raw arithmetic freely.
		return
	}
	if d, ok := p.directiveFor(position, p.acceptedDirectives()...); ok {
		if d.reason == "" || (d.name == "allow" && !strings.ContainsRune(d.reason, ' ')) {
			p.report(Diagnostic{
				Analyzer: p.Analyzer.Name,
				Pos:      position,
				Message:  fmt.Sprintf("%s%s directive requires a justification string", directivePrefix, d.name),
			})
		}
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// acceptedDirectives lists the directive names that suppress this
// analyzer: the generic allow, plus wallclock for detpath (the ISSUE's
// historically named opt-out for legitimate entropy/TTL uses).
func (p *Pass) acceptedDirectives() []string {
	if p.Analyzer.Name == "detpath" {
		return []string{"allow", "wallclock"}
	}
	return []string{"allow"}
}

// directiveFor finds a matching directive on the diagnostic's line or
// the line immediately above it. An "allow" directive must name this
// analyzer as its first word; "wallclock" applies as-is.
func (p *Pass) directiveFor(pos token.Position, names ...string) (directive, bool) {
	byLine := p.directives[pos.Filename]
	if byLine == nil {
		return directive{}, false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			for _, want := range names {
				if d.name != want {
					continue
				}
				if d.name == "allow" {
					target, _, _ := strings.Cut(d.reason, " ")
					if target != p.Analyzer.Name {
						continue
					}
				}
				return d, true
			}
		}
	}
	return directive{}, false
}

// RunAnalyzers applies every analyzer to one type-checked package and
// returns the surviving diagnostics sorted by position.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, az := range analyzers {
		pass := NewPass(az, fset, files, pkg, info, func(d Diagnostic) {
			diags = append(diags, d)
		})
		if err := az.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", az.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// --- shared type helpers used by the analyzers ---

// IsNamed reports whether t (after stripping pointers and aliases) is
// the named type path.name.
func IsNamed(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// Unparen strips parentheses from an expression.
func Unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// CalleeFunc resolves the called function or method object of a call,
// or nil for calls through function values, type conversions, and
// builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether call invokes the package-level function
// pkgPath.name (methods do not match).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// IsMethodOn reports whether call invokes a method with one of the
// given names whose receiver type is recvPath.recvName (possibly via
// pointer).
func IsMethodOn(info *types.Info, call *ast.CallExpr, recvPath, recvName string, names ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if !IsNamed(sig.Recv().Type(), recvPath, recvName) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
