// Package applyphase machine-checks the PR 5 churn concurrency
// contract: functions on the apply/retire side of the admit/apply split
// (names matching *Apply/*Retire, or unexported apply*/retire*) run
// concurrently for lease-disjoint patches, so they must not write
// admit-only state — the dhgraph srv table, the ring structure, or the
// handle/RNG/store counters. Those writes belong in the serial admit
// phase, where trace order fixes handle assignment and RNG draws (the
// churntest differential harness proved byte-identical WriteState
// output depends on exactly this split).
//
// The check is a write-set walk over selector expressions: assignments,
// ++/--, clear() and mutating method calls whose base names an
// admit-only field. Growing the srv table (g.srv = append(g.srv, …)) and
// storing into it (g.srv[h] = x) are both writes. RemoveRetire is the one
// sanctioned exception: the retire phase is serial again and drops the
// departed server's record (g.srv[h] = nil), so *Retire functions may
// write the srv table (but still not the ring or the counters).
package applyphase

import (
	"go/ast"
	"strings"

	"condisc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "applyphase",
	Doc: "functions matching the *Apply/*Retire naming contract must not write admit-only " +
		"state (dhgraph srv table, ring structure, handle/RNG/store counters); the apply phase " +
		"runs concurrently across lease-disjoint patches (PR 5 contract)",
	Run: run,
}

// admitOnlyFields maps each admit-only selector field name to what it
// is, for the diagnostic text.
var admitOnlyFields = map[string]string{
	"srv":      "the dhgraph srv table",
	"ring":     "the ring structure",
	"Ring":     "the ring structure",
	"rng":      "the shared RNG",
	"byH":      "the ring's handle table",
	"storeSeq": "the store sequence counter",
}

// ringMutators are the partition.Ring methods that change the
// decomposition; calling one through an admit-only ring field from the
// apply phase is a write in disguise.
var ringMutators = map[string]bool{
	"Insert": true, "Remove": true, "RemoveAt": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			phase := phaseOf(fd.Name.Name)
			if phase == notApply {
				continue
			}
			checkBody(pass, fd, phase)
		}
	}
	return nil
}

type phase int

const (
	notApply phase = iota
	applyPhase
	retirePhase
)

func phaseOf(name string) phase {
	switch {
	case strings.HasSuffix(name, "Retire") || strings.HasPrefix(name, "retire"):
		return retirePhase
	case strings.HasSuffix(name, "Apply") || strings.HasPrefix(name, "apply"):
		return applyPhase
	}
	return notApply
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, ph phase) {
	report := func(n ast.Node, field, verb string) {
		what := admitOnlyFields[field]
		pass.Reportf(n.Pos(),
			"%s %s %s (admit-only state): *Apply/*Retire functions run concurrently for "+
				"lease-disjoint patches; ring, srv-table and counter writes belong in the "+
				"serial admit phase (PR 5 contract)",
			fd.Name.Name, verb, what)
	}
	// srvAllowed: the serial retire phase drops the departed server's
	// (empty) srv-table record; that is its job.
	srvAllowed := ph == retirePhase

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if f := writtenField(lhs); f != "" && !(f == "srv" && srvAllowed) {
					report(n, f, "writes")
				}
			}
		case *ast.IncDecStmt:
			if f := writtenField(n.X); f != "" && !(f == "srv" && srvAllowed) {
				report(n, f, "writes")
			}
		case *ast.CallExpr:
			checkCall(pass, n, fd, srvAllowed, report)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, fd *ast.FuncDecl, srvAllowed bool,
	report func(ast.Node, string, string)) {
	fun := analysis.Unparen(call.Fun)
	// clear(x.srv)
	if id, ok := fun.(*ast.Ident); ok && id.Name == "clear" && len(call.Args) == 1 {
		if f := writtenField(call.Args[0]); f != "" && !(f == "srv" && srvAllowed) {
			report(call, f, "clears")
		}
		return
	}
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// x.ring.Insert(...) / x.Ring.RemoveAt(...) — ring mutation.
	if ringMutators[sel.Sel.Name] {
		if base, ok := analysis.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if base.Sel.Name == "ring" || base.Sel.Name == "Ring" {
				report(call, base.Sel.Name, "mutates")
				return
			}
		}
	}
	// x.rng.Uint64() — every draw advances the shared RNG stream, which
	// is a counter the admit phase owns (trace order = draw order).
	if base, ok := analysis.Unparen(sel.X).(*ast.SelectorExpr); ok && base.Sel.Name == "rng" {
		report(call, "rng", "draws from")
		return
	}
	// Calling back into the admit-phase API from apply/retire re-enters
	// serial-only code from concurrent context.
	if strings.HasSuffix(sel.Sel.Name, "Admit") {
		pass.Reportf(call.Pos(),
			"%s calls admit-phase API %s: admit mutates the ring and srv table and must stay "+
				"on the serial path (PR 5 contract)", fd.Name.Name, sel.Sel.Name)
	}
}

// writtenField returns the admit-only field name a write target names,
// or "". Only the outermost shape counts: g.srv = append(g.srv, x),
// g.srv[h] = v, *d.ring = r and d.storeSeq++ are writes to the field,
// while g.srv[h].out = lst mutates a record REACHED through the table —
// the sanctioned in-place apply-phase mutation — and is not flagged.
func writtenField(e ast.Expr) string {
	switch x := analysis.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if _, ok := admitOnlyFields[x.Sel.Name]; ok {
			return x.Sel.Name
		}
	case *ast.IndexExpr:
		if s, ok := analysis.Unparen(x.X).(*ast.SelectorExpr); ok {
			if _, ok := admitOnlyFields[s.Sel.Name]; ok {
				return s.Sel.Name
			}
		}
	case *ast.StarExpr:
		if s, ok := analysis.Unparen(x.X).(*ast.SelectorExpr); ok {
			if _, ok := admitOnlyFields[s.Sel.Name]; ok {
				return s.Sel.Name
			}
		}
	}
	return ""
}
