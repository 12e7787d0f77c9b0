// Package epochpub machine-checks the epoch-publication contract of
// the wait-free read path (PR 7): readers resolve ownership against
// immutable epoch snapshots behind an atomic pointer, so the states a
// snapshot captures may only change at sanctioned publish points.
//
// Two rules:
//
//  1. No writes to Snapshot fields outside package partition. A
//     published snapshot is immutable forever; copy-on-write happens in
//     partition.Ring before the epoch flip, never on the snapshot a
//     reader may already hold.
//  2. No direct writes to Node.end / Node.succ outside
//     setEndSuccLocked. The p2p node's segment boundary is a
//     version-stamped pointer update: every boundary move must bump
//     ringVer so in-flight handoff commits stamped with the old version
//     fast-fail instead of committing against a moved boundary.
//
// Where dhgraph publishes (only Build; a churn event's owner publishes
// after its item copy) is a behaviour, stated by dhgraph's
// TestOnlyBuildPublishes.
//
// The opt-out is //condisc:allow epochpub <why> on the same or the
// previous line, and the justification is mandatory.
package epochpub

import (
	"go/ast"
	"go/types"
	"strings"

	"condisc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "epochpub",
	Doc: "epoch-published state changes only at sanctioned publish points: " +
		"no Snapshot field writes outside partition, " +
		"no Node.end/Node.succ writes outside setEndSuccLocked (PR 7 read-path contract)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	inPartition := pass.Pkg != nil && pass.Pkg.Name() == "partition"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkWrite(pass, fd, lhs, inPartition)
					}
				case *ast.IncDecStmt:
					checkWrite(pass, fd, n.X, inPartition)
				}
				return true
			})
		}
	}
	return nil
}

// checkWrite flags a write target that is (rule 1) a field of a
// Snapshot outside partition, or (rule 2) Node.end / Node.succ outside
// setEndSuccLocked. Writes through a container reached from the field
// (s.byH[h] = v) count: the snapshot owns everything it references.
func checkWrite(pass *analysis.Pass, fd *ast.FuncDecl, lhs ast.Expr, inPartition bool) {
	target := analysis.Unparen(lhs)
	if ix, ok := target.(*ast.IndexExpr); ok {
		target = analysis.Unparen(ix.X)
	}
	sel, ok := target.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return
	}
	// A Snapshot anywhere on the selector chain owns the written field:
	// s.view.ol = x reaches the snapshot's list through its embedded view.
	for x := sel; !inPartition; {
		if xt, ok := pass.TypesInfo.Types[x.X]; ok && xt.Type != nil &&
			namedIs(xt.Type, "Snapshot") && snapshotPkg(xt.Type) {
			pass.Reportf(lhs.Pos(),
				"%s writes field %s of a Snapshot: published snapshots are immutable; "+
					"copy-on-write belongs in partition.Ring before the epoch flip (PR 7 contract)",
				fd.Name.Name, x.Sel.Name)
			return
		}
		inner, ok := analysis.Unparen(x.X).(*ast.SelectorExpr)
		if !ok {
			break
		}
		x = inner
	}
	if (sel.Sel.Name == "end" || sel.Sel.Name == "succ") &&
		namedIs(tv.Type, "Node") && fd.Name.Name != "setEndSuccLocked" {
		pass.Reportf(lhs.Pos(),
			"%s writes Node.%s directly: segment boundary moves must go through "+
				"setEndSuccLocked so ringVer stamps every move and stale handoff commits "+
				"fast-fail (PR 7 contract)", fd.Name.Name, sel.Sel.Name)
	}
}

// namedIs reports whether t (after stripping one pointer and aliases)
// is a named type with the given name, regardless of package — the
// contract types (partition.Snapshot, p2p.Node) are
// effectively unique in the tree, and staying package-agnostic lets the
// testdata exemplar model them locally.
func namedIs(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == name
}

// snapshotPkg narrows the Snapshot rule to the epoch-snapshot type: the
// one partition defines, or a testdata exemplar's local model. Other
// packages may name an unrelated type Snapshot (telemetry's metric dump
// does) without inheriting partition's immutability contract.
func snapshotPkg(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Pkg().Name()
	return name == "partition" || strings.HasSuffix(name, "data")
}
