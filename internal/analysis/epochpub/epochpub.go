// Package epochpub machine-checks the epoch-publication contract of
// the wait-free read path (PR 7): readers resolve ownership against
// immutable epoch snapshots behind an atomic pointer, so the states a
// snapshot captures may only change at sanctioned publish points.
//
// Three rules:
//
//  1. No epoch publish from a churn phase function. The batch path's
//     single sanctioned publish point is runWave, AFTER every apply and
//     retire of the wave (copy → publish → delete); the serial path
//     publishes at the end of dhgraph.Build/Insert/Remove. A
//     ring.Publish() inside an admit*/apply*/retire* (or
//     *Admit/*Apply/*Retire) function would flip readers onto a
//     half-applied wave.
//  2. No writes to Snapshot fields outside package partition. A
//     published snapshot is immutable forever; copy-on-write happens in
//     partition.Ring before the epoch flip, never on the snapshot a
//     reader may already hold.
//  3. No direct writes to Node.end / Node.succ outside
//     setEndSuccLocked. The p2p node's segment boundary is a
//     version-stamped pointer update: every boundary move must bump
//     ringVer so in-flight handoff commits stamped with the old version
//     fast-fail instead of committing against a moved boundary.
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
	Doc: "epoch-published state changes only at sanctioned publish points: no ring.Publish " +
		"from admit/apply/retire phase functions, no Snapshot field writes outside partition, " +
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
			checkBody(pass, fd, inPartition)
		}
	}
	return nil
}

// phaseFunc reports whether name matches the admit/apply/retire phase
// naming contract (see applyphase): those functions either run
// concurrently for lease-disjoint patches or run serially BEFORE the
// wave's publish point, so neither may publish an epoch itself.
func phaseFunc(name string) bool {
	for _, p := range []string{"admit", "apply", "retire"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	for _, s := range []string{"Admit", "Apply", "Retire"} {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl, inPartition bool) {
	fname := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(pass, fd, lhs, inPartition)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, fd, n.X, inPartition)
		case *ast.CallExpr:
			if phaseFunc(fname) && isRingPublish(pass, n) {
				pass.Reportf(n.Pos(),
					"%s publishes an epoch from a churn phase function: the wave's single "+
						"sanctioned publish point is after every apply and retire "+
						"(copy → publish → delete; PR 7 contract)", fname)
			}
		}
		return true
	})
}

// isRingPublish matches ring.Publish() / g.Ring.Publish(): a Publish
// call whose receiver is a partition.Ring by type, or names a ring/Ring
// variable or field when type information is unavailable.
func isRingPublish(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Publish" {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil {
		if namedIs(tv.Type, "Ring") {
			return true
		}
	}
	switch x := analysis.Unparen(sel.X).(type) {
	case *ast.Ident:
		return x.Name == "ring" || x.Name == "Ring"
	case *ast.SelectorExpr:
		return x.Sel.Name == "ring" || x.Sel.Name == "Ring"
	}
	return false
}

// checkWrite flags a write target that is (rule 2) a field of a
// Snapshot outside partition, or (rule 3) Node.end / Node.succ outside
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
// contract types (partition.Ring, partition.Snapshot, p2p.Node) are
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
