// Package epochpub machine-checks the epoch-publication contract of
// the wait-free read path (PR 7): readers resolve ownership against
// immutable epoch snapshots behind an atomic pointer, so a snapshot may
// not change once published.
//
// The rule: no writes to Snapshot fields outside package partition. A
// published snapshot is immutable forever; copy-on-write happens in
// partition.Ring before the epoch flip, never on the snapshot a reader
// may already hold.
//
// Where dhgraph publishes (only Build; a churn event's owner publishes
// after its item copy) is a behaviour, stated by dhgraph's
// TestOnlyBuildPublishes. The live node's ring state is one published
// core whose transitions are pure; that every boundary move bumps its
// ring version is stated by p2p's TestCoreRingVerStampsEveryBoundaryMove.
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
	Doc: "published epoch snapshots are immutable: " +
		"no Snapshot field writes outside partition (PR 7 read-path contract)",
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

// checkWrite flags a write target that is a field of a Snapshot outside
// partition. Writes through a container reached from the field
// (s.byH[h] = v) count: the snapshot owns everything it references.
func checkWrite(pass *analysis.Pass, fd *ast.FuncDecl, lhs ast.Expr, inPartition bool) {
	target := analysis.Unparen(lhs)
	if ix, ok := target.(*ast.IndexExpr); ok {
		target = analysis.Unparen(ix.X)
	}
	sel, ok := target.(*ast.SelectorExpr)
	if !ok || inPartition {
		return
	}
	// A Snapshot anywhere on the selector chain owns the written field:
	// s.view.ol = x reaches the snapshot's list through its embedded view.
	for x := sel; ; {
		if xt, ok := pass.TypesInfo.Types[x.X]; ok && xt.Type != nil && isSnapshot(xt.Type) {
			pass.Reportf(lhs.Pos(),
				"%s writes field %s of a Snapshot: published snapshots are immutable; "+
					"copy-on-write belongs in partition.Ring before the epoch flip (PR 7 contract)",
				fd.Name.Name, x.Sel.Name)
			return
		}
		if x, ok = analysis.Unparen(x.X).(*ast.SelectorExpr); !ok {
			return
		}
	}
}

// isSnapshot reports whether t (after stripping one pointer and aliases)
// is the epoch-snapshot type: the Snapshot partition defines, or a
// testdata exemplar's local model. Other packages may name an unrelated
// type Snapshot (telemetry's metric dump does) without inheriting
// partition's immutability contract.
func isSnapshot(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Name() != "Snapshot" || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Pkg().Name()
	return name == "partition" || strings.HasSuffix(name, "data")
}
