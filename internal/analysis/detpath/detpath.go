// Package detpath machine-checks the determinism contract of the
// churn harness (internal/churntest): the packages whose state feeds
// its pinned digests — condisc, internal/dhgraph, internal/partition and
// internal/handoff, plus internal/route, internal/cache and
// internal/store, whose load counters, cache dump and items
// DHT.WriteState prints — must produce byte-identical state from a
// seed, so their production code may not read the wall clock, draw from
// the global math/rand source, or let map iteration order leak into
// ordered output.
//
// Legitimate wall-clock uses (session TTLs, commit-record timestamps,
// entropy for non-replayed paths) opt out with an explicit
//
//	//condisc:wallclock <justification>
//
// on the same or preceding line; the justification is mandatory.
package detpath

import (
	"go/ast"
	"go/types"
	"strings"

	"condisc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detpath",
	Doc: "forbid time.Now, the global math/rand source, and map iteration feeding ordered " +
		"output in the packages under the churntest determinism contract; opt out with " +
		"//condisc:wallclock <justification>",
	Run: run,
}

// contractPaths are the package paths (exact, or parents of testdata
// exemplars) bound by the churntest determinism contract: the packages
// whose state DHT.WriteState dumps into the pinned digests.
var contractPaths = []string{
	"condisc",
	"condisc/internal/dhgraph",
	"condisc/internal/partition",
	"condisc/internal/handoff",
	"condisc/internal/route",
	"condisc/internal/cache",
	"condisc/internal/store",
}

func inContract(path string) bool {
	for _, p := range contractPaths {
		if path == p || (p != "condisc" && strings.HasPrefix(path, p+"/")) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inContract(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Direct calls are flagged at the call; a bare reference to
		// time.Now (stored in a field, passed as a value) is flagged at
		// the reference, so `clk := time.Now; clk()` cannot evade the
		// check — clock injection sites carry the one annotation.
		callFuns := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				callFuns[analysis.Unparen(call.Fun)] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.SelectorExpr:
				if !callFuns[ast.Expr(n)] {
					checkClockRef(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// clockFuncs are the wall-clock reads of package time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// checkClockRef flags a reference to time.Now &c. in non-call position.
func checkClockRef(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !clockFuncs[fn.Name()] {
		return
	}
	pass.Reportf(sel.Pos(),
		"reference to time.%s in a determinism-contract package: this is a wall-clock "+
			"source; if this is a deliberate clock-injection default, annotate it "+
			"//condisc:wallclock <why>", fn.Name())
}

// randConstructors are the math/rand{,/v2} package functions that build
// seeded sources rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if analysis.IsPkgFunc(pass.TypesInfo, call, "time", "Now", "Since", "Until") {
		pass.Reportf(call.Pos(),
			"wall-clock read in a determinism-contract package: churntest replays this code "+
				"from a seed; inject the time or derive it from the trace, or annotate "+
				"//condisc:wallclock <why> if this path is never replayed")
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if (path == "math/rand" || path == "math/rand/v2") && !randConstructors[fn.Name()] {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(call.Pos(),
				"global math/rand source in a determinism-contract package: rand.%s draws "+
					"from process-global state; draw from the seeded *rand.Rand instead",
				fn.Name())
		}
	}
}

// checkMapRange flags `for k := range m` over a map when the loop body
// feeds an order-sensitive sink — appending to a slice that is not
// subsequently sorted in the same function, sending on a channel, or
// writing output directly. Iteration that only fills other maps/sets or
// aggregates commutatively is order-insensitive and not flagged.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	var appended []types.Object // slice vars appended to inside the loop
	directSink := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			directSink = true
		case *ast.CallExpr:
			if isOutputCall(pass.TypesInfo, n) {
				directSink = true
			}
		case *ast.AssignStmt:
			// x = append(x, ...) — remember x.
			for i, rhs := range n.Rhs {
				call, ok := analysis.Unparen(rhs).(*ast.CallExpr)
				if !ok || len(n.Lhs) <= i {
					continue
				}
				if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if lhs, ok := analysis.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						if obj := pass.TypesInfo.ObjectOf(lhs); obj != nil {
							appended = append(appended, obj)
						}
					}
				}
			}
		}
		return true
	})
	if directSink {
		pass.Reportf(rng.Pos(),
			"map iteration feeds ordered output in a determinism-contract package: iteration "+
				"order varies run to run; iterate a sorted key slice instead")
		return
	}
	if len(appended) == 0 {
		return
	}
	// Appending is fine if every appended slice is sorted later in the
	// enclosing function.
	for _, obj := range appended {
		if !sortedAfter(pass.TypesInfo, file, rng, obj) {
			pass.Reportf(rng.Pos(),
				"map iteration appends to %q without sorting it afterwards in a "+
					"determinism-contract package: iteration order varies run to run; sort "+
					"the slice or iterate sorted keys", obj.Name())
			return
		}
	}
}

// isOutputCall recognizes direct order-sensitive sinks: fmt printing
// and io writes.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	if analysis.IsPkgFunc(info, call, "fmt",
		"Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println") {
		return true
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return true
		}
	}
	return false
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call positioned after the range statement, anywhere in the file.
func sortedAfter(info *types.Info, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		arg := analysis.Unparen(call.Args[0])
		if u, ok := arg.(*ast.UnaryExpr); ok {
			arg = analysis.Unparen(u.X)
		}
		if id, ok := arg.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
