// Package telemetryhot machine-checks the telemetry hot-path contract:
// the record functions the instrumented PR 7 read path calls on every
// operation (Counter.Add/Inc, Gauge.Set/Add, Histogram.Observe) must stay
// a handful of atomic writes — no allocation, no locking, no map or
// channel touch, no dynamic dispatch — or the observability layer starts
// perturbing the very path it observes. The same restriction binds the
// live wire's codec (internal/p2p: every RPC is encoded and decoded at
// every hop), whose only sanctioned allocations are the strings and
// values it copies out of a pooled buffer.
//
// The contract is carried by //condisc:hot marker comments:
//
//  1. Every //condisc:hot function body is restricted to: atomic
//     operations (sync/atomic), math/bits, the fixed-width loads and
//     stores of encoding/binary's byte orders, calls to other
//     //condisc:hot functions of the same package, allocation-free
//     builtins, and plain arithmetic/array indexing. Allocation (make,
//     new, append, composite literals, closures, interface conversions),
//     locking (any other call: sync.Mutex.Lock is just a non-atomic
//     call), map access, channel operations, defer, go, and select are
//     all flagged.
//  2. The known record entry points — Counter.Add, Counter.Inc,
//     Gauge.Set, Gauge.Add, Histogram.Observe, and the flight
//     recorder's Journal.Record — must carry the marker, so the
//     restriction cannot be shed by deleting the comment.
//
// The opt-out is //condisc:allow telemetryhot <why> with a mandatory
// justification, for a future hot function that provably does not
// allocate despite tripping the syntactic net.
package telemetryhot

import (
	"go/ast"
	"go/types"
	"strings"

	"condisc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "telemetryhot",
	Doc: "//condisc:hot functions (telemetry records, the wire codec) may not allocate, lock, or " +
		"touch maps/channels — atomics, math/bits, fixed-width byte-order loads and stores, and " +
		"other hot functions only — and the known record entry points must carry the marker " +
		"(read-path overhead contract)",
	Run: run,
}

// scopePaths are the packages the contract binds: the telemetry metric
// primitives (testdata exemplars sit under
// condisc/internal/telemetry/telemetryhotdata) and the flight-recorder
// ring, whose Record sits on the same instrumented mutation paths, and
// the live node, for its wire codec.
var scopePaths = []string{
	"condisc/internal/telemetry",
	"condisc/internal/journal",
	"condisc/internal/p2p",
}

func inScope(path string) bool {
	for _, sp := range scopePaths {
		if path == sp || strings.HasPrefix(path, sp+"/") {
			return true
		}
	}
	return false
}

// requiredHot maps receiver type name -> method names that must carry
// the //condisc:hot marker.
var requiredHot = map[string][]string{
	"Counter":   {"Add", "Inc"},
	"Gauge":     {"Set", "Add"},
	"Histogram": {"Observe"},
	"Journal":   {"Record"},
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !inScope(pass.Pkg.Path()) {
		return nil
	}
	// First pass: find every marked function, by object, so call sites
	// can recognize hot-to-hot calls.
	hotObjs := map[*types.Func]bool{}
	var hotDecls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if hasHotMarker(fd) {
				hotDecls = append(hotDecls, fd)
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					hotObjs[obj] = true
				}
			} else if recv, ok := recvTypeName(fd); ok {
				for _, want := range requiredHot[recv] {
					if fd.Name.Name == want {
						pass.Reportf(fd.Name.Pos(),
							"%s.%s is a telemetry record entry point and must carry the "+
								"//condisc:hot marker (the telemetryhot contract binds by marker)",
							recv, fd.Name.Name)
					}
				}
			}
		}
	}
	for _, fd := range hotDecls {
		if fd.Body != nil {
			checkHotBody(pass, fd, hotObjs)
		}
	}
	return nil
}

// hasHotMarker reports whether the declaration's doc group contains a
// //condisc:hot directive.
func hasHotMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == "//condisc:hot" || strings.HasPrefix(c.Text, "//condisc:hot ") {
			return true
		}
	}
	return false
}

// recvTypeName returns the name of the receiver's (pointer-stripped)
// named type, or false for plain functions.
func recvTypeName(fd *ast.FuncDecl) (string, bool) {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := analysis.Unparen(t).(*ast.Ident); ok {
		return id.Name, true
	}
	return "", false
}

// checkHotBody flags every construct a hot record function may not use.
func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl, hotObjs map[*types.Func]bool) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is //condisc:hot and may not spawn a goroutine", name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s is //condisc:hot and may not defer (defer allocates a frame)", name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "%s is //condisc:hot and may not select", name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "%s is //condisc:hot and may not send on a channel", name)
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "%s is //condisc:hot and may not receive from a channel", name)
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is //condisc:hot and may not build a closure (closures allocate)", name)
			return false
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "%s is //condisc:hot and may not build a composite literal (allocates)", name)
		case *ast.IndexExpr:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "%s is //condisc:hot and may not index a map "+
						"(map access can grow, hash, and take the write barrier)", name)
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					pass.Reportf(n.Pos(), "%s is //condisc:hot and may not range over a map", name)
				case *types.Chan:
					pass.Reportf(n.Pos(), "%s is //condisc:hot and may not range over a channel", name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, name, n, hotObjs)
		}
		return true
	})
}

// checkHotCall classifies one call inside a hot body: atomics, math/bits,
// same-package hot functions, and allocation-free builtins pass;
// everything else — including any lock method, which is just a call on a
// non-atomic type — is flagged.
func checkHotCall(pass *analysis.Pass, name string, call *ast.CallExpr, hotObjs map[*types.Func]bool) {
	// Type conversions are not calls; they only matter when the target is
	// an interface (boxing allocates).
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
			pass.Reportf(call.Pos(),
				"%s is //condisc:hot and may not convert to an interface (boxing allocates)", name)
		}
		return
	}
	if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(),
					"%s is //condisc:hot and may not call %s (allocates)", name, b.Name())
			}
			return
		}
	}
	if _, isLit := analysis.Unparen(call.Fun).(*ast.FuncLit); isLit {
		return // the literal itself is already flagged as a closure
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		pass.Reportf(call.Pos(),
			"%s is //condisc:hot and may not call through a function value (dynamic dispatch "+
				"hides allocation and locking from this check)", name)
		return
	}
	switch {
	case fn.Pkg() == nil: // error.Error and other universe methods
	case fn.Pkg().Path() == "sync/atomic", fn.Pkg().Path() == "math/bits":
	case isByteOrderAccess(fn):
	case fn.Pkg() == pass.Pkg && hotObjs[fn]:
	default:
		pass.Reportf(call.Pos(),
			"%s is //condisc:hot and calls %s.%s: only sync/atomic, math/bits, and other "+
				"//condisc:hot functions are allowed (anything else may allocate or lock)",
			name, fn.Pkg().Name(), fn.Name())
	}
}

// isByteOrderAccess recognizes binary.LittleEndian.Uint32, PutUint64 and
// their kin: methods of encoding/binary that load or store one fixed-
// width integer in a caller's slice. The Append forms can grow the slice
// and binary.Read/Write reflect, so neither passes.
func isByteOrderAccess(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && fn.Pkg().Path() == "encoding/binary" &&
		(strings.HasPrefix(fn.Name(), "Uint") || strings.HasPrefix(fn.Name(), "PutUint"))
}
