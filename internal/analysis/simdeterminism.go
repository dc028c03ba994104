package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimDeterminism enforces bit-reproducibility of simulation runs: no
// wall-clock reads, no process-global random streams, and no unordered
// map iteration feeding output or simulator state in the deep-sim
// packages. These are exactly the failure modes that silently break
// the seed->figures contract the paper's regression tests rely on.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock reads (time.Now & friends), process-global " +
		"math/rand state, and order-sensitive map iteration in simulator packages",
	Run: runSimDeterminism,
}

// wallClockFuncs are the time package functions that observe or depend
// on the host's wall clock or monotonic clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seededRandConstructors are the math/rand(/v2) functions that return
// an explicitly seeded source; everything else at package level draws
// from the shared, non-reproducible global stream.
var seededRandConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true,
	"NewSource": true, "NewZipf": true,
}

func runSimDeterminism(pass *Pass) {
	for _, file := range pass.Syntax {
		if len(file.Decls) == 0 {
			continue
		}
		if pass.InTestFile(file.Pos()) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkWallClock(pass, n)
				checkGlobalRand(pass, n)
			case *ast.RangeStmt:
				checkMapOrder(pass, n, stack)
			}
			return true
		})
	}
}

func checkWallClock(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if !wallClockFuncs[fn.Name()] {
		return
	}
	pass.Report(sel.Pos(), "wallclock",
		"time.%s reads the wall clock: simulation behavior must depend only on sim.Time "+
			"(annotate with //riflint:allow wallclock -- <reason> if this is host-side measurement)",
		fn.Name())
}

func checkGlobalRand(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	// Method calls on an explicit *rand.Rand are fine; only
	// package-level functions share global state.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	if seededRandConstructors[fn.Name()] {
		return
	}
	pass.Report(sel.Pos(), "globalrand",
		"%s.%s draws from the process-global random stream; use a seeded sim.RNG "+
			"(or rand.New(rand.NewPCG(seed, stream))) so runs replay bit-exactly",
		path, fn.Name())
}

// checkMapOrder flags `for ... range m` over a map when the loop body
// does something order-sensitive: appends to a slice that outlives the
// loop (unless it is sorted afterwards in the same function), keeps an
// argmin/argmax, writes formatted output, sends on a channel, or
// schedules simulator events.
func checkMapOrder(pass *Pass, rs *ast.RangeStmt, stack []ast.Node) {
	if !pass.DeepSim {
		return
	}
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	fn := enclosingFunc(stack)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Report(rs.For, "maporder",
				"map iteration order is random: sending on a channel from inside a map range "+
					"makes receive order nondeterministic (iterate sorted keys instead)")
			return false
		case *ast.AssignStmt:
			if obj := appendTarget(pass.TypesInfo, n); obj != nil && declaredOutside(obj, rs) && !sortedLater(pass, fn, obj) {
				pass.Report(rs.For, "maporder",
					"map iteration order is random: appending to %q inside a map range yields a "+
						"nondeterministic slice (sort it afterwards or iterate sorted keys)", obj.Name())
				return false
			}
		case *ast.IfStmt:
			if name := argminStore(pass.TypesInfo, rs, n); name != "" {
				pass.Report(rs.For, "maporder",
					"map iteration order is random: storing the loop key or value in %q under a comparison "+
						"picks an argmin/argmax whose ties depend on iteration order (scan sorted keys or a slice instead)", name)
				return false
			}
		case *ast.CallExpr:
			if name, bad := orderSensitiveCall(pass.TypesInfo, n); bad {
				pass.Report(rs.For, "maporder",
					"map iteration order is random: calling %s inside a map range makes output or "+
						"event order nondeterministic (iterate sorted keys instead)", name)
				return false
			}
		}
		return true
	})
}

// argminStore returns the name of an outer variable that an if
// statement inside a map range sets from the loop key or value under
// an ordered comparison — the argmin/argmax idiom, where a tie goes to
// whichever entry the iteration visits first — or "". Storing an
// operand of the comparison itself (best = n under n < best) is a plain
// min/max reduction, which does not depend on the order.
func argminStore(info *types.Info, rs *ast.RangeStmt, ifs *ast.IfStmt) string {
	operands := make(map[string]bool)
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				operands[types.ExprString(ast.Unparen(be.X))] = true
				operands[types.ExprString(ast.Unparen(be.Y))] = true
			}
		}
		return true
	})
	if len(operands) == 0 {
		return ""
	}
	loop := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && info.ObjectOf(id) != nil {
			loop[info.ObjectOf(id)] = true
		}
	}
	name := ""
	check := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) || appendTarget(info, as) != nil {
			return name == "" // appends have their own check
		}
		for i, lhs := range as.Lhs {
			id := rootIdent(lhs)
			if id == nil {
				continue
			}
			obj := info.Uses[id]
			rhs := ast.Unparen(as.Rhs[i])
			if obj != nil && declaredOutside(obj, rs) && mentions(info, rhs, loop) && !operands[types.ExprString(rhs)] {
				name = id.Name
			}
		}
		return name == ""
	}
	ast.Inspect(ifs.Body, check)
	if ifs.Else != nil && name == "" {
		ast.Inspect(ifs.Else, check)
	}
	return name
}

// mentions reports whether e refers to any object in set.
func mentions(info *types.Info, e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// rootIdent returns the variable an assignment target x or x.f.g
// stores into, or nil for indexed and dereferenced targets (a keyed
// store does not depend on visiting order).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// appendTarget returns the object a statement `x = append(x, ...)`
// assigns to, or nil.
func appendTarget(info *types.Info, as *ast.AssignStmt) types.Object {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return nil
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := info.Uses[lhs]
	if obj == nil {
		obj = info.Defs[lhs]
	}
	return obj
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement, i.e. the appended slice outlives the loop.
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedLater reports whether fn's body contains a sort.* / slices.*
// call mentioning obj — the collect-then-sort idiom, which is
// deterministic.
func sortedLater(pass *Pass, fn ast.Node, obj types.Object) bool {
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := funcFrom(pass.TypesInfo, call.Fun, "sort")
		if f == nil {
			f = funcFrom(pass.TypesInfo, call.Fun, "slices")
		}
		if f == nil {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					sorted = true
				}
				return !sorted
			})
		}
		return !sorted
	})
	return sorted
}

// orderSensitiveCall reports calls that serialize state or schedule
// events: fmt printing, io/string-builder writes, and sim.Engine
// scheduling.
func orderSensitiveCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if f := funcFrom(info, call.Fun, "fmt"); f != nil {
		return "fmt." + f.Name(), true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "WriteTo":
		if namedFrom(recv, "strings", "Builder") || namedFrom(recv, "bytes", "Buffer") {
			return typeString(recv) + "." + fn.Name(), true
		}
	case "At", "After":
		if namedFrom(recv, simPkgPath, "Engine") {
			return "sim.Engine." + fn.Name(), true
		}
	}
	return "", false
}

func typeString(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
