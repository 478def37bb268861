package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` over maps whose body lets Go's randomized
// iteration order leak into results: appending to a slice that outlives the
// loop, accumulating floating point (float addition does not commute in the
// low bits, which is why a profile sums its Σ score² in ascending id order),
// or sending on a channel. A loop whose body is genuinely
// order-insensitive is annotated `//whatsup:commutative` on the range
// statement.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map-iteration order leaking into results in deterministic packages " +
		"(append to outer slice, float accumulation, channel send inside `for range m`); " +
		"annotate provably order-insensitive loops with //whatsup:commutative",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) (interface{}, error) {
	if !deterministicPackage(pass) {
		return nil, nil
	}
	ann := collectAnnotations(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if ann.has(rng.Pos(), "whatsup:commutative") || ann.allowed(rng.Pos(), "maporder") {
				return true
			}
			checkMapRangeBody(pass, ann, rng)
			return true
		})
	}
	return nil, nil
}

// checkMapRangeBody reports order-leaking operations in the body of a map
// range statement.
func checkMapRangeBody(pass *Pass, ann *annotations, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !ann.allowed(n.Pos(), "maporder") {
				pass.Reportf(n.Pos(), "maporder: channel send inside `for range` over a map; receivers observe Go's randomized iteration order")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if obj := rootObject(pass, n.Args[0]); obj != nil && declaredOutside(obj, rng) {
					if !ann.allowed(n.Pos(), "maporder") {
						pass.Reportf(n.Pos(), "maporder: append to %q inside `for range` over a map leaks iteration order into the slice; collect and sort, iterate a sorted key slice, or annotate the range //whatsup:commutative", obj.Name())
					}
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return true
			}
			for _, lhs := range n.Lhs {
				t := pass.TypesInfo.TypeOf(lhs)
				if t == nil {
					continue
				}
				b, ok := t.Underlying().(*types.Basic)
				if !ok || b.Info()&types.IsFloat == 0 {
					continue
				}
				obj := rootObject(pass, lhs)
				if obj == nil || !declaredOutside(obj, rng) {
					continue
				}
				if !ann.allowed(n.Pos(), "maporder") {
					pass.Reportf(n.Pos(), "maporder: floating-point accumulation into %q inside `for range` over a map; float ops do not commute in the low bits, so iteration order changes the result — accumulate over sorted keys or annotate the range //whatsup:commutative", obj.Name())
				}
			}
		}
		return true
	})
}

// rootObject resolves the variable at the base of an lvalue-ish expression:
// x, x.f, x[i], *x all root at x.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[v]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the range
// statement's span — i.e. the variable outlives one iteration.
func declaredOutside(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}
