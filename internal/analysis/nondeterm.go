package analysis

import (
	"go/ast"
	"go/types"
)

// NonDeterm flags wall-clock reads and globally-seeded randomness inside the
// deterministic packages. The engine's headline guarantee — bit-identical
// collector fingerprints for any Workers×Shards combination — only holds if
// every draw comes from a per-peer or per-link seeded *rand.Rand stream and
// every timestamp from the simulated clock.
var NonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc: "forbid time.Now and global math/rand in deterministic packages " +
		"(sim, core, overlay, profile, rps, cluster, metrics, faultnet, prng); " +
		"only seeded per-peer streams are allowed there",
	Run: runNonDeterm,
}

// wallClockFuncs are the time package functions that read (or wait on) the
// wall clock. time.Unix / time.Date are pure constructors and stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

func runNonDeterm(pass *Pass) (interface{}, error) {
	if !deterministicPackage(pass) {
		return nil, nil
	}
	ann := collectAnnotations(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() != nil {
				// Methods (e.g. (*rand.Rand).Intn on a seeded stream, or
				// (time.Time).Sub) are exactly the allowed form.
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] && !ann.allowed(call.Pos(), "nondeterm") {
					pass.Reportf(call.Pos(), "nondeterm: time.%s reads the wall clock in deterministic package %s; use the simulated clock (cycle/now) instead", fn.Name(), pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				// Package-level funcs draw from the shared global source:
				// rand.Intn, rand.Perm, rand.Shuffle, rand.Seed, ... The
				// constructors New/NewSource/NewPCG build seeded streams and
				// remain legal.
				switch fn.Name() {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
					return true
				}
				if !ann.allowed(call.Pos(), "nondeterm") {
					pass.Reportf(call.Pos(), "nondeterm: global rand.%s in deterministic package %s; draw from a seeded per-peer/per-link *rand.Rand stream instead", fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// calleeFunc resolves the called function object, if statically known.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
