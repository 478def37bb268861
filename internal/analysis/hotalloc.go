package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc statically guards the hot-path allocation budget (the runtime pins
// are TestHotPathPinned's, the receive-liked path among them). Functions
// opted in with a `//whatsup:hotpath` doc directive must acknowledge every
// statically-visible allocation site with an inline `//whatsup:alloc`
// comment; an unmarked site is a diagnostic. The acknowledged sites form an
// auditable, reviewable budget: a new allocation sneaking into the path
// fails lint until it is consciously marked (and the runtime pin re-checked).
//
// Flagged site kinds: make, new, growth-capable append, composite literals
// (including &T{...}), closures (func literals capture their environment on
// the heap), and []byte<->string conversions.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "in //whatsup:hotpath functions, flag allocation sites (make/new/append/" +
		"composite literal/closure/[]byte-string conversion) not acknowledged with //whatsup:alloc",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) (interface{}, error) {
	ann := collectAnnotations(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcDocHas(fd, "whatsup:hotpath") {
				continue
			}
			checkHotFunc(pass, ann, fd)
		}
	}
	return nil, nil
}

func checkHotFunc(pass *Pass, ann *annotations, fd *ast.FuncDecl) {
	acked := ackedBuffers(pass, ann, fd)
	report := func(n ast.Node, what string) {
		if ann.has(n.Pos(), "whatsup:alloc") || ann.allowed(n.Pos(), "hotalloc") {
			return
		}
		pass.Reportf(n.Pos(), "hotalloc: %s in hot-path function %s is an unacknowledged allocation site; mark it //whatsup:alloc (and re-check the allocs/op pin) or hoist it out", what, fd.Name.Name)
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The closure value itself allocates; its body still runs on the
			// hot path, so keep walking it.
			report(n, "closure (func literal)")
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n, "&composite literal")
					// Don't double-report the inner literal.
					for _, e := range n.X.(*ast.CompositeLit).Elts {
						ast.Inspect(e, walk)
					}
					return false
				}
			}
		case *ast.CompositeLit:
			if t := pass.TypesInfo.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n, "slice/map composite literal")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						report(n, "make")
						return true
					case "new":
						report(n, "new")
						return true
					case "append":
						// Growth into a buffer whose make/made capacity was
						// acknowledged is covered by that acknowledgement:
						// the capacity decision is the audit point.
						if len(n.Args) > 0 {
							if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
								if obj := pass.TypesInfo.Uses[id]; obj != nil && acked[obj] {
									return true
								}
							}
						}
						report(n, "append (growth-capable)")
						return true
					}
				}
			}
			// string([]byte) / []byte(string) conversions copy.
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
				to := tv.Type.Underlying()
				from := pass.TypesInfo.TypeOf(n.Args[0])
				if from != nil && isByteStringConv(to, from.Underlying()) {
					report(n, "string/[]byte conversion")
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// ackedBuffers collects the variables whose backing allocation was
// explicitly acknowledged: a `x = make(...)` or `x := make(...)` assignment
// carrying //whatsup:alloc. Appends into such buffers are pre-approved — the
// marked make is where the growth budget was decided.
func ackedBuffers(pass *Pass, ann *annotations, fd *ast.FuncDecl) map[types.Object]bool {
	acked := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != len(as.Lhs) {
			return true
		}
		if !ann.has(as.Pos(), "whatsup:alloc") {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
				continue
			}
			// Only plain local identifiers: acknowledging a field's make must
			// not blanket-approve every append rooted at the receiver.
			lhs, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Uses[lhs]; obj != nil {
				acked[obj] = true
			} else if obj := pass.TypesInfo.Defs[lhs]; obj != nil {
				acked[obj] = true
			}
		}
		return true
	})
	return acked
}

// isByteStringConv reports whether the conversion between the two underlying
// types copies memory (string <-> []byte in either direction).
func isByteStringConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
