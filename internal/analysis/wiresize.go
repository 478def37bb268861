package analysis

import "go/ast"

// WireSize enforces the exact-byte-accounting invariant from the binary wire
// protocol work: every exported AppendWire method must have a sibling
// WireSize method on the same receiver type, so callers can pre-size buffers
// and the bandwidth figures (Fig 8b) can account for every byte without
// encoding twice.
var WireSize = &Analyzer{
	Name: "wiresize",
	Doc:  "every exported AppendWire method must have a sibling WireSize method on the same receiver type",
	Run:  runWireSize,
}

func runWireSize(pass *Pass) (interface{}, error) {
	ann := collectAnnotations(pass)
	appendDecls := make(map[string]*ast.FuncDecl) // receiver type name -> AppendWire decl
	hasWireSize := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			recv := receiverTypeName(fd.Recv.List[0].Type)
			if recv == "" {
				continue
			}
			switch fd.Name.Name {
			case "AppendWire":
				if fd.Name.IsExported() {
					appendDecls[recv] = fd
				}
			case "WireSize":
				hasWireSize[recv] = true
			}
		}
	}
	for recv, fd := range appendDecls {
		if hasWireSize[recv] || ann.allowed(fd.Pos(), "wiresize") {
			continue
		}
		pass.Reportf(fd.Pos(), "wiresize: %s has AppendWire but no sibling WireSize method; exact byte accounting (the Fig-8b bandwidth invariant) needs both", recv)
	}
	return nil, nil
}

// receiverTypeName unwraps a method receiver type expression to its named
// type's name: T, *T, and generic T[P] / *T[P] all yield "T".
func receiverTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
