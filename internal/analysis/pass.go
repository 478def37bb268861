package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) (interface{}, error)
}

// A Pass is one parsed, type-checked package. Every analyzer of a run gets
// the same Pass and appends its findings to Diagnostics.
type Pass struct {
	Fset        *token.FileSet
	Files       []*ast.File
	Pkg         *types.Package
	TypesInfo   *types.Info
	Diagnostics []Diagnostic
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Diagnostics = append(p.Diagnostics, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// load parses the named files with their comments and type-checks them as
// package path.
func load(fset *token.FileSet, path string, filenames []string, conf types.Config) (*Pass, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}
