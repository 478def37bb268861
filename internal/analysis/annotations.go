package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// deterministicPkgRE matches the import paths of the packages covered by the
// determinism contract: every byte of their output must be a pure function
// of the seed and the config, for any Workers×Shards combination.
var deterministicPkgRE = regexp.MustCompile(`(^|/)(sim|core|overlay|profile|rps|cluster|metrics|faultnet|prng)$`)

// deterministicPackage reports whether the package under analysis is bound
// by the determinism contract.
func deterministicPackage(pass *Pass) bool {
	return deterministicPkgRE.MatchString(pass.Pkg.Path())
}

// annotations indexes every `//whatsup:...` directive comment in a package
// by file and line, so analyzers can answer "is this finding suppressed?"
// in O(1) per report.
type annotations struct {
	fset  *token.FileSet
	byPos map[string]map[int][]string // filename -> line -> directives
}

// directiveRE extracts whatsup directives from a comment. Directives are
// written comment-style like `//whatsup:allow:nondeterm reason...` — no
// space after the slashes, so gofmt treats them as pragmas.
var directiveRE = regexp.MustCompile(`whatsup:[a-z:]+`)

// collectAnnotations scans all comments of the pass's files.
func collectAnnotations(pass *Pass) *annotations {
	a := &annotations{fset: pass.Fset, byPos: make(map[string]map[int][]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				matches := directiveRE.FindAllString(c.Text, -1)
				if len(matches) == 0 {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				lines := a.byPos[p.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					a.byPos[p.Filename] = lines
				}
				lines[p.Line] = append(lines[p.Line], matches...)
			}
		}
	}
	return a
}

// has reports whether the given directive is attached to pos: on the same
// line (trailing comment) or on the line immediately above (own-line
// comment).
func (a *annotations) has(pos token.Pos, directive string) bool {
	p := a.fset.Position(pos)
	lines := a.byPos[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d == directive || strings.HasPrefix(d, directive+":") {
				return true
			}
		}
	}
	return false
}

// allowed reports whether a finding from the named analyzer is explicitly
// suppressed at pos via `//whatsup:allow:NAME`.
func (a *annotations) allowed(pos token.Pos, analyzer string) bool {
	return a.has(pos, "whatsup:allow:"+analyzer)
}

// funcDocHas reports whether a function declaration's doc comment carries
// the given whatsup directive (e.g. `//whatsup:hotpath`).
func funcDocHas(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		for _, d := range directiveRE.FindAllString(c.Text, -1) {
			if d == directive {
				return true
			}
		}
	}
	return false
}
