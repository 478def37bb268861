package analysis

// The fixture protocol of analysistest, on the standard library: every file
// under testdata/src/<pkg>/ is parsed and type-checked (stdlib imports
// resolved from source via GOROOT), the analyzer under test runs over the
// package, and its diagnostics are matched — by file, line and message
// regexp — against `// want "rx"` comments. Unmatched expectations and
// unexpected diagnostics both fail.

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// wantRE extracts the expectation regexps from a want comment; patterns may
// be double- or backtick-quoted: // want "a" `b`
var wantRE = regexp.MustCompile("//\\s*want\\s+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// runFixture type-checks testdata/src/<dir> and runs the analyzer over it,
// comparing diagnostics against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pass := loadFixture(t, dir)
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}

	expects := collectWants(t, pass.Fset, pass.Files)
	for _, d := range pass.Diagnostics {
		p := pass.Fset.Position(d.Pos)
		found := false
		for _, e := range expects {
			if !e.matched && e.file == filepath.Base(p.Filename) && e.line == p.Line && e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(p.Filename), p.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.rx)
		}
	}
}

// loadFixture parses and type-checks the fixture package in
// testdata/src/<dir>.
func loadFixture(t *testing.T, dir string) *Pass {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in testdata/src/%s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	// Source importer: resolves stdlib imports from GOROOT source, so
	// fixtures can use time, sync and math/rand without export data.
	pass, err := load(fset, dir, names, types.Config{Importer: importer.ForCompiler(fset, "source", nil)})
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pass
}

// collectWants parses the `// want "rx"` expectations out of the fixtures.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", p.Filename, p.Line, q, err)
					}
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", p.Filename, p.Line, pat, err)
					}
					out = append(out, &expectation{file: filepath.Base(p.Filename), line: p.Line, rx: rx})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
