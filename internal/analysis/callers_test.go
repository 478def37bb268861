package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// testSeams are functions only tests call that stay shipped on purpose, each
// because a test substitutes through it what production code wires once.
var testSeams = map[string]string{
	"source.Feed.SetClient": "a test substitutes the HTTP client, a fake server behind it",
}

// TestEveryFunctionHasAShippedCaller is the function-level twin of CI's
// "Orphan packages" step: every function and method declared in a non-test
// file of the module, exported or not, is referenced from a non-test file of
// the module — commands, examples, benchmark/ and the façade count as callers,
// a function's own body does not. A method also passes when its name and
// signature match a method of some interface type, since it may be called
// through one. benchmark/'s own declarations are the instrument's and are not
// checked.
func TestEveryFunctionHasAShippedCaller(t *testing.T) {
	orphans := testOnlyFunctions(loadModule(t))
	for _, o := range orphans {
		if _, ok := testSeams[o.name]; ok {
			continue
		}
		t.Errorf("%s: %s has no caller outside _test.go files: delete it, or list it in testSeams with a reason", o.pos, o.name)
	}
	for name := range testSeams {
		found := false
		for _, o := range orphans {
			found = found || o.name == name
		}
		if !found {
			t.Errorf("testSeams lists %s, which has a shipped caller or no longer exists: drop it from the list", name)
		}
	}
}

// listedPackage is what testOnlyFunctions reads of `go list -json`.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	ImportMap  map[string]string
}

type orphan struct {
	pos  token.Position
	name string // package.Func or package.Type.Method
}

var (
	moduleOnce   sync.Once
	modulePasses []*Pass
	moduleErr    error
)

// loadModule type-checks every package of the module once per test process:
// the gates that read the whole module share one load.
func loadModule(t *testing.T) []*Pass {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	moduleOnce.Do(func() {
		start := time.Now()
		modulePasses, moduleErr = loadPackages("../..")
		t.Logf("loaded the module in %v", time.Since(start).Round(time.Millisecond))
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePasses
}

// loadPackages type-checks every package of the module rooted at dir from
// source, dependencies before their importers, reading the standard
// library from the export data `go list -export` names.
func loadPackages(dir string) ([]*Pass, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=Dir,ImportPath,Export,GoFiles,Standard,ImportMap", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage // dependencies before their importers
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}

	fset := token.NewFileSet()
	exportFile := map[string]string{}
	for _, p := range pkgs {
		exportFile[p.ImportPath] = p.Export
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exportFile[path])
	})
	checked := map[string]*types.Package{}
	var passes []*Pass
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, f)
		}
		pass, err := load(fset, p.ImportPath, files, types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				if pkg, ok := checked[path]; ok {
					return pkg, nil
				}
				return std.Import(path)
			}),
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pass.Pkg
		passes = append(passes, pass)
	}
	return passes, nil
}

// testOnlyFunctions returns the functions and methods of the module's
// non-test files that nothing in a non-test file references, sorted by
// position.
func testOnlyFunctions(passes []*Pass) []orphan {
	// Every interface method a concrete method could be called through: the
	// named interfaces of every loaded package, and the interfaces the
	// module's own expressions have or take as parameters — interface
	// literals, and instantiations of generic ones such as an argument of
	// type sim.MemberRuntime[*liveNode].
	var ifaces []*types.Interface
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pass := range passes {
		walk(pass.Pkg)
		for _, tv := range pass.TypesInfo.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			}
		}
	}
	satisfies := func(fn *types.Func) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if m := it.Method(i); m.Name() == fn.Name() && types.Identical(m.Type(), fn.Type()) {
					return true
				}
			}
		}
		return false
	}

	// A reference from inside a function's own declaration does not count.
	used := map[*types.Func]bool{}
	for _, pass := range passes {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = pass.TypesInfo.Defs[fd.Name]
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pass.TypesInfo.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}

	var orphans []orphan
	for _, pass := range passes {
		if pass.Pkg.Path() == "whatsup/benchmark" {
			continue
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" ||
					(fd.Name.Name == "main" && fd.Recv == nil && pass.Pkg.Name() == "main") {
					continue
				}
				fn := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if used[fn] || (fd.Recv != nil && satisfies(fn)) {
					continue
				}
				orphans = append(orphans, orphan{pass.Fset.Position(fd.Pos()), funcName(fn)})
			}
		}
	}
	sort.Slice(orphans, func(i, j int) bool {
		a, b := orphans[i].pos, orphans[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return orphans
}

// funcName names fn as package.Func or package.Type.Method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return fn.Pkg().Name() + "." + typ.(*types.Named).Obj().Name() + "." + fn.Name()
}
