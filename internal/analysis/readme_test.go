package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeNamesResolve is the root README.md's doc-rot gate (readmeProblems
// says what it checks). It first feeds the gate six kinds of rot, each of
// which must be reported.
func TestReadmeNamesResolve(t *testing.T) {
	passes := loadModule(t)
	rot := "`core.NoSuchThing` `core.Config.NoSuchField` `View.NoSuchMethod` `TestNoSuchTest/sub`\n" +
		"```\nwhatsup-sim -scale 0.2 -no-such-flag \\\n  -live\n```\n### Flags\n| `whatsup-sim` | `-scale` | 0.5 |\n"
	if got := readmeProblems(rot, passes, nil, map[string]map[string]bool{"whatsup-sim": {"-scale": true, "-live": true}}); len(got) != 6 {
		t.Fatalf("the gate reported %d problems in six kinds of rot:\n%s", len(got), strings.Join(got, "\n"))
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	tests, flags := scanSources(t)
	for _, p := range readmeProblems(string(readme), passes, tests, flags) {
		t.Error("README.md:" + p)
	}
}

// TestCommentsAndCINameTests is the doc-rot gate's twin for the code: a
// Test…, Fuzz… or Benchmark… name in a comment of a shipped .go file must
// exist, and so must a test that each alternative of a `-run` pattern in CI's
// workflow selects by prefix. It first feeds the gate two kinds of rot, each
// of which must be reported.
func TestCommentsAndCINameTests(t *testing.T) {
	passes := loadModule(t)
	tests, _ := scanSources(t)
	fset := token.NewFileSet()
	rot, err := parser.ParseFile(fset, "rot.go", "package rot\n\n// pinned by TestNoSuchTest\nvar x int\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	got := append(commentProblems(fset, []*ast.File{rot}, tests),
		ciRunProblems("run: go test -run 'TestReadmeNamesResolve|TestNoSuchTest|^$' ./...\n", tests)...)
	if len(got) != 2 {
		t.Fatalf("the gate reported %d problems in two kinds of rot:\n%s", len(got), strings.Join(got, "\n"))
	}
	for _, p := range passes {
		for _, problem := range commentProblems(p.Fset, p.Files, tests) {
			t.Error(problem)
		}
	}
	workflow, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range ciRunProblems(string(workflow), tests) {
		t.Error(".github/workflows/ci.yml:" + problem)
	}
}

// commentProblems lists, by position, the Test…, Fuzz… and Benchmark… names
// that the comments of files name and that are not in tests.
func commentProblems(fset *token.FileSet, files []*ast.File, tests map[string]bool) (problems []string) {
	for _, f := range files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, name := range testRE.FindAllString(fileRE.ReplaceAllString(c.Text, ""), -1) {
					if !tests[name] {
						problems = append(problems, fmt.Sprintf("%s: the comment names %s, which is no test, fuzzer or benchmark", fset.Position(c.Pos()), name))
					}
				}
			}
		}
	}
	return problems
}

// runRE is a `go test -run` pattern in a workflow, quoted or bare.
var runRE = regexp.MustCompile(`-run[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)

// ciRunProblems lists, by line, each alternative of a `go test -run` pattern
// in workflow that selects no test in tests by prefix (its part before a
// subtest's slash). The empty alternative, as in '^$', selects nothing on
// purpose and is skipped.
func ciRunProblems(workflow string, tests map[string]bool) (problems []string) {
	for i, line := range strings.Split(workflow, "\n") {
		_, args, ok := strings.Cut(line, "go test ")
		if !ok {
			continue // a command's own -run flag (whatsup-bench -run churn) is no test pattern
		}
		for _, m := range runRE.FindAllStringSubmatch(args, -1) {
			for _, alt := range strings.Split(m[1]+m[2]+m[3], "|") {
				alt, _, _ = strings.Cut(strings.Trim(alt, "^$"), "/")
				if alt == "" {
					continue
				}
				re, err := regexp.Compile("^(?:" + alt + ")")
				found := false
				for name := range tests {
					found = found || err == nil && re.MatchString(name)
				}
				if !found {
					problems = append(problems, fmt.Sprintf("%d: -run alternative %q selects no test", i+1, alt))
				}
			}
		}
	}
	return problems
}

var (
	spanRE   = regexp.MustCompile("`[^`]+`")
	fileRE   = regexp.MustCompile(`[\w.-]*\w\.(?:md|json|go|sh|yml|xml|txt)\b`)
	testRE   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	dottedRE = regexp.MustCompile(`(?:^|[^\w./-])([A-Za-z]\w*(?:\.[A-Za-z]\w*)+)`)
	cmdRE    = regexp.MustCompile(`whatsup-[a-z]+`)
	flagRE   = regexp.MustCompile(`(?:^|\s)(-[A-Za-z][\w-]*)`)
	rowRE    = regexp.MustCompile("(?m)^\\| *(?:`(whatsup-[a-z]+)`)? *\\| *`(-[\\w-]+)`")
	// A top-level func of a gofmt-ed file, and a flag.FlagSet call's name argument.
	funcRE    = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	flagDefRE = regexp.MustCompile(`\.(?:(?:Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)(?:Var)?|Var|Func|BoolFunc)\((?:&[\w.]+, )?"([^"]+)"`)
)

// readmeProblems lists, by line, what doc's code spans and fenced lines name
// that does not exist: a Test…, Fuzz… or Benchmark… name (any /subtest cut
// off) not in tests; pkg.Name or pkg.Type.Member, pkg a module package, where
// Name is not in its scope or Member is no field or method of Name's type;
// Type.Member, Type upper-case, where no module package declares Type with
// Member; a -flag after whatsup-<cmd> not in flags[whatsup-<cmd>]. File names,
// and names with an underscore (benchmark metrics: sim.step_ms), are skipped.
// The "### Flags" table must list exactly flags.
func readmeProblems(doc string, passes []*Pass, tests map[string]bool, flags map[string]map[string]bool) (problems []string) {
	report := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%d: "+format, append([]any{line}, args...)...))
	}
	isPkg, objects := map[string]bool{}, map[string][]types.Object{} // keyed pkg.Name and Name
	for _, p := range passes {
		isPkg[p.Pkg.Name()] = p.Pkg.Name() != "main"
		for _, n := range p.Pkg.Scope().Names() {
			objects[n] = append(objects[n], p.Pkg.Scope().Lookup(n))
			objects[p.Pkg.Name()+"."+n] = append(objects[p.Pkg.Name()+"."+n], p.Pkg.Scope().Lookup(n))
		}
	}
	check := func(line int, code string) {
		code = fileRE.ReplaceAllString(code, "")
		for _, name := range testRE.FindAllString(code, -1) {
			if !tests[name] {
				report(line, "%s is no test, fuzzer or benchmark", name)
			}
		}
		for _, m := range dottedRE.FindAllStringSubmatch(code, -1) {
			parts := strings.Split(m[1], ".")
			if strings.Contains(m[1], "_") || testRE.MatchString(m[1]) {
				continue
			} else if isPkg[parts[0]] { // pkg.Name[.Member]; else Type.Member
				parts = append([]string{parts[0] + "." + parts[1]}, parts[2:]...)
			} else if m[1][0] < 'A' || m[1][0] > 'Z' {
				continue
			}
			if objs := objects[parts[0]]; objs == nil || len(parts) > 1 && !hasMember(objs, parts[1]) {
				report(line, "%s does not resolve", strings.Join(parts[:min(2, len(parts))], "."))
			}
		}
		for _, loc := range cmdRE.FindAllStringIndex(code, -1) {
			cmd, args := code[loc[0]:loc[1]], cmdRE.ReplaceAllString(code[loc[1]:], "|")
			for _, f := range flagRE.FindAllStringSubmatch(args[:strings.IndexAny(args+"|", "|;&)")], -1) {
				if name, _, _ := strings.Cut(f[1], "="); !flags[cmd][name] {
					report(line, "%s %s is not a flag of cmd/%s", cmd, name, cmd)
				}
			}
		}
	}

	// Odd pieces are fenced blocks, checked line by line, a trailing backslash
	// joining the next; even pieces are prose, whose code spans are checked.
	start := 1
	for i, piece := range strings.Split(doc, "```") {
		if i%2 == 0 {
			for _, loc := range spanRE.FindAllStringIndex(piece, -1) {
				check(start+strings.Count(piece[:loc[0]], "\n"), piece[loc[0]+1:loc[1]-1])
			}
		} else {
			for j, lines, joined := 0, strings.Split(piece, "\n"), ""; j < len(lines); j++ {
				if joined += lines[j]; !strings.HasSuffix(lines[j], "\\") {
					check(start+j, joined)
					joined = ""
				}
			}
		}
		start += strings.Count(piece, "\n")
	}

	before, table, _ := strings.Cut(doc, "\n### Flags\n")
	table, _, _ = strings.Cut(table, "\n#")
	heading, listed, bin := strings.Count(before, "\n")+2, map[string]bool{}, ""
	for _, row := range rowRE.FindAllStringSubmatch(table, -1) {
		bin = cmp.Or(row[1], bin)
		check(heading, bin+" "+row[2]) // a row the command does not define
		listed[bin+" "+row[2]] = true
	}
	for cmd, defined := range flags {
		for flag := range defined {
			if !listed[cmd+" "+flag] {
				report(heading, "the Flags table lacks %s %s", cmd, flag)
			}
		}
	}
	return problems
}

// hasMember reports whether a value of some obj's type, addressable, has a
// field or method named member, unexported ones resolving in obj's package.
func hasMember(objs []types.Object, member string) bool {
	for _, o := range objs {
		if m, _, _ := types.LookupFieldOrMethod(o.Type(), true, o.Pkg(), member); m != nil {
			return true
		}
	}
	return false
}

// scanSources returns the Test, Fuzz and Benchmark funcs of the module's
// _test.go files, whatever their build tags, and the flags each
// cmd/whatsup-<cmd>/main.go defines; testdata and hidden directories (such
// as the benchmark's build cache) are skipped.
func scanSources(t *testing.T) (tests map[string]bool, flags map[string]map[string]bool) {
	tests, flags = map[string]bool{}, map[string]map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "../..") {
			return filepath.SkipDir
		} else if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			tests[string(m[1])] = tests[string(m[1])] || strings.HasSuffix(path, "_test.go")
		}
		if cmd := filepath.Base(filepath.Dir(path)); strings.HasPrefix(cmd, "whatsup-") && filepath.Base(path) == "main.go" {
			flags[cmd] = map[string]bool{}
			for _, m := range flagDefRE.FindAllSubmatch(src, -1) {
				flags[cmd]["-"+string(m[1])] = true
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests, flags
}
