package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageListsAnalyzers checks the no-args path prints the registry, so
// `whatsup-lint` is self-documenting.
func TestUsageListsAnalyzers(t *testing.T) {
	// run writes usage to our stderr; capture via a pipe would be overkill —
	// exercise the exit code and rely on the e2e test for output.
	if got := run(nil); got != 2 {
		t.Fatalf("run with no args = %d, want 2", got)
	}
}

// TestEndToEnd builds the real binary and lints throwaway modules through
// the standalone face (`whatsup-lint ./...`) and the vet-tool face `go vet`
// drives underneath it, then asks the binary the two protocol questions the
// go command asks before it hands over any package.
func TestEndToEnd(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not available")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "whatsup-lint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/whatsup-lint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building whatsup-lint: %v\n%s", err, out)
	}

	// run executes the binary in dir and returns its exit code and combined
	// output.
	run := func(t *testing.T, dir string, args ...string) (int, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), string(out)
		} else if err != nil {
			t.Fatalf("running whatsup-lint: %v\n%s", err, out)
		}
		return 0, string(out)
	}

	const pure = "package sim\n\nfunc Pure(a, b int) int { return a + b }\n"
	for _, tc := range []struct {
		name  string
		files map[string]string // path in module "viol" -> source
		fails bool
		want  []string // substrings of the output
	}{
		{
			name:  "violation",
			files: map[string]string{"sim/sim.go": "package sim\n\nimport \"time\"\n\nfunc Now() int64 { return time.Now().UnixNano() }\n"},
			fails: true,
			want:  []string{"sim.go:5:27: nondeterm", "time.Now"},
		},
		{
			name:  "clean",
			files: map[string]string{"sim/sim.go": pure},
		},
		{
			// The go command hands over the _test variant of a package too.
			name: "violation in a test file only",
			files: map[string]string{
				"sim/sim.go":      pure,
				"sim/sim_test.go": "package sim\n\nimport \"time\"\n\nvar start = time.Now()\n",
			},
			fails: true,
			want:  []string{"sim_test.go:5:13: nondeterm"},
		},
		{
			// Imports resolve through the config's ImportMap and PackageFile:
			// a sibling package and two stdlib ones.
			name: "imports",
			files: map[string]string{
				"util/util.go": "package util\n\nimport \"sync\"\n\nvar Mu sync.Mutex\n\nconst N = 6\n",
				"sim/sim.go":   "package sim\n\nimport (\n\t\"math/rand\"\n\n\t\"viol/util\"\n)\n\nfunc Roll() int {\n\tutil.Mu.Lock()\n\tdefer util.Mu.Unlock()\n\treturn rand.Intn(util.N)\n}\n",
			},
			fails: true,
			want:  []string{"sim.go:12:9: nondeterm: global rand.Intn"},
		},
		{
			name:  "type error",
			files: map[string]string{"sim/sim.go": "package sim\n\nfunc Broken() int { return missing }\n"},
			fails: true,
			want:  []string{"sim.go:3:28: undefined: missing"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := t.TempDir()
			writeFile(t, filepath.Join(mod, "go.mod"), "module viol\n\ngo 1.22\n")
			for path, src := range tc.files {
				writeFile(t, filepath.Join(mod, path), src)
			}
			code, out := run(t, mod, "./...")
			if (code != 0) != tc.fails {
				t.Errorf("exit %d, want failure=%v\noutput:\n%s", code, tc.fails, out)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			if strings.Contains(out, "panic") || strings.Contains(out, "goroutine ") {
				t.Errorf("the linter crashed:\n%s", out)
			}
		})
	}

	t.Run("-V=full", func(t *testing.T) {
		// The line is the go command's cache key for vet results: it must
		// identify the binary and not change between two runs of it.
		code, first := run(t, ".", "-V=full")
		_, second := run(t, ".", "-V=full")
		if code != 0 || first != second || !strings.Contains(first, " version devel buildID=") {
			t.Errorf("exit %d, two runs printed\n%s%s", code, first, second)
		}
	})
	t.Run("-flags", func(t *testing.T) {
		if code, out := run(t, ".", "-flags"); code != 0 || strings.TrimSpace(out) != "[]" {
			t.Errorf("exit %d, printed %q, want []", code, out)
		}
	})
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
