package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	mergeLine   = "BenchmarkHotPath/merge-1             	  500000	      1200 ns/op	    1800 B/op	       1 allocs/op"
	cachedLine  = "BenchmarkHotPath/similarity-cached-1 	  500000	      2341 ns/op	       0 B/op	       0 allocs/op"
	receiveLine = "BenchmarkHotPath/receive-liked-1     	  100000	      2300 ns/op	    3400 B/op	       9 allocs/op"
	otherLine   = "BenchmarkOther/x-1                   	  100000	       100 ns/op	       0 B/op	       0 allocs/op"

	oldBench = "goos: linux\n" + mergeLine + "\n" + cachedLine + "\n" + receiveLine + "\n" + otherLine + "\nPASS\n"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchdiffGate runs the comparison on a candidate derived from the
// baseline by one edit.
func TestBenchdiffGate(t *testing.T) {
	swap := func(old, new string) func(string) string {
		return func(s string) string {
			if !strings.Contains(s, old) {
				t.Fatalf("fixture has no %q", old)
			}
			return strings.Replace(s, old, new, 1)
		}
	}
	cases := []struct {
		name     string
		edit     func(string) string
		wantCode int
		wantOut  string // substring of stdout+stderr
	}{
		{"identical", func(s string) string { return s }, 0, "ok: 3 benchmarks"}, // -filter excludes BenchmarkOther
		{"ns within noise", swap("2300 ns/op", "2400 ns/op"), 0, "ok: 3 benchmarks"},
		{"ns/op +40% is printed, never gated", swap("2300 ns/op", "3220 ns/op"), 0, "(+40.0%)"},
		{"other host's GOMAXPROCS suffix", func(s string) string { return strings.ReplaceAll(s, "-1 ", "-8 ") }, 0, "ok: 3 benchmarks"},
		{"allocs within threshold", swap("9 allocs/op", "9.5 allocs/op"), 0, "ok: 3 benchmarks"},
		{"allocs/op regression", swap("9 allocs/op", "20 allocs/op"), 1, "regression"},
		{"zero-allocation baseline gains one alloc", swap("0 B/op	       0 allocs/op", "0 B/op	       1 allocs/op"), 1, "regression"},
		{"zero-byte baseline gains bytes", swap("0 B/op	       0 allocs/op", "16 B/op	       0 allocs/op"), 1, "regression"},
		{"B/op +11%", swap("3400 B/op", "3774 B/op"), 1, "regression"},
		{"B/op +9%", swap("3400 B/op", "3706 B/op"), 0, "ok: 3 benchmarks"},
		{"scenario dropped", swap(receiveLine+"\n", ""), 1, "! BenchmarkHotPath/receive-liked"},
		{"scenario renamed", swap("HotPath/receive-liked", "HotPath/receive-renamed"), 1, "in only one of baseline and candidate"},
		{"unbaselined scenario added", swap("PASS", strings.Replace(mergeLine, "merge", "extra", 1)+"\nPASS"), 1, "+ BenchmarkHotPath/extra"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oldP := write(t, dir, "old.txt", oldBench)
			newP := write(t, dir, "new.txt", tc.edit(oldBench))
			var out, errOut strings.Builder
			code := run([]string{"-old", oldP, "-new", newP}, &out, &errOut)
			if code != tc.wantCode {
				t.Fatalf("exit=%d want %d\nstdout:\n%sstderr:\n%s", code, tc.wantCode, out.String(), errOut.String())
			}
			if !strings.Contains(out.String()+errOut.String(), tc.wantOut) {
				t.Fatalf("expected %q in output\nstdout:\n%sstderr:\n%s", tc.wantOut, out.String(), errOut.String())
			}
		})
	}
}

func TestBenchdiffRejectsBadInvocation(t *testing.T) {
	p := write(t, t.TempDir(), "bench.txt", oldBench)
	for _, args := range [][]string{
		{},
		{"-old", p},
		{"-old", p, "-new", p, "-allocs-threshold", "-1"},
		{"-old", p, "-new", p, "-filter", "^BenchmarkNothing/"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v must exit 2, got %d (stderr=%q)", args, code, errOut.String())
		}
	}
}
