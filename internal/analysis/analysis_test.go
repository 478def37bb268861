package analysis

import (
	"strings"
	"testing"
)

// Each fixture seeds real violations (matched by want comments), the
// analyzer's suppression annotation, and legal look-alikes that must stay
// silent.

func TestNonDetermFixture(t *testing.T) { runFixture(t, NonDeterm, "sim") }
func TestMapOrderFixture(t *testing.T)  { runFixture(t, MapOrder, "core") }
func TestHotAllocFixture(t *testing.T)  { runFixture(t, HotAlloc, "hotalloc") }
func TestWireSizeFixture(t *testing.T)  { runFixture(t, WireSize, "wiresize") }

// TestScopedAnalyzersSilentElsewhere runs the package-scoped analyzers over
// a package outside their scope: zero diagnostics expected (the fixture has
// no want comments, so any diagnostic fails the harness).
func TestScopedAnalyzersSilentElsewhere(t *testing.T) {
	for _, a := range []*Analyzer{NonDeterm, MapOrder} {
		t.Run(a.Name, func(t *testing.T) { runFixture(t, a, "gateway") })
	}
}

// TestRegistry pins the whatsup-lint registry. A missing name means
// cmd/whatsup-lint silently stopped enforcing part of the contract.
func TestRegistry(t *testing.T) {
	want := []string{"nondeterm", "maporder", "hotalloc", "wiresize"}
	got := make(map[string]bool)
	for _, a := range Analyzers() {
		if got[a.Name] {
			t.Errorf("registry lists %q twice", a.Name)
		}
		got[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("registry is missing analyzer %q", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registry has %d analyzers, want %d: %v", len(got), len(want), names())
	}
}

func names() string {
	var ns []string
	for _, a := range Analyzers() {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}
