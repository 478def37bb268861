// Command whatsup-lint statically enforces the determinism contract and the
// hot-path allocation budget (see internal/analysis for the analyzer suite).
//
// It is a single binary with two faces:
//
//   - Standalone: `whatsup-lint ./...` re-executes itself under
//     `go vet -vettool=<self>`, so the go command handles package loading,
//     export data and caching. This is how CI and developers invoke it.
//   - Vet tool: when the go command invokes it (`whatsup-lint -V=full`,
//     `whatsup-lint -flags`, `whatsup-lint <pkg>.cfg`), analysis.VetMain
//     answers, running the analyzers over the one package the config names.
//
// Exit status follows go vet: nonzero when any analyzer reports a finding.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"whatsup/internal/analysis"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && (strings.HasPrefix(args[0], "-") || strings.HasSuffix(args[0], ".cfg")) {
		// Invoked by `go vet -vettool`.
		os.Exit(analysis.VetMain(args))
	}
	os.Exit(run(args))
}

func run(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: whatsup-lint <packages>  (e.g. whatsup-lint ./...)")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range analysis.Analyzers() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, doc)
		}
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "whatsup-lint: cannot locate own binary: %v\n", err)
		return 2
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "whatsup-lint: running go vet: %v\n", err)
		return 2
	}
	return 0
}
