package analysis

// Analyzers returns the whatsup-lint registry: the four analyzers that guard
// a contract only this project has. The general Go checks (atomic,
// copylocks and the rest of the standard suite) are `go vet ./...`, which CI
// runs as its own step.
func Analyzers() []*Analyzer {
	return []*Analyzer{NonDeterm, MapOrder, HotAlloc, WireSize}
}
