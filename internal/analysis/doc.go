// Package analysis is whatsup-lint: four analyzers that statically enforce
// the engine's determinism contract and hot-path allocation budgets, so
// contract violations are caught at lint time instead of hours later by the
// runtime golden tests, and the standard-library driver that runs them under
// `go vet -vettool`.
//
// Analyzers:
//
//   - nondeterm: no wall-clock (time.Now/Since/...) or globally-seeded
//     randomness (top-level math/rand funcs) in the deterministic packages
//     (sim, core, overlay, profile, rps, cluster, metrics, faultnet, prng). Only
//     per-peer / per-link seeded *rand.Rand streams are allowed there.
//   - maporder: no map-iteration order leaking into results — flags
//     `for range m` over a map whose body appends to an outer slice,
//     accumulates floating point into an outer variable (float addition
//     does not commute in the low bits, which is why a profile sums its
//     Σ score² in ascending id order), or sends on a channel. Escape hatch: `//whatsup:commutative` on the range.
//   - hotalloc: in functions annotated `//whatsup:hotpath`, every
//     statically-visible allocation site (make, new, append growth, composite
//     literals, closures, []byte/string conversions) must carry an explicit
//     `//whatsup:alloc` acknowledgement; unmarked sites are flagged. This is
//     the static guard in front of the runtime 8-allocs/op receive-liked pin.
//   - wiresize: every exported AppendWire method must have a sibling WireSize
//     method on the same receiver type, preserving the exact wire-byte
//     accounting invariant behind the Fig-8b bandwidth figures.
//
// Suppression: a finding from analyzer NAME is suppressed by a
// `//whatsup:allow:NAME` comment on the flagged line or the line above
// (maporder additionally honors `//whatsup:commutative`, hotalloc
// `//whatsup:alloc`). Annotations are directive-style comments (no space
// after `//`) so gofmt leaves them alone.
//
// An analyzer is an Analyzer value whose Run reads one Pass (a parsed,
// type-checked package) and reports through Pass.Reportf. VetMain is the
// driver: the go command loads, caches and enumerates packages (test
// variants included) and hands each one to the tool as a JSON config naming
// its files and its imports' export data; VetMain type-checks it with
// go/types and runs the registry over it. cmd/whatsup-lint wraps that:
// `whatsup-lint ./...` re-execs itself under `go vet -vettool`.
package analysis
