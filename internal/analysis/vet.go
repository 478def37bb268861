package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"
)

// vetConfig is what the driver reads of the JSON file `go vet` writes for
// each package it hands to a -vettool.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string // import path in source -> package path
	PackageFile               map[string]string // package path -> export data file
	VetxOnly                  bool              // a dependency, vetted for facts only
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// VetMain answers the three invocations the go command makes of a vet tool:
// -V=full (the tool's identity, the go command's cache key), -flags (the
// flags `go vet` may pass through: none) and <pkg>.cfg (lint one package).
// It returns the exit status: 1 on any finding or failure, 2 on any other
// argument list.
func VetMain(args []string) int {
	if len(args) == 1 {
		switch arg := args[0]; {
		case arg == "-V=full":
			return printVersion()
		case arg == "-flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(arg, ".cfg"):
			return vetPackage(arg)
		}
	}
	fmt.Fprintln(os.Stderr, "whatsup-lint: as a vet tool it takes -V=full, -flags or one <pkg>.cfg; run `whatsup-lint <packages>` instead")
	return 2
}

// printVersion prints the `<exe> version devel buildID=<hash>` line the go
// command parses; hashing the executable makes a rebuilt linter invalidate
// the go command's cached vet results.
func printVersion() int {
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, sha256.Sum256(data))
	return 0
}

func vetPackage(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("decoding %s: %v", cfgFile, err))
	}
	// No analyzer exports facts; the go command still caches the file.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		return fail(err)
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	pass, err := load(fset, cfg.ImportPath, cfg.GoFiles, types.Config{
		Importer: importerFunc(func(importPath string) (*types.Package, error) {
			path, ok := cfg.ImportMap[importPath] // resolves vendoring and test variants
			if !ok {
				return nil, fmt.Errorf("can't resolve import %q", importPath)
			}
			return exports.Import(path)
		}),
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		GoVersion: cfg.GoVersion,
	})
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0 // the compiler reports it
		}
		return fail(err)
	}
	for _, a := range Analyzers() {
		if _, err := a.Run(pass); err != nil {
			return fail(fmt.Errorf("%s: %v", a.Name, err))
		}
	}
	sort.SliceStable(pass.Diagnostics, func(i, j int) bool { return pass.Diagnostics[i].Pos < pass.Diagnostics[j].Pos })
	for _, d := range pass.Diagnostics {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(pass.Diagnostics) > 0 {
		return 1
	}
	return 0
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "whatsup-lint: %v\n", err)
	return 1
}
