package analysis

import (
	"go/types"
	"strings"
	"testing"
)

// TestNoOptionRestatesTheNodeConfig keeps Table II declared once. core.Config
// holds a WhatsUp or baseline peer's parameters with their zero rules, and a
// driver, runtime or façade option that needs them takes a core.Config. So
// no exported field of a *Config or *Options struct outside core and
// benchmark/ may carry the name of a core.Config field: a second RPSViewSize
// or DescriptorTTL is a second default to keep in step. Type aliases of
// core.Config are the same struct and pass. The check is name-based; a
// restatement under a new name is the reviewer's to catch.
func TestNoOptionRestatesTheNodeConfig(t *testing.T) {
	passes := loadModule(t)
	node := map[string]bool{}
	for _, pass := range passes {
		if pass.Pkg.Path() != "whatsup/internal/core" {
			continue
		}
		st := pass.Pkg.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				node[f.Name()] = true
			}
		}
	}
	if len(node) == 0 {
		t.Fatal("core.Config has no exported field: the module load is broken")
	}
	for _, pass := range passes {
		if path := pass.Pkg.Path(); path == "whatsup/internal/core" || path == "whatsup/benchmark" {
			continue
		}
		scope := pass.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && node[f.Name()] {
					t.Errorf("%s: %s.%s.%s restates core.Config.%s: take a core.Config instead",
						pass.Fset.Position(f.Pos()), pass.Pkg.Name(), name, f.Name(), f.Name())
				}
			}
		}
	}
}
