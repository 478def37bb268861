package live

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"whatsup/internal/baselines"
	"whatsup/internal/core"
	"whatsup/internal/profile"
)

var randType = reflect.TypeOf((*rand.Rand)(nil))

// generators returns the address of every *rand.Rand reachable from root
// through fields (exported or not), pointers, interfaces, slices, arrays and
// maps, without following pointers of the skip types. Closures and channels
// are opaque to it.
func generators(root any, skip ...reflect.Type) map[uintptr]bool {
	found, seen := map[uintptr]bool{}, map[[2]uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if v.Type() == randType {
				found[v.Pointer()] = true
				return
			}
			for _, s := range skip {
				if v.Type() == s {
					return
				}
			}
			key := [2]uintptr{v.Pointer(), reflect.ValueOf(v.Type()).Pointer()}
			if !seen[key] {
				seen[key] = true
				walk(v.Elem())
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return found
}

// TestPeerOwnsItsOneGenerator is the ownership rule of core.NewSubstrate, for
// every peer type that embeds one: the generator the caller handed over is
// read once and is collectable while the peer lives (a 4.9 KB
// math/rand.NewSource state must not ride along for the peer's lifetime), and
// Substrate.Rand is the only generator the peer reaches — both layers and the
// embedder's own draws share it.
func TestPeerOwnsItsOneGenerator(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(rng *rand.Rand) interface{ Overlay() *core.Substrate }
	}{
		{"core.Node", func(rng *rand.Rand) interface{ Overlay() *core.Substrate } {
			return core.NewNode(1, "", core.Config{}, nil, rng)
		}},
		{"baselines.Gossip", func(rng *rand.Rand) interface{ Overlay() *core.Substrate } {
			return baselines.NewGossip(1, 4, 8, nil, rng)
		}},
		{"baselines.CF", func(rng *rand.Rand) interface{ Overlay() *core.Substrate } {
			return baselines.NewCF(1, 4, 8, 10, profile.WUP{}, nil, rng)
		}},
	} {
		rng := rand.New(rand.NewSource(1))
		freed := make(chan struct{})
		runtime.SetFinalizer(rng, func(*rand.Rand) { close(freed) })
		peer := c.build(rng)
		for collected, deadline := false, time.After(5*time.Second); !collected; {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-time.After(5 * time.Millisecond):
			case <-deadline:
				t.Fatalf("%s: the caller's generator is still reachable after the peer was built", c.name)
			}
		}
		onlyOwn(t, c.name, peer, peer.Overlay())
	}

	r := NewRunner(Config{Seed: 3, Cycles: 1}, tinySurvey(3), NewChannelNet(3, 0, 0))
	ln := member(r, 0)
	onlyOwn(t, "liveNode", ln, ln.node.Overlay(), reflect.TypeOf(r))
}

// onlyOwn fails unless the substrate's generator is the one generator
// reachable from peer.
func onlyOwn(t *testing.T, name string, peer any, s *core.Substrate, skip ...reflect.Type) {
	t.Helper()
	own := reflect.ValueOf(s.Rand()).Pointer()
	if gens := generators(peer, skip...); len(gens) != 1 || !gens[own] {
		t.Errorf("%s reaches %d generators (own among them: %v), want Substrate.Rand() alone", name, len(gens), gens[own])
	}
}
