package live

import (
	"sync"
	"time"

	"whatsup/internal/faultnet"
	"whatsup/internal/news"
	"whatsup/internal/prng"
)

// linkFaults is the per-link fault evaluator both live transports embed: the
// installed faultnet.Policy, the fleet clock its partition schedules run on,
// and one deterministic RNG stream per directed link for loss and jitter
// draws (faultnet.LinkSeed), so two runs over the same seed see the same
// per-link streams regardless of fleet size. A stream is held by value,
// eight bytes a link: the map is never evicted and a fleet of n nodes can
// touch n·(n−1) links. It owns the embedding transport's lock: policy state
// is read on every Send, under the same hold as the transport's delivery
// tables.
type linkFaults struct {
	mu     sync.Mutex
	seed   int64
	policy *faultnet.Policy
	clock  func() int64 // fleet cycle, for partition schedules
	links  map[uint64]prng.Source
}

// SetPolicy overlays per-link network conditions on top of whatever uniform
// conditions the transport was built with: rules and scheduled partitions
// are evaluated per directed link on every Send. clock supplies the fleet
// cycle for partition schedules (wire it to Runner.Cycle; nil pins the clock
// at 0, so a partition starting at cycle 0 with no heal is permanent). It
// runs under the transport's lock, so it must not call back into the
// transport — an atomic load is fine. Call before the first Send; the
// policy must not be mutated afterwards.
func (f *linkFaults) SetPolicy(p *faultnet.Policy, clock func() int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.policy = p
	f.clock = clock
	f.links = make(map[uint64]prng.Source)
}

// decide evaluates the installed policy for one frame on the directed link:
// a cut or lost link drops it, otherwise delay is the link's base latency,
// jitter and bandwidth-cap serialization time. Callers hold mu and have
// checked that a policy is installed — the nil-policy Send path stays one
// pointer comparison.
func (f *linkFaults) decide(from, to news.NodeID, frameLen int) (drop bool, delay time.Duration) {
	var cycle int64
	if f.clock != nil {
		cycle = f.clock()
	}
	ls := f.policy.Link(from, to, cycle)
	if ls.Cut {
		return true, 0
	}
	if ls.Loss == 0 && ls.Jitter == 0 {
		return false, ls.Delay(frameLen, 0)
	}
	k := uint64(uint32(from))<<32 | uint64(uint32(to))
	lr, ok := f.links[k]
	if !ok {
		lr = prng.Source(faultnet.LinkSeed(f.seed, from, to))
	}
	// Draw order per link: loss, then jitter.
	drop = ls.Loss > 0 && lr.Float64() < ls.Loss
	if !drop {
		delay = ls.Delay(frameLen, lr.Float64())
	}
	f.links[k] = lr
	return drop, delay
}
