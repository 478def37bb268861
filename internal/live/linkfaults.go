package live

import (
	"time"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/news"
)

// linkFaults is the link evaluator both live transports embed. A frame is
// dropped by the simulator's own decision (Engine.linkDropped): faultnet
// composes the base under the link's rule and draws once, keyed by the run
// seed, the directed link, the fleet cycle and the message (frameKey). The
// decision reads only state fixed before the first Send and the fleet clock,
// an atomic load: it takes no lock, holds nothing per link, and drops the
// same frames in any send interleaving.
type linkFaults struct {
	base   faultnet.Rule    // the transport's own conditions, under every link's rule
	seed   int64            // Config.Seed
	clock  func() int64     // Runner.Cycle; nil reads cycle 0
	policy *faultnet.Policy // Config.Links; nil leaves every link at base
}

// bind fixes the run's seed, fleet clock and link policy. NewRunner calls it
// once, before any node sends; nothing writes them after.
func (f *linkFaults) bind(seed int64, clock func() int64, policy *faultnet.Policy) {
	f.seed, f.clock, f.policy = seed, clock, policy
}

// jitterSalt sets a frame's jitter draw apart from its loss draw: it lies
// above every message kind's salt.
const jitterSalt = 1 << 32

// decide returns whether the frame payload on the directed link is dropped
// and, if it is not, its delay: the transport's base composed under the
// link's rule (faultnet.Policy.Compose) decides both, with the simulator's
// drop (faultnet.LinkState.Drops). Without base loss or a policy it is one
// branch, with no header peek and no clock read.
func (f *linkFaults) decide(from, to news.NodeID, payload []byte) (drop bool, delay time.Duration) {
	if f.policy == nil && f.base.Loss == 0 {
		return false, f.base.Base
	}
	var cycle int64
	if f.clock != nil {
		cycle = f.clock()
	}
	ls := f.policy.Compose(f.base, from, to, cycle)
	salt, item := frameKey(payload)
	if ls.Drops(f.seed, from, to, cycle, salt, item) {
		return true, 0
	}
	var u float64
	if ls.Jitter > 0 {
		u = faultnet.Draw(f.seed, from, to, cycle, salt+jitterSalt, item)
	}
	return false, ls.Delay(frameLen(len(payload)), u)
}

// frameKey is the part of a frame's draw key the simulator takes from the
// message: the salt is its metrics.MessageKind plus one, and extra is a BEEP
// frame's item id, 0 for gossip. A frame whose header does not parse keys as
// (0, 0); no node decodes it anyway.
func frameKey(payload []byte) (salt, extra uint64) {
	kind, _, _, body, err := envelopeHeader(payload)
	if err != nil {
		return 0, 0
	}
	if kind == wireItem {
		id, _ := core.PeekItemID(body) // 0 for a body that does not parse
		extra = uint64(id)
	}
	return uint64(kind.messageKind()) + 1, extra
}
