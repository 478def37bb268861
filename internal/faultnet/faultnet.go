// Package faultnet is the declarative per-link fault-injection layer shared
// by both runtimes: a Policy assigns every directed link a latency
// distribution, a loss rate, a bandwidth cap and (optionally) a partition
// membership with a scheduled heal time. The deterministic simulator
// (internal/sim) consults the policy with stateless per-link draws keyed off
// the engine seed, so fault injection preserves the worker-count determinism
// contract; the live transports (internal/live ChannelNet and TCPNet) apply
// the same policy with per-link RNG streams and wall-clock delays.
//
// Policies are built once, before a run, and are read-only afterwards: every
// accessor is safe for concurrent use as long as no Set/Add method runs
// concurrently with it.
package faultnet

import (
	"time"

	"whatsup/internal/news"
	"whatsup/internal/prng"
)

// Rule is the fault profile of a class of links: a latency distribution
// (Base plus a uniform jitter in [0, Jitter)), an independent per-message
// loss probability, and a bandwidth cap modelled as serialization delay
// (a frame of b bytes adds b/BandwidthBPS seconds to its latency).
// The zero Rule is a perfect link.
type Rule struct {
	// Loss is the probability each message on the link is dropped.
	Loss float64
	// Base is the fixed one-way latency of the link.
	Base time.Duration
	// Jitter widens the latency uniformly: effective latency is
	// Base + U[0, Jitter).
	Jitter time.Duration
	// BandwidthBPS caps the link's throughput in bytes per second; each
	// frame's serialization delay (frameLen / BandwidthBPS) is added to its
	// latency. 0 = unlimited.
	BandwidthBPS int64
}

// Delay returns the rule's wall-clock delay for a frame of the given length,
// with the jitter fraction u drawn in [0, 1) by the caller.
func (r Rule) Delay(frameLen int, u float64) time.Duration {
	d := r.Base
	if r.Jitter > 0 {
		d += time.Duration(u * float64(r.Jitter))
	}
	if r.BandwidthBPS > 0 && frameLen > 0 {
		d += time.Duration(float64(frameLen) / float64(r.BandwidthBPS) * float64(time.Second))
	}
	return d
}

// LinkState is the merged condition of one directed link at one cycle: the
// rule that governs it plus whether an active partition cuts it outright.
type LinkState struct {
	Rule
	// Cut reports that an active partition separates the two endpoints;
	// every message on the link is dropped until the partition heals.
	Cut bool
}

// Partition cuts the links between its groups for a window of cycles.
// Nodes absent from Groups are unaffected (they can reach everyone) — a
// late joiner is not retroactively walled in.
type Partition struct {
	// Groups maps each affected node to its side of the partition; links
	// between different sides are cut.
	Groups map[news.NodeID]int
	// Start is the first cycle the partition is active.
	Start int64
	// Heal is the first cycle the partition is healed again; 0 (or any value
	// ≤ Start) means it never heals.
	Heal int64
}

// cuts reports whether this partition severs the directed link at the cycle.
func (pt *Partition) cuts(from, to news.NodeID, cycle int64) bool {
	if cycle < pt.Start || (pt.Heal > pt.Start && cycle >= pt.Heal) {
		return false
	}
	gf, okF := pt.Groups[from]
	if !okF {
		return false
	}
	gt, okT := pt.Groups[to]
	return okT && gf != gt
}

// Policy is the per-link condition matrix. Links are classified by their
// endpoints' node classes (AssignClass, default class 0); each ordered class
// pair can carry its own Rule (SetRule); the rest are perfect links.
// Partitions (AddPartition) overlay scheduled cuts on top of the rules.
type Policy struct {
	classes    map[news.NodeID]int
	rules      map[[2]int]Rule
	partitions []Partition
}

// New returns an empty policy: every link perfect, no partitions.
func New() *Policy {
	return &Policy{
		classes: make(map[news.NodeID]int),
		rules:   make(map[[2]int]Rule),
	}
}

// AssignClass puts a node into a link class (class 0 is the default for
// unassigned nodes).
func (p *Policy) AssignClass(id news.NodeID, class int) *Policy {
	if class == 0 {
		delete(p.classes, id)
		return p
	}
	p.classes[id] = class
	return p
}

// SetRule sets the rule for links from one class to another.
func (p *Policy) SetRule(fromClass, toClass int, r Rule) *Policy {
	p.rules[[2]int{fromClass, toClass}] = r
	return p
}

// AddPartition overlays a scheduled partition.
func (p *Policy) AddPartition(pt Partition) *Policy {
	p.partitions = append(p.partitions, pt)
	return p
}

// Link returns the merged condition of the directed link at the cycle.
func (p *Policy) Link(from, to news.NodeID, cycle int64) LinkState {
	var ls LinkState
	if len(p.rules) > 0 {
		if r, ok := p.rules[[2]int{p.classes[from], p.classes[to]}]; ok {
			ls.Rule = r
		}
	}
	for i := range p.partitions {
		if p.partitions[i].cuts(from, to, cycle) {
			ls.Cut = true
			break
		}
	}
	return ls
}

// Drop reports whether the policy drops a message on the directed link at
// the cycle: cut links always drop; lossy links drop by a stateless draw
// (see Draw) keyed off the run seed and the event identity, never a shared
// RNG, so any worker can evaluate it without perturbing per-peer streams.
func (p *Policy) Drop(seed int64, from, to news.NodeID, cycle int64, salt, extra uint64) bool {
	ls := p.Link(from, to, cycle)
	if ls.Cut {
		return true
	}
	if ls.Loss <= 0 {
		return false
	}
	return Draw(seed, from, to, cycle, salt, extra) < ls.Loss
}

// ActivePartitions counts the partitions active at the cycle — the
// partition-heal timeline that extends metrics.ChurnSample.
func (p *Policy) ActivePartitions(cycle int64) int {
	if p == nil {
		return 0
	}
	n := 0
	for i := range p.partitions {
		pt := &p.partitions[i]
		if cycle >= pt.Start && (pt.Heal <= pt.Start || cycle < pt.Heal) {
			n++
		}
	}
	return n
}

// Draw returns a deterministic uniform [0, 1) draw for one link event,
// hashing the run seed, the directed link, the cycle and the event identity
// (salt distinguishes the protocol leg, extra the message — e.g. the item
// id of a BEEP forward). Stateless by construction: the sim's workers can
// evaluate it in any order without shared state, which is what lets per-link
// fault injection keep the worker-count determinism contract.
func Draw(seed int64, from, to news.NodeID, cycle int64, salt, extra uint64) float64 {
	z := uint64(seed) * 0x9E3779B97F4A7C15
	z = prng.Mix(z + (uint64(from)+1)*0xBF58476D1CE4E5B9)
	z = prng.Mix(z + (uint64(to)+1)*0x94D049BB133111EB)
	z = prng.Mix(z + uint64(cycle)*0x9E3779B97F4A7C15)
	z = prng.Mix(z + salt*0xD6E8FEB86659FD93 + extra)
	return float64(z>>11) / (1 << 53)
}

// LinkSeed derives a stable RNG-stream seed for one directed link from the
// run seed, for transports that keep per-link RNG streams (ChannelNet).
func LinkSeed(seed int64, from, to news.NodeID) int64 {
	z := prng.Mix(uint64(seed)*0x9E3779B97F4A7C15 + (uint64(from)+1)*0xBF58476D1CE4E5B9)
	z = prng.Mix(z + (uint64(to)+1)*0x94D049BB133111EB)
	return int64(z)
}

// Link classes used by the scenario generators.
const (
	// ClassDefault is the unassigned node class.
	ClassDefault = 0
	// ClassStraggler marks the straggler cohort of Stragglers.
	ClassStraggler = 1
)

// Stragglers builds the straggler-cohort scenario: a deterministic ~frac of
// ids (selected by a seed-keyed hash, so the cohort is stable across runs
// and worker counts) becomes stragglers, and every link touching a
// straggler is governed by slow.
func Stragglers(ids []news.NodeID, frac float64, seed int64, slow Rule) *Policy {
	p := New()
	for _, id := range ids {
		if Draw(seed, id, id, 0, 'S', 0) < frac {
			p.AssignClass(id, ClassStraggler)
		}
	}
	p.SetRule(ClassStraggler, ClassDefault, slow)
	p.SetRule(ClassDefault, ClassStraggler, slow)
	p.SetRule(ClassStraggler, ClassStraggler, slow)
	return p
}

// KWayPartition builds a k-way partition that heals mid-run: ids are split
// round-robin into k groups whose mutual links are cut from start until
// heal. Round-robin assignment intersects every interest community, so the
// scenario measures re-convergence rather than community isolation.
func KWayPartition(ids []news.NodeID, k int, start, heal int64) *Policy {
	if k < 2 {
		k = 2
	}
	groups := make(map[news.NodeID]int, len(ids))
	for i, id := range ids {
		groups[id] = i % k
	}
	return New().AddPartition(Partition{Groups: groups, Start: start, Heal: heal})
}
