// Package dataset provides the three workloads of the evaluation
// (paper Section IV-A, Table I): a synthetic trace with clearly separated
// interest communities derived from an Arxiv-style collaboration graph, a
// Digg-like trace with category interests and an explicit social network,
// and a survey-like trace with a dense complete rating matrix.
//
// The paper's original datasets are not redistributable; the generators
// reproduce their published statistics and the structural properties the
// evaluation depends on (see DESIGN.md, "Substitutions").
package dataset

import (
	"fmt"
	"math/bits"

	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// Item is one news item of a workload with its publication schedule and
// ground-truth audience.
type Item struct {
	News       news.Item
	Index      int   // dense item index in the dataset
	Cycle      int64 // publication cycle
	Interested int   // number of users who like the item
}

// Dataset is a workload: a population of users, a schedule of items, and the
// like/dislike reaction of every user to every item.
type Dataset struct {
	Name   string
	Users  int
	Cycles int // experiment duration in gossip cycles
	Topics int // number of topics/categories (0 if not applicable)

	Items []Item

	// Social is the explicit follower graph (out-neighbours per user), only
	// present in the Digg workload; nil elsewhere.
	Social [][]news.NodeID

	likeBits []uint64 // Users × width bit matrix
	width    int      // uint64 words per user row
	index    map[news.ID]int
	topicOf  []int // item index -> topic (parallel to Items; -1 when topicless)
}

// defaultCycles is the experiment length of the paper's three traces: five
// profile windows of core.DefaultProfileWindow cycles.
const defaultCycles = 65

// newDataset allocates the bit matrix and index for users × items.
func newDataset(name string, users, items, cycles, topics int) *Dataset {
	width := (items + 63) / 64
	return &Dataset{
		Name:     name,
		Users:    users,
		Cycles:   cycles,
		Topics:   topics,
		likeBits: make([]uint64, users*width),
		width:    width,
		index:    make(map[news.ID]int, items),
		topicOf:  make([]int, 0, items),
	}
}

// addItem registers an item and returns its index. The caller sets likes
// afterwards and finally calls finalize.
func (d *Dataset) addItem(it news.Item, cycle int64, topic int) int {
	idx := len(d.Items)
	if _, dup := d.index[it.ID]; dup {
		panic(fmt.Sprintf("dataset %s: duplicate item id %s", d.Name, it.ID))
	}
	it.Topic = topic
	it.Source = news.NoNode // set by setSource or defaulted in finalize
	d.index[it.ID] = idx
	d.Items = append(d.Items, Item{News: it, Index: idx, Cycle: cycle})
	d.topicOf = append(d.topicOf, topic)
	return idx
}

// setSource assigns the publishing user of item idx.
func (d *Dataset) setSource(idx int, u news.NodeID) {
	d.Items[idx].News.Source = u
}

// setLike marks that user u likes item idx.
func (d *Dataset) setLike(u, idx int) {
	d.likeBits[u*d.width+idx/64] |= 1 << (idx % 64)
}

// finalize computes per-item interested counts and assigns sources: every
// item is published by one of its interested users (chosen by the caller
// beforehand via News.Source or defaulted here to the first liker).
func (d *Dataset) finalize() {
	for i := range d.Items {
		count := 0
		for u := 0; u < d.Users; u++ {
			if d.LikesIndex(u, i) {
				count++
				if d.Items[i].News.Source == news.NoNode {
					d.Items[i].News.Source = news.NodeID(u)
				}
			}
		}
		d.Items[i].Interested = count
		if d.Items[i].News.Source == news.NoNode && d.Users > 0 {
			d.Items[i].News.Source = 0 // orphan item: publish from node 0
		}
	}
}

// Blank returns a dataset of users with no trace items at all: the workload
// of a serving fleet, whose items arrive from ingestion sources while it
// runs instead of from a schedule. Pair it with live.Config.Opinions to give
// the population an interest model for those runtime items (the blank like
// matrix would dislike everything).
func Blank(users, cycles int) *Dataset {
	d := newDataset("blank", users, 0, cycles, 0)
	d.finalize()
	return d
}

// LikesIndex reports whether user u likes the item with dense index idx.
func (d *Dataset) LikesIndex(u, idx int) bool {
	if u < 0 || u >= d.Users || idx < 0 || idx >= len(d.Items) {
		return false
	}
	return d.likeBits[u*d.width+idx/64]&(1<<(idx%64)) != 0
}

// Likes reports whether user u likes the item with the given identifier.
// Unknown items are disliked.
func (d *Dataset) Likes(u news.NodeID, id news.ID) bool {
	idx, ok := d.index[id]
	if !ok {
		return false
	}
	return d.LikesIndex(int(u), idx)
}

// ItemByID returns the dataset item with the given identifier.
func (d *Dataset) ItemByID(id news.ID) (Item, bool) {
	if idx, ok := d.index[id]; ok {
		return d.Items[idx], true
	}
	return Item{}, false
}

// InterestedUsers returns the users who like item idx.
func (d *Dataset) InterestedUsers(idx int) []news.NodeID {
	var out []news.NodeID
	for u := 0; u < d.Users; u++ {
		if d.LikesIndex(u, idx) {
			out = append(out, news.NodeID(u))
		}
	}
	return out
}

// UserInterestCount returns the number of items user u likes — the per-node
// recall denominator.
func (d *Dataset) UserInterestCount(u news.NodeID) int {
	row := d.likeBits[int(u)*d.width : (int(u)+1)*d.width]
	total := 0
	for _, w := range row {
		total += bits.OnesCount64(w)
	}
	return total
}

// Topic returns the topic of item idx (-1 when the workload has no topics).
func (d *Dataset) Topic(idx int) int {
	if idx < 0 || idx >= len(d.topicOf) {
		return -1
	}
	return d.topicOf[idx]
}

// Subscribers returns the users subscribed to a topic under the C-Pub/Sub
// model of Section IV-B: a user subscribes to a topic if she likes at least
// one item associated with it.
func (d *Dataset) Subscribers(topic int) []news.NodeID {
	var out []news.NodeID
	for u := 0; u < d.Users; u++ {
		for i := range d.Items {
			if d.topicOf[i] == topic && d.LikesIndex(u, i) {
				out = append(out, news.NodeID(u))
				break
			}
		}
	}
	return out
}

// FullProfiles builds, for every user, the complete-trace profile (opinion
// on every item, timestamps at the item's publication cycle). Used by the
// sociability analysis (Figure 11) and the centralized baseline.
func (d *Dataset) FullProfiles() []*profile.Profile {
	out := make([]*profile.Profile, d.Users)
	for u := 0; u < d.Users; u++ {
		p := profile.WithCapacity(len(d.Items))
		for i := range d.Items {
			score := 0.0
			if d.LikesIndex(u, i) {
				score = 1
			}
			p.Set(d.Items[i].News.ID, d.Items[i].Cycle, score)
		}
		out[u] = p
	}
	return out
}

// Summary renders the Table I row for this workload.
func (d *Dataset) Summary() string {
	return fmt.Sprintf("%-10s users=%-5d news=%-5d cycles=%d topics=%d",
		d.Name, d.Users, len(d.Items), d.Cycles, d.Topics)
}

// spreadCycle maps item k of total to a publication cycle in [1, cycles].
func spreadCycle(k, total, cycles int) int64 {
	if total <= 0 {
		return 1
	}
	c := 1 + k*cycles/total
	if c > cycles {
		c = cycles
	}
	return int64(c)
}

// WarmupCycles returns the length of the initial transient: one profile
// window (1/5 of the run). Items published during the transient are still
// disseminated and still feed profiles, but the quality metrics exclude
// them, measuring the steady state as the paper's long traces do.
func (d *Dataset) WarmupCycles() int64 {
	return int64(d.Cycles / 5)
}

// IsWarmup reports whether item idx is published during the transient.
func (d *Dataset) IsWarmup(idx int) bool {
	return d.Items[idx].Cycle <= d.WarmupCycles()
}
