package baselines

import (
	"sort"

	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
)

// C-WhatsUp's fixed parameters: everything but the like fanout follows
// WhatsUp's Table II, so Figure 9 varies the one knob the paper varies.
const (
	// centralFDislike is how many users the server presents a disliked item
	// to: those most similar to the item profile.
	centralFDislike = 1
	centralTTL      = core.DefaultDislikeTTL    // bounds dislike propagation, as in BEEP
	centralWindow   = core.DefaultProfileWindow // profile window in cycles
)

// RunCentral evaluates C-WhatsUp: a single server "gathering the global
// knowledge of all the profiles of its users and news items" (Section IV-B).
// Global knowledge is modelled as the strongest reading of the paper: at any
// cycle the server knows every user's opinion on every item published within
// the profile window, whether or not the user received it, and it updates
// item profiles instantly along the dissemination. Complete search over the
// population selects delivery targets. This upper-bounds what WhatsUp can
// achieve with partial, gossip-propagated knowledge (Figure 9).
//
// fLike is the one parameter: on a like, the server delivers the item to the
// fLike users closest to the liker (cosine over user profiles) and to the
// fLike users whose profiles correlate best with the item profile.
func RunCentral(ds *dataset.Dataset, fLike int, col *metrics.Collector) {
	sim.DatasetWorld(ds).Register(col)

	users := ds.Users
	profiles := make([]*profile.Profile, users)
	for u := range profiles {
		profiles[u] = profile.New()
	}
	cosine := profile.Cosine{}

	// Items in publication order; the server maintains the window-restricted
	// trace profiles as the clock advances.
	order := make([]int, len(ds.Items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ds.Items[order[a]].Cycle < ds.Items[order[b]].Cycle })

	clock := int64(0)
	next := 0 // next item index (in order) whose ratings enter the profiles
	for _, idx := range order {
		it := ds.Items[idx]
		if it.Cycle > clock {
			clock = it.Cycle
			// Admit ratings of all items published up to the new clock.
			for ; next < len(order) && ds.Items[order[next]].Cycle <= clock; next++ {
				admitted := ds.Items[order[next]]
				for u := 0; u < users; u++ {
					score := 0.0
					if ds.LikesIndex(u, admitted.Index) {
						score = 1
					}
					profiles[u].Set(admitted.News.ID, admitted.Cycle, score)
				}
			}
			for _, p := range profiles {
				p.PurgeOlderThan(clock - centralWindow)
			}
		}
		disseminate(ds, fLike, col, profiles, cosine, it)
	}
}

type centralTask struct {
	user       news.NodeID
	hops       int
	dislikes   int
	viaDislike bool
}

func disseminate(ds *dataset.Dataset, fLike int, col *metrics.Collector,
	profiles []*profile.Profile, cosine profile.Cosine, it dataset.Item) {

	itemProfile := profile.New()
	seen := make(map[news.NodeID]bool, ds.Users)
	queue := []centralTask{{user: it.News.Source}}

	// closest returns the k unseen users maximizing similarity to target.
	closest := func(target *profile.Profile, k int) []news.NodeID {
		type cand struct {
			u news.NodeID
			s float64
		}
		var best []cand
		for u := 0; u < ds.Users; u++ {
			id := news.NodeID(u)
			if seen[id] {
				continue
			}
			s := cosine.Similarity(target, profiles[u])
			if s <= 0 {
				continue
			}
			best = append(best, cand{id, s})
		}
		sort.Slice(best, func(i, j int) bool {
			if best[i].s != best[j].s {
				return best[i].s > best[j].s
			}
			return best[i].u < best[j].u
		})
		if len(best) > k {
			best = best[:k]
		}
		out := make([]news.NodeID, len(best))
		for i, c := range best {
			out[i] = c.u
		}
		return out
	}

	for len(queue) > 0 {
		task := queue[0]
		queue = queue[1:]
		if seen[task.user] {
			continue
		}
		seen[task.user] = true
		u := task.user
		liked := ds.Likes(u, it.News.ID)
		if task.hops > 0 {
			// One server→user message per delivery beyond the source.
			col.RecordMessage(metrics.MsgBeep, it.News.WireSize())
		}
		col.RecordDelivery(core.Delivery{
			Node: u, Item: it.News.ID, Liked: liked,
			Hops: task.hops, Dislikes: task.dislikes, ViaDislike: task.viaDislike,
		})
		up := profiles[u]
		if liked {
			// Instant global update: aggregate the liker's prior profile
			// into the item profile, then record the like.
			itemProfile.MergeAverage(up)
			up.Set(it.News.ID, it.Cycle, 1)
			targets := closest(up, fLike)
			targets = append(targets, closest(itemProfile, fLike)...)
			if len(targets) > 0 {
				col.RecordForward(true, task.hops)
			}
			for _, t := range targets {
				queue = append(queue, centralTask{user: t, hops: task.hops + 1, dislikes: task.dislikes})
			}
		} else {
			up.Set(it.News.ID, it.Cycle, 0)
			if task.dislikes < centralTTL {
				targets := closest(itemProfile, centralFDislike)
				if len(targets) > 0 {
					col.RecordForward(false, task.hops)
				}
				for _, t := range targets {
					queue = append(queue, centralTask{
						user: t, hops: task.hops + 1,
						dislikes: task.dislikes + 1, viaDislike: true,
					})
				}
			}
		}
	}
}
