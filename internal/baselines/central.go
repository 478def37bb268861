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

// CentralConfig parameterizes C-WhatsUp, the centralized variant of WhatsUp
// with global knowledge (Section IV-B, Figure 9).
type CentralConfig struct {
	// FLike: on a like, the server delivers the item to the FLike users
	// closest to the liker (cosine over user profiles) and to the FLike
	// users whose profiles correlate best with the item profile.
	FLike int
	// FDislike: on a dislike, the server presents the item to the FDislike
	// users most similar to the item profile (default 1).
	FDislike int
	// TTL bounds dislike propagation as in BEEP (default 4).
	TTL int
	// Window is the profile window in cycles (default 13).
	Window int64
}

func (c CentralConfig) withDefaults() CentralConfig {
	if c.FLike <= 0 {
		c.FLike = core.DefaultFLike
	}
	if c.FDislike <= 0 {
		c.FDislike = 1
	}
	if c.TTL <= 0 {
		c.TTL = core.DefaultDislikeTTL
	}
	if c.Window <= 0 {
		c.Window = core.DefaultProfileWindow
	}
	return c
}

// RunCentral evaluates C-WhatsUp: a single server "gathering the global
// knowledge of all the profiles of its users and news items" (Section IV-B).
// Global knowledge is modelled as the strongest reading of the paper: at any
// cycle the server knows every user's opinion on every item published within
// the profile window, whether or not the user received it, and it updates
// item profiles instantly along the dissemination. Complete search over the
// population selects delivery targets. This upper-bounds what WhatsUp can
// achieve with partial, gossip-propagated knowledge (Figure 9).
func RunCentral(ds *dataset.Dataset, cfg CentralConfig, col *metrics.Collector) {
	cfg = cfg.withDefaults()
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
				p.PurgeOlderThan(clock - cfg.Window)
			}
		}
		disseminate(ds, cfg, col, profiles, cosine, it)
	}
}

type centralTask struct {
	user       news.NodeID
	hops       int
	dislikes   int
	viaDislike bool
}

func disseminate(ds *dataset.Dataset, cfg CentralConfig, col *metrics.Collector,
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
			up.ForEach(func(e profile.Entry) {
				itemProfile.AverageIn(e.Item, e.Stamp, e.Score)
			})
			up.Set(it.News.ID, it.Cycle, 1)
			targets := closest(up, cfg.FLike)
			targets = append(targets, closest(itemProfile, cfg.FLike)...)
			if len(targets) > 0 {
				col.RecordForward(true, task.hops)
			}
			for _, t := range targets {
				queue = append(queue, centralTask{user: t, hops: task.hops + 1, dislikes: task.dislikes})
			}
		} else {
			up.Set(it.News.ID, it.Cycle, 0)
			if task.dislikes < cfg.TTL {
				targets := closest(itemProfile, cfg.FDislike)
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
