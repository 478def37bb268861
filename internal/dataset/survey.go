package dataset

import (
	"fmt"
	"math/rand"

	"whatsup/internal/news"
)

// SurveyConfig parameterizes the survey-like workload (Section IV-A). At
// Scale 1 it matches Table I: 120 base users × 250 base items over a handful
// of RSS topics, replicated ×4 into 480 users and 1000 items. Every user
// rates every item, as in the paper's survey where all participants saw the
// same news list.
type SurveyConfig struct {
	Seed  int64
	Scale float64 // 1.0 = paper scale (also the zero value's meaning)
	// Cycles overrides the experiment length (default 65): the live
	// deployments run the survey over their own cycle count.
	Cycles int
}

const (
	surveyTopics   = 8 // RSS topics: culture, politics, people, sports, ...
	surveyReplicas = 4 // the paper's ×4 instance replication
)

// Survey generates the survey-like workload: items carry one of a few
// topics; each base user has a per-topic affinity (a mixture of a couple of
// strong interests and background curiosity) and rates every item by a
// Bernoulli draw on the affinity. Base users and items are then replicated,
// reproducing the paper's ×4 scaling including its acknowledged bias (the
// replicas rate identically).
func Survey(cfg SurveyConfig) *Dataset {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.Cycles <= 0 {
		cfg.Cycles = defaultCycles
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	baseUsers := max(5, int(120*cfg.Scale))
	baseItems := max(10, int(250*cfg.Scale))
	users := baseUsers * surveyReplicas
	items := baseItems * surveyReplicas

	// Per-user topic affinities: 2-3 favourite topics liked with high
	// probability, the rest with low background curiosity. The bimodal
	// shape mirrors the paper's survey, where participants reacted strongly
	// along topic lines (precision ≈0.5 at recall ≈0.8 is only achievable
	// with well-defined audiences).
	affinity := make([][]float64, baseUsers)
	for u := range affinity {
		affinity[u] = make([]float64, surveyTopics)
		for t := range affinity[u] {
			affinity[u][t] = 0.02 + 0.05*rng.Float64() // background curiosity
		}
		favs := 2 + rng.Intn(2)
		for f := 0; f < favs; f++ {
			affinity[u][rng.Intn(surveyTopics)] = 0.75 + 0.2*rng.Float64()
		}
	}

	// Base rating matrix: every base user rates every base item.
	itemTopic := make([]int, baseItems)
	baseLikes := make([][]bool, baseUsers)
	for u := range baseLikes {
		baseLikes[u] = make([]bool, baseItems)
	}
	for i := range itemTopic {
		itemTopic[i] = rng.Intn(surveyTopics)
		for u := 0; u < baseUsers; u++ {
			baseLikes[u][i] = rng.Float64() < affinity[u][itemTopic[i]]
		}
	}

	d := newDataset("survey", users, items, cfg.Cycles, surveyTopics)
	k := 0
	for rep := 0; rep < surveyReplicas; rep++ {
		for i := 0; i < baseItems; i++ {
			title := fmt.Sprintf("survey-%d-%d", rep, i)
			it := news.New(title, fmt.Sprintf("topic %d", itemTopic[i]), "rss://"+title, 0, 0)
			it.Community = itemTopic[i]
			cycle := spreadCycle(k, items, cfg.Cycles)
			it.Created = cycle
			idx := d.addItem(it, cycle, itemTopic[i])
			var interested []int
			for ur := 0; ur < surveyReplicas; ur++ {
				for u := 0; u < baseUsers; u++ {
					if baseLikes[u][i] {
						user := ur*baseUsers + u
						d.setLike(user, idx)
						interested = append(interested, user)
					}
				}
			}
			if len(interested) > 0 {
				d.setSource(idx, news.NodeID(interested[rng.Intn(len(interested))]))
			}
			k++
		}
	}
	d.finalize()
	return d
}
