package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"whatsup/internal/cluster"
	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/rps"
	"whatsup/internal/source"
)

// The unit-cost kernels time one public function of one package over inputs
// sampled from the warmed world, so their sizes (profile length, view fill)
// are the workload's, not a fixture author's guess. Each runs for the
// workload's kernel time in kernelBatches batches and reports its fastest
// batch.

const (
	kernelBatches = 5
	// kernelTime is how long a real traced run gives each kernel, and
	// kernelsTime about what all of them then take together.
	kernelTime  = 200 * time.Millisecond
	kernelsTime = 6 * time.Second
)

// fixtures are the inputs the kernels share.
type fixtures struct {
	users   []*profile.Profile   // user profiles of sampled nodes
	item    *profile.Profile     // an item profile: two users averaged
	descs   []overlay.Descriptor // one node's RPS and WUP views together
	wupView int                  // WUP view capacity
	rpsView int
	msg     core.ItemMessage
}

// sampleFixtures draws the kernel inputs from a warmed population, skipping
// members whose views a crash has just wiped.
func sampleFixtures(nodes []*core.Node, seed int64) fixtures {
	rng := rand.New(rand.NewSource(seed ^ 0xf1))
	var fx fixtures
	for _, i := range rng.Perm(len(nodes)) {
		n := nodes[i]
		if n.WUP().View().Len() < n.WUP().View().Capacity()/2 || n.UserProfile().Len() == 0 {
			continue
		}
		fx.users = append(fx.users, n.UserProfile().Clone())
		if fx.descs == nil {
			fx.descs = append(n.RPS().View().Entries(), n.WUP().View().Entries()...)
			fx.wupView, fx.rpsView = n.WUP().View().Capacity(), n.RPS().View().Capacity()
		}
		if len(fx.users) == 16 {
			break
		}
	}
	if len(fx.users) < 2 || len(fx.descs) == 0 {
		panic("benchmark: warmed world has no populated node to sample fixtures from")
	}
	fx.item = profile.New()
	fx.item.MergeAverage(fx.users[0])
	fx.item.MergeAverage(fx.users[1])
	fx.msg = core.ItemMessage{
		Item:    news.New("Gossip protocols reach the newsroom", "Decentralized dissemination finds an unlikely home.", "https://bench.example/item", 40, 7),
		Profile: fx.item, Dislikes: 1, Hops: 3,
	}
	return fx
}

// timeOp returns the cost of one call of op in nanoseconds, spending about
// each on it: the batch size is calibrated so a batch lasts each/kernelBatches,
// and the fastest batch is reported (interference only ever adds time).
func timeOp(each time.Duration, op func()) float64 {
	perBatch := each / kernelBatches
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		if el := time.Since(start); el >= perBatch/4 {
			n = max(1, int(float64(n)*float64(perBatch)/float64(el)))
			break
		}
		n *= 4
	}
	best := 0.0
	for b := 0; b < kernelBatches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per := float64(time.Since(start).Nanoseconds()) / float64(n)
		if b == 0 || per < best {
			best = per
		}
	}
	return best
}

// feedXML renders an RSS document of n items derived from the seed.
func feedXML(seed int64, n int) []byte {
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?><rss version="2.0"><channel><title>bench</title><link>https://bench.example</link><description>generated</description>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<item><title>Story %d of wire %d</title><description>A short description of story %d, long enough to look like a real summary line.</description><link>https://bench.example/%d/%d</link><pubDate>Mon, 04 Feb 2013 09:00:00 +0000</pubDate></item>", i, seed, i, seed, i)
	}
	b.WriteString("</channel></rss>")
	return []byte(b.String())
}

// memorySource serves pre-parsed items, so the gateway kernels time the
// gateway, not the parser.
type memorySource struct{ items []news.Item }

func (s *memorySource) Name() string { return "bench:memory" }

func (s *memorySource) Fetch(context.Context) ([]news.Item, error) { return s.items, nil }

// nullPublisher accepts every item: the gateway's publisher stub.
type nullPublisher struct{}

func (nullPublisher) Publish(news.NodeID, news.Item) error { return nil }

// runKernels times every unit-cost kernel and returns name → value for the
// kernel-backed per-layer metrics.
func runKernels(fx fixtures, seed int64, each time.Duration) map[string]float64 {
	out := make(map[string]float64)
	timeKernel := func(op func()) float64 { return timeOp(each, op) }
	rng := rand.New(rand.NewSource(seed ^ 0x6b))
	metric := profile.WUP{}
	user, other := fx.users[0], fx.users[1]

	// profile
	out["profile.merge_ns"] = timeKernel(func() {
		p := fx.item.Clone()
		p.MergeAverage(user)
	})
	i := 0
	out["profile.similarity_ns"] = timeKernel(func() {
		i++
		metric.Similarity(user, fx.users[i%len(fx.users)])
	})
	out["profile.clone_diverge_ns"] = timeKernel(func() {
		i++
		c := fx.item.Clone()
		c.Set(news.ID(1<<40+i), 1, 1)
	})
	var buf []byte
	out["profile.encode_ns"] = timeKernel(func() { buf = user.AppendWire(buf[:0]) })
	out["profile.decode_ns"] = timeKernel(func() {
		if _, _, err := profile.DecodeWire(buf); err != nil {
			panic(err)
		}
	})
	var wireBytes float64
	for _, u := range fx.users {
		wireBytes += float64(u.WireSize())
	}
	out["profile.wire_bytes"] = wireBytes / float64(len(fx.users))

	// overlay: a view at capacity offered its own entries plus as many
	// candidates again, as a gossip merge does.
	self := user.Clone()
	view := overlay.NewView(fx.wupView)
	trim := timeKernel(func() {
		view.InsertAll(fx.descs, news.NoNode)
		view.TrimBySimilarity(rng, metric, self)
	})
	out["profile.similarity_cached_ns"] = trim / float64(len(fx.descs))
	out["overlay.trim_similarity_ns"] = timeKernel(func() {
		i++
		self.Set(news.ID(1<<41+i%3), 1, 1) // a version bump empties the score cache
		view.InsertAll(fx.descs, news.NoNode)
		view.TrimBySimilarity(rng, metric, self)
	})
	rview := overlay.NewView(fx.rpsView)
	out["overlay.trim_random_ns"] = timeKernel(func() {
		rview.InsertAll(fx.descs, news.NoNode)
		rview.TrimRandom(rng)
	})
	out["overlay.evict_ns"] = timeKernel(func() { rview.EvictOlderThan(-1) }) // the steady state: a scan that evicts nothing
	var grave overlay.Graveyard
	out["overlay.graveyard_note_ns"] = timeKernel(func() {
		i++
		grave.Note(overlay.Tombstone{Node: news.NodeID(i % 16), Stamp: int64(i)})
	})
	push := fx.descs[:min(len(fx.descs), fx.wupView+1)]
	buf = overlay.AppendDescriptors(nil, push)
	enc := make([]byte, 0, len(buf))
	out["overlay.descriptors_encode_ns"] = timeKernel(func() { enc = overlay.AppendDescriptors(enc[:0], push) })
	var arena []overlay.Descriptor
	out["overlay.descriptors_decode_ns"] = timeKernel(func() {
		var err error
		if arena, _, err = overlay.AppendDecodeDescriptors(arena[:0], buf); err != nil {
			panic(err)
		}
	})

	// core item codec
	var ibuf []byte
	out["core.item_encode_ns"] = timeKernel(func() { ibuf = fx.msg.AppendWire(ibuf[:0]) })
	out["core.item_decode_ns"] = timeKernel(func() {
		if _, _, err := core.DecodeItemMessage(ibuf); err != nil {
			panic(err)
		}
	})

	// gossip layers: one full push-pull between two nodes.
	ra, rb := rps.New(1, "", fx.rpsView, rng), rps.New(2, "", fx.rpsView, rng)
	ra.Seed(fx.descs)
	rb.Seed(fx.descs)
	out["rps.exchange_ns"] = timeKernel(func() {
		i++
		ra.SelectPeer()
		reply := rb.AcceptPush(ra.MakePush(ra.Descriptor(int64(i), user)), rb.Descriptor(int64(i), other))
		ra.AcceptReply(reply)
	})
	ca, cb := cluster.New(1, "", fx.wupView, metric, rng), cluster.New(2, "", fx.wupView, metric, rng)
	ca.Seed(fx.descs, user)
	cb.Seed(fx.descs, other)
	out["cluster.exchange_ns"] = timeKernel(func() {
		i++
		ca.SelectPeer()
		reply := cb.AcceptPush(ca.MakePush(ca.Descriptor(int64(i), user)), cb.Descriptor(int64(i), other), other)
		ca.AcceptReply(reply, user)
	})

	// faultnet: a straggler cohort plus a healed partition, the policy shape
	// the adversarial suite runs.
	ids := make([]news.NodeID, 2000)
	groups := make(map[news.NodeID]int, len(ids))
	for j := range ids {
		ids[j] = news.NodeID(j)
		groups[ids[j]] = j % 2
	}
	policy := faultnet.Stragglers(ids, 0.2, seed, faultnet.Rule{Loss: 0.05}).
		AddPartition(faultnet.Partition{Groups: groups, Start: 100, Heal: 110})
	out["faultnet.link_ns"] = timeKernel(func() {
		i++
		policy.Link(news.NodeID(i%2000), news.NodeID((i*7)%2000), int64(i%64))
	})
	out["faultnet.drop_ns"] = timeKernel(func() {
		i++
		policy.Drop(seed, news.NodeID(i%2000), news.NodeID((i*7)%2000), int64(i%64), 1, uint64(i))
	})

	// metrics: one delivery record, and one end-of-cycle scratch merge.
	col := metrics.NewCollector()
	for j := 0; j < 64; j++ {
		col.RegisterItem(news.ID(j), 500)
	}
	for j := 0; j < 2000; j++ {
		col.RegisterNode(news.NodeID(j), 0)
	}
	out["metrics.record_delivery_ns"] = timeKernel(func() {
		i++
		col.RecordDelivery(core.Delivery{Node: news.NodeID(i % 2000), Item: news.ID(i % 64), Liked: i%4 == 0, Hops: i % 8})
	})
	scratch, spare := metrics.NewCollector(), metrics.NewCollector()
	for j := 0; j < 256; j++ { // a cycle's worth of deliveries on one worker
		scratch.RecordDelivery(core.Delivery{Node: news.NodeID(j * 7 % 2000), Item: news.ID(j % 6), Liked: true, Hops: j % 8})
	}
	out["metrics.merge_ns"] = timeKernel(func() {
		col.Merge(scratch)
		spare.Reset() // the engine resets each scratch after merging it
	})

	// source: parsing, a poll of fresh items, a poll of known ones.
	xml := feedXML(seed, 50)
	items, err := source.ParseFeed(xml)
	if err != nil || len(items) != 50 {
		panic(fmt.Sprintf("benchmark: generated feed did not parse to 50 items: %d, %v", len(items), err))
	}
	out["source.parse_feed_us"] = timeKernel(func() { source.ParseFeed(xml) }) / 1e3
	ctx := context.Background()
	src := &memorySource{items: items}
	out["source.poll_once_us"] = timeKernel(func() {
		gw := source.NewGateway(source.GatewayConfig{Sources: []source.Source{src}}, nullPublisher{})
		gw.PollOnce(ctx)
	}) / 1e3
	gw := source.NewGateway(source.GatewayConfig{Sources: []source.Source{src}}, nullPublisher{})
	gw.PollOnce(ctx)
	out["source.dedup_poll_us"] = timeKernel(func() { gw.PollOnce(ctx) }) / 1e3
	return out
}
