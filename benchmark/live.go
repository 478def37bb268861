package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whatsup/internal/api"
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
)

// liveParams sizes one live-fleet workload.
type liveParams struct {
	name    string
	nodes   int
	cycle   time.Duration // gossip period
	warmup  time.Duration // fixed warm-up before the window opens
	pubRate float64       // items/s the publisher offers
	quiet   time.Duration // pacing: the previous cascade is over after this long without a delivery
	late    time.Duration // a liked delivery later than this counts as missed
	serve   bool          // put the HTTP API in front and drive it
	reqRate float64       // requests/s the client offers
	slice   time.Duration // the window is measured in slices of this length
	kernel  time.Duration // traced run: how long each unit-cost kernel runs
}

func livePublishParams() liveParams {
	return liveParams{name: "live-publish", nodes: 300, cycle: time.Second, warmup: 6 * time.Second,
		pubRate: 25, quiet: 15 * time.Millisecond, late: 2 * time.Second, slice: time.Second, kernel: kernelTime}
}

func serveMixedParams() liveParams {
	p := livePublishParams()
	p.name, p.serve, p.pubRate, p.reqRate = "serve-mixed", true, 10, 400
	return p
}

const (
	liveCommunities = 8   // node n likes item i exactly when i%8 == n%8
	postShare       = 0.1 // of requests are feedback POSTs
	nodeStride      = 31  // successive requests walk the fleet with this stride
	probeRate       = 20  // Runner.Snapshot probes per second on a traced run
)

// deliveryRec is one OnDelivery callback.
type deliveryRec struct {
	item  news.ID
	at    int64 // ns since process start
	node  news.NodeID
	hops  int16
	liked bool
}

// pubRec is one Runner.Publish call.
type pubRec struct {
	id         news.ID
	at, done   int64 // ns since process start: just before the call, just after
	interested int   // fleet members that like the item, the source excluded
	err        error
}

// reqRec is one HTTP request as the client saw it.
type reqRec struct {
	// ns since process start. start is where the request's latency counts
	// from: its due time when the previous response was still outstanding
	// then (the wait a slow server imposes on later requests is charged to
	// it), the actual send otherwise (the connection was idle and the client
	// goroutine merely woke late — generator lag, reported on its own).
	due, start, sent, done int64
	post                   bool
	status                 int
	bytes                  int
	entries                int
	// server side, traced slices only (0 otherwise)
	handlerStart, handlerEnd, fleetStart, fleetEnd int64
}

// liveRun is the state of one live workload run.
type liveRun struct {
	p      liveParams
	seed   int64
	runner *live.Runner

	lastDelivery atomic.Int64  // ns since process start; drives the pacing rule
	deliveries   []deliveryRec // appended under the runner's collector lock
	pubs         []pubRec      // publisher goroutine only, read after it ends
	reqs         []reqRec      // client goroutine only, read after it ends
	ops          atomic.Int64  // publishes (live-publish) or responses (serve-mixed) so far
	checkFails   []string      // client goroutine only

	tracing atomic.Bool // traced run: timers and the probe are on
	probes  []float64   // ctl round trips in µs; probe goroutine only
	st      serveTrace
}

func nowNs() int64 { return sinceStart(time.Now()) }

// onDelivery is live.Config.OnDelivery: called on node goroutines under the
// runner's collector lock, which also serializes the append.
func (lr *liveRun) onDelivery(d core.Delivery) {
	at := nowNs()
	lr.lastDelivery.Store(at)
	lr.deliveries = append(lr.deliveries, deliveryRec{item: d.Item, at: at, node: d.Node, hops: int16(d.Hops), liked: d.Liked})
}

// sleepOrStop sleeps for d and reports false when stop closed first.
func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// publishLoop is the paced publisher: item k goes out when it is due and the
// previous item's cascade has gone quiet, so cascades never overlap and
// publish→feed latency measures one cascade, not a pile-up. A publisher that
// falls behind does not burst to catch up; its rate simply drops.
func (lr *liveRun) publishLoop(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(lr.seed ^ 0x9b))
	interval := time.Duration(float64(time.Second) / lr.p.pubRate)
	due := time.Now()
	for k := 0; ; k++ {
		for {
			now := time.Now()
			wait := due.Sub(now)
			if q := lr.p.quiet - time.Duration(sinceStart(now)-lr.lastDelivery.Load()); q > wait {
				wait = q
			}
			if wait <= 0 {
				break
			}
			if !sleepOrStop(wait, stop) {
				return
			}
		}
		if !sleepOrStop(0, stop) {
			return
		}
		it := news.New(fmt.Sprintf("Item %d of run %d", k, lr.seed), "A short description, as a feed would carry.",
			fmt.Sprintf("https://bench.example/%d/%d", lr.seed, k), 0, 0)
		community := int(uint64(it.ID) % liveCommunities)
		members := (lr.p.nodes - community + liveCommunities - 1) / liveCommunities
		it.Source = news.NodeID(rng.Intn(members)*liveCommunities + community)
		rec := pubRec{id: it.ID, interested: members - 1, at: nowNs()}
		rec.err = lr.runner.Publish(it.Source, it)
		rec.done = nowNs()
		if errors.Is(rec.err, live.ErrNotRunning) && len(lr.pubs) == 0 {
			// The controller goroutine has not started the fleet yet.
			if !sleepOrStop(time.Millisecond, stop) {
				return
			}
			k--
			continue
		}
		lr.pubs = append(lr.pubs, rec)
		if !lr.p.serve {
			lr.ops.Add(1)
		}
		due = due.Add(interval)
		if now := time.Now(); due.Before(now) {
			due = now
		}
	}
}

// serveTrace carries the server-side timings of the request in flight. The
// client has one connection and no pipelining, so there is only ever one.
type serveTrace struct {
	handlerStart, handlerEnd, fleetStart, fleetEnd atomic.Int64
}

// middleware times the API handler while tracing is on.
func (lr *liveRun) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !lr.tracing.Load() {
			next.ServeHTTP(w, r)
			return
		}
		lr.st.handlerStart.Store(nowNs())
		next.ServeHTTP(w, r)
		lr.st.handlerEnd.Store(nowNs())
	})
}

// tracedFleet is the api.Fleet the server sees on a traced run: the runner,
// with its two hot calls timed.
type tracedFleet struct {
	*live.Runner
	lr *liveRun
}

func (f tracedFleet) Feed(id news.NodeID) ([]live.FeedEntry, error) {
	if !f.lr.tracing.Load() {
		return f.Runner.Feed(id)
	}
	f.lr.st.fleetStart.Store(nowNs())
	out, err := f.Runner.Feed(id)
	f.lr.st.fleetEnd.Store(nowNs())
	return out, err
}

func (f tracedFleet) Feedback(id news.NodeID, item news.ID, liked bool) error {
	if !f.lr.tracing.Load() {
		return f.Runner.Feedback(id, item, liked)
	}
	f.lr.st.fleetStart.Store(nowNs())
	err := f.Runner.Feedback(id, item, liked)
	f.lr.st.fleetEnd.Store(nowNs())
	return err
}

// feedBody is the slice of the feed response the client checks.
type feedBody struct {
	Entries []struct {
		Item struct {
			ID string `json:"id"`
		} `json:"item"`
		Score float64 `json:"score"`
		Rated bool    `json:"rated"`
		Liked bool    `json:"liked"`
	} `json:"entries"`
}

// rating is an item and the opinion last seen or posted for it.
type rating struct {
	item  string
	liked bool
}

// clientLoop is the open-loop HTTP client: one goroutine, one keep-alive
// connection, request j due at start + j/rate whatever became of request
// j-1, so a stall is charged to every request it delays (see reqRec.start).
func (lr *liveRun) clientLoop(base string, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(lr.seed ^ 0xc1))
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / lr.p.reqRate)
	lastFeed := make(map[int][]rating) // node → its last fetched feed
	posted := make(map[int]rating)     // node → rating awaiting its next GET
	var body bytes.Buffer
	var prevDone int64
	node := rng.Intn(lr.p.nodes)
	start := time.Now()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		if !sleepOrStop(time.Until(due), stop) {
			return
		}
		node = (node + nodeStride) % lr.p.nodes
		rec := reqRec{due: sinceStart(due)}
		method, url, payload := http.MethodGet, fmt.Sprintf("%s/v1/nodes/%d/feed", base, node), ""
		var sent rating
		if feed := lastFeed[node]; rng.Float64() < postShare && len(feed) > 0 {
			// Flip the opinion on an item from the feed this user last read.
			sent = feed[rng.Intn(len(feed))]
			sent.liked = !sent.liked
			rec.post = true
			method, url = http.MethodPost, fmt.Sprintf("%s/v1/nodes/%d/feedback", base, node)
			payload = fmt.Sprintf(`{"item":%q,"liked":%t}`, sent.item, sent.liked)
		}
		rec.sent = nowNs()
		rec.start = rec.sent
		if prevDone > rec.due {
			rec.start = rec.due
		}
		body.Reset()
		req, err := http.NewRequest(method, url, strings.NewReader(payload))
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(req); err == nil {
				_, err = io.Copy(&body, resp.Body)
				resp.Body.Close()
				rec.status = resp.StatusCode
			}
		}
		if err != nil {
			rec.status = 0 // a request that failed in transit is a non-2xx
		}
		rec.done = nowNs()
		rec.bytes = body.Len()
		if lr.tracing.Load() {
			rec.handlerStart, rec.handlerEnd = lr.st.handlerStart.Load(), lr.st.handlerEnd.Load()
			rec.fleetStart, rec.fleetEnd = lr.st.fleetStart.Load(), lr.st.fleetEnd.Load()
		}
		switch {
		case rec.status/100 != 2:
			// counted as a failed operation when the window is tallied
		case rec.post:
			posted[node] = sent
		default:
			rec.entries = lr.checkFeed(node, body.Bytes(), lastFeed, posted)
		}
		prevDone = rec.done
		lr.reqs = append(lr.reqs, rec)
		lr.ops.Add(1)
	}
}

// checkFeed verifies one feed body — it decodes, entries are ranked by
// descending score, and a rating posted since the node's previous GET shows
// — and remembers the feed for later POSTs. Returns the entry count.
func (lr *liveRun) checkFeed(node int, body []byte, lastFeed map[int][]rating, posted map[int]rating) int {
	var feed feedBody
	if err := json.Unmarshal(body, &feed); err != nil {
		lr.checkFails = append(lr.checkFails, fmt.Sprintf("node %d feed does not decode: %v", node, err))
		return 0
	}
	ratings := lastFeed[node][:0]
	want, pending := posted[node]
	for i, e := range feed.Entries {
		if i > 0 && e.Score > feed.Entries[i-1].Score {
			lr.checkFails = append(lr.checkFails, fmt.Sprintf("node %d feed not sorted by score at entry %d", node, i))
			break
		}
		if pending && e.Item.ID == want.item && (!e.Rated || e.Liked != want.liked) {
			lr.checkFails = append(lr.checkFails, fmt.Sprintf("node %d: rating posted for %s does not show on the next GET", node, want.item))
		}
		ratings = append(ratings, rating{item: e.Item.ID, liked: e.Liked})
	}
	delete(posted, node)
	lastFeed[node] = ratings
	return len(feed.Entries)
}

// probeLoop measures how long work waits for a node goroutine: a Snapshot
// round trip through the control channel, probeRate times a second while
// tracing is on.
func (lr *liveRun) probeLoop(stop <-chan struct{}) {
	node := 0
	for sleepOrStop(time.Second/probeRate, stop) {
		if !lr.tracing.Load() {
			continue
		}
		node = (node + nodeStride) % lr.p.nodes
		t := time.Now()
		if _, err := lr.runner.Snapshot(news.NodeID(node)); err == nil {
			lr.probes = append(lr.probes, us(time.Since(t)))
		}
	}
}

// runLive runs one live-fleet workload. The window closes at the deadline;
// set-up is everything from process start until it opens. With trace set it
// reports the per-layer metrics, otherwise the end-to-end ones.
func runLive(p liveParams, seed int64, deadline time.Time, trace bool, log *spanLog) *report {
	rep := newReport(p.name)
	lr := &liveRun{p: p, seed: seed, deliveries: make([]deliveryRec, 0, 1<<16)}
	var calib []float64
	if trace {
		calib = append(calib, calibrate())
	}

	cfg := live.Config{
		Seed: seed, Cycles: -1, CycleLength: p.cycle, FeedCapacity: 64,
		NodeConfig: core.Config{FLike: 5, RPSViewSize: 20, ProfileWindow: 60},
		Opinions: core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
			return uint64(item)%liveCommunities == uint64(node)%liveCommunities
		}),
		OnDelivery: lr.onDelivery,
	}
	lr.runner = live.NewRunner(cfg, dataset.Blank(p.nodes, 0), live.NewChannelNet(seed, 0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	var workers sync.WaitGroup
	spawn := func(fn func()) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			fn()
		}()
	}
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		lr.runner.RunContext(ctx)
	}()
	fleetUp := time.Now()

	var srv *http.Server
	served := make(chan struct{})
	if p.serve {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rep.check(false, "listen: "+err.Error())
			cancel()
			<-runDone
			return rep
		}
		var handler http.Handler = api.NewServer(lr.runner, nil)
		if trace {
			handler = lr.middleware(api.NewServer(tracedFleet{Runner: lr.runner, lr: lr}, nil))
		}
		srv = &http.Server{Handler: handler}
		go func() {
			defer close(served)
			srv.Serve(ln) // returns ErrServerClosed once Close is called below
		}()
		base := "http://" + ln.Addr().String()
		spawn(func() { lr.clientLoop(base, stop) })
	}
	spawn(func() { lr.publishLoop(stop) })
	if trace {
		spawn(func() { lr.probeLoop(stop) })
	}

	// Warm-up: the overlay clusters and feeds fill under the same load.
	time.Sleep(time.Until(fleetUp.Add(p.warmup)))
	window := max(time.Until(deadline), p.slice)

	winStart := time.Now()
	setup := winStart.Sub(processStart)
	bytes0 := lr.runner.Stats().Bytes
	mem0 := readMem()
	// The window is cut into equal slices — one gossip tick each, at the real
	// cycle length — and CPU per operation is the median slice's, so a slice
	// that pays for a collection or loses its core to a neighbour does not
	// move the result. A traced run turns its timers on in every other slice:
	// both sets see the same fleet age, and their ratio is the overhead.
	var onCPU, offCPU []float64
	for i, n := 0, max(1, int(window/p.slice)); i < n; i++ {
		on := trace && i%2 == 0
		lr.tracing.Store(on)
		c, o := cpuTime(), lr.ops.Load()
		time.Sleep(time.Until(winStart.Add(time.Duration(i+1) * p.slice)))
		c, o = cpuTime()-c, lr.ops.Load()-o
		switch {
		case o == 0:
		case on:
			onCPU = append(onCPU, us(c)/float64(o))
		default:
			offCPU = append(offCPU, us(c)/float64(o))
		}
	}
	lr.tracing.Store(false)
	winEnd := time.Now()
	mem1 := readMem()
	wire := lr.runner.Stats().Bytes - bytes0

	// Stop the generators, let the last cascade finish, then take the heap
	// with the fleet still up.
	close(stop)
	workers.Wait()
	for until := time.Now().Add(p.late); time.Now().Before(until); {
		if nowNs()-lr.lastDelivery.Load() > (100 * time.Millisecond).Nanoseconds() {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	heap := liveHeapBytes()
	cycles := lr.runner.Cycle()
	cancel()
	<-runDone
	if srv != nil {
		srv.Close()
		<-served
	}
	if trace {
		calib = append(calib, calibrate())
	}

	w0, w1 := sinceStart(winStart), sinceStart(winEnd)
	seconds := winEnd.Sub(winStart).Seconds()
	it := lr.tallyItems(w0, w1, rep)
	rq := lr.tallyRequests(w0, w1, rep)

	ops := float64(it.published)
	if p.serve {
		ops = float64(rq.ok2xx)
	}
	v := rep.values
	v["work_per_s"] = ops / seconds
	v["op_ms_p50"] = median(it.likedLat)
	if p.serve {
		v["op_ms_p50"] = median(rq.getLat)
	}
	v["cpu_us_per_op"] = median(offCPU)
	if !trace {
		v["setup_s"] = setup.Seconds()
		v["allocs_per_op"] = ratio(float64(mem1.mallocs-mem0.mallocs), ops)
		v["wire_bytes_per_op"] = ratio(float64(wire), ops)
		v["heap_kb_per_peer"] = float64(heap) / 1024 / float64(p.nodes)
		v["peak_rss_mb"] = peakRSSMB()
		v["recall"] = ratio(float64(it.reached), float64(it.possible))
		return rep
	}

	// Per-layer: the fleet is stopped, so its nodes and collector are safe
	// to read directly.
	nodes := make([]*core.Node, p.nodes)
	for i := range nodes {
		nodes[i] = lr.runner.Node(news.NodeID(i))
	}
	for name, val := range runKernels(sampleFixtures(nodes, seed), seed, p.kernel) {
		v[name] = val
	}
	col := lr.runner.Collector()
	v["live.publish_call_us"] = mean(it.publishCall)
	v["live.hop_ms_p50"] = median(it.hopLat)
	v["live.hops_mean"] = mean(it.hops)
	v["live.first_delivery_ms_p50"] = median(it.firstLat)
	v["live.cascade_ms_p50"] = median(it.cascade)
	v["live.publish_to_feed_ms_p95"] = quantile(it.likedLat, 0.95)
	v["live.publish_to_feed_ms_p99"] = quantile(it.likedLat, 0.99)
	v["live.late_share"] = ratio(float64(it.late), float64(len(it.likedLat)))
	v["live.ctl_roundtrip_us_p50"] = median(lr.probes)
	v["live.ctl_roundtrip_us_p99"] = quantile(lr.probes, 0.99)
	v["live.gossip_bytes_per_node_cycle"] = ratio(float64(col.GossipBytes()), float64(p.nodes)*float64(cycles))
	v["live.beep_bytes_per_item"] = ratio(float64(col.Bytes(metrics.MsgBeep)), float64(len(lr.pubs)))
	v["live.gc_pause_ms"] = float64(mem1.pauseNs-mem0.pauseNs) / 1e6
	v["live.feed_call_us_p50"] = median(rq.feedCall)
	v["live.feedback_call_us_p50"] = median(rq.feedbackCall)
	v["api.get_ms_p95"] = quantile(rq.getLat, 0.95)
	v["api.get_ms_p99"] = quantile(rq.getLat, 0.99)
	v["api.post_ms_p50"] = median(rq.postLat)
	v["api.post_ms_p99"] = quantile(rq.postLat, 0.99)
	v["api.handler_us_p50"] = median(rq.handler)
	v["api.http_overhead_us_p50"] = median(rq.overhead)
	v["api.encode_us_p50"] = median(rq.encode)
	v["api.feed_entries_mean"] = mean(rq.entries)
	v["api.response_bytes_mean"] = mean(rq.respBytes)
	v["api.generator_lag_ms_p99"] = quantile(rq.lag, 0.99)
	v["api.non2xx"] = float64(rq.non2xx)
	v["host.calib_ops_per_ms"] = median(calib)
	v["host.calib_spread"] = ratio(slices.Max(calib)-slices.Min(calib), median(calib))
	if len(onCPU) > 0 && len(offCPU) > 0 {
		v["trace.overhead_share"] = median(onCPU)/median(offCPU) - 1
	}
	if log != nil {
		lr.writeSpans(log, it.items, w0, w1)
	}
	return rep
}

// itemStat is one window publication joined to its deliveries.
type itemStat struct {
	pub         pubRec
	first, last int64 // first and last delivery, ns since process start
	early       int   // liked deliveries inside the lateness limit
}

// itemTally is what the window's publications came to.
type itemTally struct {
	items                                                  map[news.ID]*itemStat
	published                                              int // publishes that succeeded
	possible, reached, late                                int // interested pairs; reached in time; liked but late
	publishCall, likedLat, hopLat, hops, firstLat, cascade []float64
}

// tallyItems joins the deliveries to the publications of the window
// [w0, w1) and counts publish errors and undelivered items into rep.
func (lr *liveRun) tallyItems(w0, w1 int64, rep *report) itemTally {
	t := itemTally{items: make(map[news.ID]*itemStat)}
	var pubErrs, undelivered int
	for _, pr := range lr.pubs {
		switch {
		case pr.at < w0 || pr.at >= w1:
		case pr.err != nil:
			pubErrs++
		default:
			t.published++
			t.items[pr.id] = &itemStat{pub: pr}
			t.publishCall = append(t.publishCall, float64(pr.done-pr.at)/1e3)
		}
	}
	for _, d := range lr.deliveries { // in time order: the collector lock serialized them
		it := t.items[d.item]
		if it == nil {
			continue
		}
		if it.first == 0 {
			it.first = d.at
		}
		it.last = d.at
		if !d.liked {
			continue
		}
		lat := d.at - it.pub.at
		if lat <= lr.p.late.Nanoseconds() {
			it.early++
		} else {
			t.late++
		}
		t.likedLat = append(t.likedLat, float64(lat)/1e6)
		t.hops = append(t.hops, float64(d.hops))
		t.hopLat = append(t.hopLat, float64(lat)/1e6/float64(max(1, d.hops)))
	}
	for _, it := range t.items {
		t.possible += it.pub.interested
		t.reached += it.early
		if it.first == 0 {
			undelivered++
		} else {
			t.firstLat = append(t.firstLat, float64(it.first-it.pub.at)/1e6)
			t.cascade = append(t.cascade, float64(it.last-it.pub.at)/1e6)
		}
	}
	rep.attempted += int64(t.published + pubErrs)
	rep.failed += int64(pubErrs + undelivered)
	if pubErrs > 0 {
		rep.failures = append(rep.failures, fmt.Sprintf("%d publishes returned an error", pubErrs))
	}
	if undelivered > 0 {
		rep.failures = append(rep.failures, fmt.Sprintf("%d published items were delivered to no one", undelivered))
	}
	rep.check(t.published > 0, "nothing was published inside the window")
	return t
}

// reqTally is what the window's HTTP requests came to; latencies in ms,
// server-side timings in µs.
type reqTally struct {
	ok2xx, non2xx                                     int
	getLat, postLat, lag, entries, respBytes          []float64
	handler, overhead, encode, feedCall, feedbackCall []float64
}

// tallyRequests sorts the requests due in the window [w0, w1) and, on the
// serving workload, counts failures and failed feed checks into rep.
func (lr *liveRun) tallyRequests(w0, w1 int64, rep *report) reqTally {
	var t reqTally
	for _, r := range lr.reqs {
		if r.due < w0 || r.due >= w1 {
			continue
		}
		if r.status/100 != 2 {
			t.non2xx++
			continue
		}
		t.ok2xx++
		lat := float64(r.done-r.start) / 1e6
		t.lag = append(t.lag, float64(r.sent-r.due)/1e6)
		t.respBytes = append(t.respBytes, float64(r.bytes))
		if r.post {
			t.postLat = append(t.postLat, lat)
		} else {
			t.getLat = append(t.getLat, lat)
			t.entries = append(t.entries, float64(r.entries))
		}
		if !r.serverTimed() {
			continue
		}
		h := float64(r.handlerEnd-r.handlerStart) / 1e3
		f := float64(r.fleetEnd-r.fleetStart) / 1e3
		t.handler = append(t.handler, h)
		t.overhead = append(t.overhead, float64(r.done-r.sent)/1e3-h)
		t.encode = append(t.encode, h-f)
		if r.post {
			t.feedbackCall = append(t.feedbackCall, f)
		} else {
			t.feedCall = append(t.feedCall, f)
		}
	}
	if lr.p.serve {
		rep.attempted += int64(t.ok2xx + t.non2xx)
		rep.failed += int64(t.non2xx + len(lr.checkFails))
		if t.non2xx > 0 {
			rep.failures = append(rep.failures, fmt.Sprintf("%d requests did not get a 2xx", t.non2xx))
		}
		rep.failures = append(rep.failures, lr.checkFails...)
		rep.check(len(t.getLat) > 0, "no feed GET completed inside the window")
	}
	return t
}

// serverTimed reports whether the server-side timings the client copied
// belong to this request (tracing was on for the whole of it).
func (r reqRec) serverTimed() bool { return r.handlerStart > r.sent && r.handlerEnd <= r.done }

// writeSpans records one trace per published item with its deliveries as
// children, and one per traced request with the handler and the fleet call
// nested inside.
func (lr *liveRun) writeSpans(log *spanLog, items map[news.ID]*itemStat, w0, w1 int64) {
	at := func(ns int64) time.Time { return processStart.Add(time.Duration(ns)) }
	roots := make(map[news.ID]int64, len(items))
	for id, it := range items {
		root := log.add(0, 0, "live.publish", at(it.pub.at), at(max(it.last, it.pub.done)), map[string]float64{"interested": float64(it.pub.interested)})
		log.add(root, root, "live.publish_call", at(it.pub.at), at(it.pub.done), nil)
		roots[id] = root
	}
	for _, d := range lr.deliveries {
		if root, ok := roots[d.item]; ok {
			liked := 0.0
			if d.liked {
				liked = 1
			}
			log.add(root, root, "live.delivery", at(items[d.item].pub.at), at(d.at), map[string]float64{"node": float64(d.node), "hops": float64(d.hops), "liked": liked})
		}
	}
	for _, r := range lr.reqs {
		if r.due < w0 || r.due >= w1 || !r.serverTimed() {
			continue
		}
		name := "http.get_feed"
		if r.post {
			name = "http.post_feedback"
		}
		root := log.add(0, 0, name, at(r.due), at(r.done), map[string]float64{"status": float64(r.status), "lag_ns": float64(r.sent - r.due)})
		h := log.add(root, root, "api.handler", at(r.handlerStart), at(r.handlerEnd), nil)
		log.add(root, h, "live.fleet_call", at(r.fleetStart), at(r.fleetEnd), nil)
	}
}
