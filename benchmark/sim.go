package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/sim"
)

// simParams sizes one simulator workload. The two real workloads differ only
// in the churn/shard switches, so each is the other's control.
type simParams struct {
	name         string
	peers        int
	warm         int // untimed cycles after Bootstrap
	cycles       int // timed cycles per replicate
	pubsPerCycle int
	minReps      int // replicates run whatever the time budget
	maxReps      int
	churn        bool // churn protocol v2 on (trace, notices, refill, TTL)
	workers      int
	shards       int
	kernel       time.Duration // traced run: how long each unit-cost kernel runs
}

func simChurnParams() simParams {
	return simParams{name: "sim-churn", peers: 2000, warm: 10, cycles: 20, pubsPerCycle: 6,
		minReps: 3, maxReps: 6, churn: true, workers: 1, shards: 1, kernel: kernelTime}
}

func simShardedParams() simParams {
	return simParams{name: "sim-sharded", peers: 2000, warm: 10, cycles: 20, pubsPerCycle: 6,
		minReps: 3, maxReps: 6, workers: 2, shards: 4, kernel: kernelTime}
}

// communities is the number of interest groups: node n likes item i exactly
// when n%communities == i%communities.
const communities = 4

// simWorld is one freshly built replicate of a workload's world.
type simWorld struct {
	engine *sim.Engine
	col    *metrics.Collector
	nodes  []*core.Node
	// states[c][n] is node n's lifecycle state after cycle c's churn events,
	// predicted from the schedule alone; eventsAt[c] counts cycle c's events.
	states   [][]sim.MemberState
	eventsAt []int
	// windowItems are the ids published in the timed cycles.
	windowItems []news.ID
}

// predictStates replays a churn schedule on a bare state table.
func predictStates(schedule sim.ChurnSchedule, peers, lastCycle int) (states [][]sim.MemberState, eventsAt []int) {
	states = make([][]sim.MemberState, lastCycle+1)
	eventsAt = make([]int, lastCycle+1)
	cur := make([]sim.MemberState, peers)
	states[0] = slices.Clone(cur)
	next := 0
	for c := 1; c <= lastCycle; c++ {
		for next < len(schedule.Events) && schedule.Events[next].Cycle <= int64(c) {
			ev := schedule.Events[next]
			next++
			switch ev.Kind {
			case sim.ChurnCrash:
				cur[ev.Node] = sim.Offline
			case sim.ChurnLeave:
				cur[ev.Node] = sim.Departed
			case sim.ChurnRejoin:
				cur[ev.Node] = sim.Online
			}
			eventsAt[c]++
		}
		states[c] = slices.Clone(cur)
	}
	return states, eventsAt
}

// buildSimWorld generates the workload's inputs from the seed — node RNG
// streams, churn trace, publication sources — and builds the engine over
// them. wrap lets a traced run interpose on every peer.
func buildSimWorld(p simParams, seed int64, wrap func(*core.Node) sim.Peer) *simWorld {
	total := p.warm + p.cycles
	opinions := core.OpinionFunc(func(node news.NodeID, item news.ID) bool {
		return int(node)%communities == int(item)%communities
	})
	nodeCfg := core.Config{FLike: 6, RPSViewSize: 20}
	var schedule sim.ChurnSchedule
	if p.churn {
		nodeCfg.DescriptorTTL = 15
		schedule = sim.ChurnTrace(sim.ChurnTraceConfig{
			Seed: seed, Nodes: p.peers, From: 1, To: int64(total) + 1,
			CrashRate: 0.01, LeaveRate: 0.001, Downtime: 5,
		})
	}
	w := &simWorld{col: metrics.NewCollector(), nodes: make([]*core.Node, p.peers)}
	w.states, w.eventsAt = predictStates(schedule, p.peers, total)

	peers := make([]sim.Peer, p.peers)
	for i := range peers {
		n := core.NewNode(news.NodeID(i), "", nodeCfg, opinions,
			rand.New(rand.NewSource(seed*1_000_003+int64(i))))
		w.nodes[i] = n
		w.col.RegisterNode(n.ID(), 0)
		if wrap != nil {
			peers[i] = wrap(n)
		} else {
			peers[i] = n
		}
	}

	// Each item is published by an online member of the community that likes
	// it, so no publication is skipped and full recall is reachable.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perCommunity := p.peers / communities
	pubs := make([]sim.Publication, 0, total*p.pubsPerCycle)
	for c := 1; c <= total; c++ {
		for k := 0; k < p.pubsPerCycle; k++ {
			id := news.ID(c*p.pubsPerCycle + k)
			src := rng.Intn(perCommunity)*communities + int(id)%communities
			for w.states[c][src] != sim.Online {
				src = (src + communities) % p.peers
			}
			it := news.New(fmt.Sprintf("bench-%d-%d", c, k), "d", "l", int64(c), news.NodeID(src))
			it.ID = id
			pubs = append(pubs, sim.Publication{Cycle: int64(c), Source: it.Source, Item: it})
			if c <= p.warm {
				w.col.RegisterWarmupItem(id, perCommunity-1)
			} else {
				w.col.RegisterItem(id, perCommunity-1)
				w.windowItems = append(w.windowItems, id)
			}
		}
	}

	cfg := sim.Config{
		Seed: seed, Cycles: total, Workers: p.workers, Shards: p.shards,
		BootstrapDegree: 5, Publications: pubs, Churn: schedule,
	}
	if p.churn {
		cfg.DepartureNotices = true
		cfg.RefillWatermark = 0.5
	}
	w.engine = sim.New(cfg, peers, w.col)
	return w
}

// simReplicate is what one replicate measured.
type simReplicate struct {
	setup     time.Duration
	steps     []time.Duration // wall time of each timed cycle
	cpus      []time.Duration // CPU time of each timed cycle
	allocs    uint64
	wireBytes int64
	heap      uint64
	recall    float64
	digest    string
	shard     sim.ShardStats // window delta
	online    int
	failures  []string
	unreached int // window items no peer received
	messages  [kindCount]int64
}

// kindCount is the number of message kinds the collector distinguishes.
const kindCount = int(metrics.MsgRefillReply) + 1

// collectorDigest summarizes everything the determinism contract promises to
// repeat: messages and bytes per kind, deliveries, the recall bits and the
// shard router's counters.
func collectorDigest(w *simWorld) string {
	col := w.col
	d := ""
	for k := 0; k < kindCount; k++ {
		d += fmt.Sprintf("%d/%d ", col.Messages(metrics.MessageKind(k)), col.Bytes(metrics.MessageKind(k)))
	}
	var deliveries int
	for _, n := range w.nodes {
		deliveries += col.Node(n.ID()).Received
	}
	st := w.engine.ShardStats()
	return d + fmt.Sprintf("deliv=%d recall=%x shard=%d/%d/%d online=%d",
		deliveries, math.Float64bits(col.Recall()), st.Crossings, st.Batches, st.BatchBytes, w.engine.OnlineCount())
}

// runSimReplicate builds the world, warms it and times p.cycles engine
// steps. Only one world is alive at a time; the caller collects between.
func runSimReplicate(p simParams, seed int64, tr *simTrace) (simReplicate, *simWorld) {
	var wrap func(*core.Node) sim.Peer
	if tr != nil {
		wrap = tr.wrap
	}
	start := time.Now()
	w := buildSimWorld(p, seed, wrap)
	w.engine.Bootstrap()
	for i := 0; i < p.warm; i++ {
		w.engine.Step()
	}
	runtime.GC() // every window starts from a collected heap
	rep := simReplicate{setup: time.Since(start), steps: make([]time.Duration, p.cycles), cpus: make([]time.Duration, p.cycles)}

	bytes0, shard0 := w.col.TotalBytes(), w.engine.ShardStats()
	var msgs0 [kindCount]int64
	for k := 0; k < kindCount; k++ {
		msgs0[k] = w.col.Messages(metrics.MessageKind(k))
	}
	mem0 := readMem()
	for c := range rep.steps {
		t, cpu := time.Now(), cpuTime()
		w.engine.Step()
		end := time.Now()
		rep.steps[c], rep.cpus[c] = end.Sub(t), cpuTime()-cpu
		if tr != nil {
			tr.endStep(t, end)
		}
	}
	rep.allocs = readMem().mallocs - mem0.mallocs
	rep.wireBytes = w.col.TotalBytes() - bytes0
	for k := 0; k < kindCount; k++ {
		rep.messages[k] = w.col.Messages(metrics.MessageKind(k)) - msgs0[k]
	}
	shard1 := w.engine.ShardStats()
	rep.shard = sim.ShardStats{
		Crossings:  shard1.Crossings - shard0.Crossings,
		Batches:    shard1.Batches - shard0.Batches,
		BatchBytes: shard1.BatchBytes - shard0.BatchBytes,
	}
	rep.heap = liveHeapBytes()
	rep.recall = w.col.Recall()
	rep.digest = collectorDigest(w)
	rep.online = w.engine.OnlineCount()

	// The engine must have applied exactly the schedule: every member in the
	// lifecycle state the trace predicts.
	final := w.states[p.warm+p.cycles]
	wrong := 0
	for i, n := range w.nodes {
		if st, ok := w.engine.State(n.ID()); !ok || st != final[i] {
			wrong++
		}
	}
	if wrong > 0 {
		rep.failures = append(rep.failures, fmt.Sprintf("%d members not in the state the churn schedule predicts", wrong))
	}
	for _, id := range w.windowItems {
		if st := w.col.Item(id); st == nil || st.Reached == 0 {
			rep.unreached++
		}
	}
	return rep, w
}

// windowEvents counts the churn events scheduled inside the timed cycles.
func (w *simWorld) windowEvents(p simParams) int {
	n := 0
	for c := p.warm + 1; c <= p.warm+p.cycles; c++ {
		n += w.eventsAt[c]
	}
	return n
}

// envelope folds the replicates' per-cycle times into the lower envelope:
// cycle c's time is the fastest any replicate ran it, in milliseconds. The
// sim is deterministic, so replicates do identical work and interference can
// only ever add time.
func envelope(reps []simReplicate, times func(simReplicate) []time.Duration) []float64 {
	env := make([]float64, len(times(reps[0])))
	for c := range env {
		best := times(reps[0])[c]
		for _, r := range reps[1:] {
			best = min(best, times(r)[c])
		}
		env[c] = ms(best)
	}
	return env
}

// measureSim runs the workload's untraced replicates — as many as fit in the
// budget between p.minReps and p.maxReps — and checks them: identical
// digests, the schedule applied, every publication delivered.
func measureSim(p simParams, seed int64, budget time.Duration, rep *report) []simReplicate {
	began := time.Now()
	var reps []simReplicate
	var events int
	for len(reps) < p.maxReps {
		if n := len(reps); n >= p.minReps {
			// Start another replicate only if one more of average length fits.
			spent := time.Since(began)
			if spent+spent/time.Duration(n) > budget {
				break
			}
		}
		runtime.GC()
		r, w := runSimReplicate(p, seed, nil)
		events = w.windowEvents(p)
		reps = append(reps, r)
	}

	first := reps[0]
	for i, r := range reps {
		rep.check(r.digest == first.digest, fmt.Sprintf("replicate %d digest differs from replicate 0:\n  %s\n  %s", i, r.digest, first.digest))
		for _, f := range r.failures {
			rep.check(false, fmt.Sprintf("replicate %d: %s", i, f))
		}
	}
	rep.attempted += int64(p.cycles * p.pubsPerCycle)
	rep.failed += int64(first.unreached)
	if first.unreached > 0 {
		rep.failures = append(rep.failures, fmt.Sprintf("%d published items reached no peer", first.unreached))
	}
	if p.shards > 1 {
		rep.check(first.shard.Crossings > 0, "sharded run routed no exchange across shards")
	}
	if p.churn {
		rep.check(events > 0, "churn schedule has no event inside the window")
	}
	return reps
}

// simValues computes the six gated metrics and the three ungated timings
// from a workload's replicates.
func simValues(p simParams, reps []simReplicate, v map[string]float64) {
	ops := float64(p.peers * p.cycles)
	env := envelope(reps, func(r simReplicate) []time.Duration { return r.steps })
	cpuEnv := envelope(reps, func(r simReplicate) []time.Duration { return r.cpus })
	best := func(f func(simReplicate) float64) float64 {
		v := f(reps[0])
		for _, r := range reps[1:] {
			v = math.Min(v, f(r))
		}
		return v
	}
	v["setup_s"] = best(func(r simReplicate) float64 { return r.setup.Seconds() })
	v["work_per_s"] = ops / (sum(env) / 1e3)
	v["op_ms_p50"] = median(env)
	v["cpu_us_per_op"] = sum(cpuEnv) * 1e3 / ops
	v["allocs_per_op"] = best(func(r simReplicate) float64 { return float64(r.allocs) }) / ops
	v["wire_bytes_per_op"] = float64(reps[0].wireBytes) / ops
	v["heap_kb_per_peer"] = best(func(r simReplicate) float64 { return float64(r.heap) }) / 1024 / float64(p.peers)
	v["peak_rss_mb"] = peakRSSMB()
	v["recall"] = reps[0].recall
}

// runSim is the untraced run of a simulator workload.
func runSim(p simParams, seed int64, budget time.Duration) *report {
	rep := newReport(p.name)
	simValues(p, measureSim(p, seed, budget, rep), rep.values)
	return rep
}

// simTrace interposes on every peer of a traced replicate: it times the
// calls the engine makes into core.Node and counts their outcomes. Counters
// are atomic because the sharded engine calls peers from one goroutine per
// shard.
type simTrace struct {
	log *spanLog

	receiveNs, receiveCalls, duplicates, deliveries, forwards atomic.Int64
	beginNs, beginCalls                                       atomic.Int64
	publishNs, publishCalls                                   atomic.Int64
	injectNs, injectCalls                                     atomic.Int64

	last  [4]int64 // per-step baselines: receive, begin, publish, inject ns
	lastN [4]int64
}

// tracedPeer is the sim.Peer the engine sees in a traced replicate. The
// embedded node keeps every optional engine interface (Crasher, Rejoiner,
// DepartureNoticer, ...) satisfied.
type tracedPeer struct {
	*core.Node
	tr *simTrace
}

func (t *simTrace) wrap(n *core.Node) sim.Peer { return tracedPeer{Node: n, tr: t} }

func (p tracedPeer) BeginCycle(now int64) {
	t := time.Now()
	p.Node.BeginCycle(now)
	p.tr.beginNs.Add(int64(time.Since(t)))
	p.tr.beginCalls.Add(1)
}

func (p tracedPeer) InjectRPSCandidates() {
	t := time.Now()
	p.Node.InjectRPSCandidates()
	p.tr.injectNs.Add(int64(time.Since(t)))
	p.tr.injectCalls.Add(1)
}

func (p tracedPeer) Publish(item news.Item, now int64) []core.Send {
	t := time.Now()
	sends := p.Node.Publish(item, now)
	p.tr.publishNs.Add(int64(time.Since(t)))
	p.tr.publishCalls.Add(1)
	p.tr.forwards.Add(int64(len(sends)))
	return sends
}

func (p tracedPeer) Receive(msg core.ItemMessage, now int64) (core.Delivery, []core.Send) {
	t := time.Now()
	d, sends := p.Node.Receive(msg, now)
	p.tr.receiveNs.Add(int64(time.Since(t)))
	p.tr.receiveCalls.Add(1)
	if d.Duplicate {
		p.tr.duplicates.Add(1)
	} else {
		p.tr.deliveries.Add(1)
	}
	p.tr.forwards.Add(int64(len(sends)))
	return d, sends
}

// endStep closes one engine step: a trace rooted at the step span, with one
// child per wrapped call kind carrying that kind's summed time and count
// (one span per call would be tens of thousands per step).
func (t *simTrace) endStep(start, end time.Time) {
	if t.log == nil {
		return
	}
	step := t.log.add(0, 0, "sim.step", start, end, nil)
	now := [4]int64{t.receiveNs.Load(), t.beginNs.Load(), t.publishNs.Load(), t.injectNs.Load()}
	nowN := [4]int64{t.receiveCalls.Load(), t.beginCalls.Load(), t.publishCalls.Load(), t.injectCalls.Load()}
	for i, name := range [4]string{"core.receive", "core.begin_cycle", "core.publish", "core.inject_rps"} {
		t.log.add(step, step, name, start, start.Add(time.Duration(now[i]-t.last[i])),
			map[string]float64{"calls": float64(nowN[i] - t.lastN[i])})
	}
	t.last, t.lastN = now, nowN
}

// runSimTraced is the traced run of a simulator workload: two untraced
// replicates for the ungated timings, one replicate with every peer wrapped,
// then the unit-cost kernels over fixtures sampled from the warmed world.
func runSimTraced(p simParams, seed int64, log *spanLog) *report {
	rep := newReport(p.name)
	untraced := p
	untraced.minReps, untraced.maxReps = 2, 2
	reps := measureSim(untraced, seed, 0, rep)
	all := make(map[string]float64)
	simValues(p, reps, all)
	calib := []float64{calibrate()}

	base := reps[1] // the tracing overhead is judged against an untraced replicate of the same configuration
	if p.shards > 1 {
		// Step minus the wrapped calls is the engine's own time only when
		// peers run one at a time: one worker per shard and one processor.
		p.workers = 1
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		runtime.GC()
		base, _ = runSimReplicate(p, seed, nil)
		calib = append(calib, calibrate())
	}
	runtime.GC()
	tr := &simTrace{log: log}
	traced, w := runSimReplicate(p, seed, tr)
	calib = append(calib, calibrate())

	rep.check(traced.digest == reps[0].digest, "traced replicate digest differs from the untraced one")
	for _, f := range traced.failures {
		rep.check(false, f)
	}

	stepTotal, baseTotal := sum(traced.steps), sum(base.steps)
	cycles := float64(p.cycles)
	peerNs := tr.receiveNs.Load() + tr.beginNs.Load() + tr.publishNs.Load() + tr.injectNs.Load()

	fx := sampleFixtures(w.nodes, seed)
	k := runKernels(fx, seed, p.kernel)

	// Reconciliation: what the measured peer calls plus unit cost × count of
	// the engine-side operations explain of the step time. The rest is the
	// engine's own sorting, bucketing, scheduling, churn application and GC.
	explained := float64(peerNs) +
		k["rps.exchange_ns"]*float64(traced.messages[metrics.MsgRPSRequest]) +
		k["cluster.exchange_ns"]*float64(traced.messages[metrics.MsgWUPRequest]) +
		k["metrics.record_delivery_ns"]*float64(tr.deliveries.Load()) +
		k["metrics.merge_ns"]*cycles*float64(max(1, p.shards)) +
		(k["overlay.descriptors_encode_ns"]+k["overlay.descriptors_decode_ns"])*float64(traced.shard.Crossings)

	v := rep.values
	for name, val := range k {
		v[name] = val
	}
	for _, name := range []string{"work_per_s", "op_ms_p50", "cpu_us_per_op"} {
		v[name] = all[name]
	}
	v["sim.step_ms"] = ms(stepTotal) / cycles
	v["sim.engine_self_ms"] = ms(stepTotal-time.Duration(peerNs)) / cycles
	v["sim.churn_events"] = float64(w.windowEvents(p))
	v["sim.online_peers"] = float64(traced.online)
	v["sim.shard_crossings"] = float64(traced.shard.Crossings) / cycles
	v["sim.shard_batch_bytes"] = float64(traced.shard.BatchBytes) / cycles
	v["sim.explained_share"] = ratio(explained, float64(stepTotal))
	v["core.receive_calls"] = float64(tr.receiveCalls.Load()) / cycles
	v["core.receive_us"] = ratio(float64(tr.receiveNs.Load())/1e3, float64(tr.receiveCalls.Load()))
	v["core.receive_share"] = ratio(float64(tr.receiveNs.Load()), float64(stepTotal))
	v["core.begin_cycle_us"] = ratio(float64(tr.beginNs.Load())/1e3, float64(tr.beginCalls.Load()))
	v["core.begin_cycle_share"] = ratio(float64(tr.beginNs.Load()), float64(stepTotal))
	v["core.publish_us"] = ratio(float64(tr.publishNs.Load())/1e3, float64(tr.publishCalls.Load()))
	v["core.duplicate_share"] = ratio(float64(tr.duplicates.Load()), float64(tr.receiveCalls.Load()))
	v["core.forwards_per_delivery"] = ratio(float64(tr.forwards.Load()), float64(tr.deliveries.Load()))
	v["host.calib_ops_per_ms"] = median(calib)
	v["host.calib_spread"] = ratio(slices.Max(calib)-slices.Min(calib), median(calib))
	v["trace.overhead_share"] = ratio(float64(stepTotal-baseTotal), float64(baseTotal))
	return rep
}
