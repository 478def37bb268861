package main

import "encoding/json"

// This file is the benchmark's contract with BENCHMARK.json at the repo
// root: the command, the workloads and every metric name, unit, direction
// and bound. `-spec` prints it in BENCHMARK.json's shape and the package
// test fails when the two disagree.

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures,
// set-up included. The harness makes 4 + 22 × 4 runs inside 3420 s, so a
// run has about 37 s in all; 24 s measured leaves room for process start,
// the build-cache check, tear-down and a host slower than the reference box.
const runSeconds = 24

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var workloads = []workloadSpec{
	{"sim-churn", "2000 peers, serial engine, churn protocol v2 on: membership (applyChurn, refillViews, graveyard, eviction scans) does most of its work here and the codec none"},
	{"sim-sharded", "same world without churn, Workers 2 x Shards 4: the worker pool and the cross-shard codec route do most of their work here and membership none"},
	{"live-publish", "300-node live fleet on ChannelNet, paced 25 items/s: control-channel hop, live codec, goroutine hand-off and the collector lock, with no API in the way"},
	{"serve-mixed", "same fleet behind the HTTP API, open-loop 400 req/s (90% feed GET, 10% feedback POST) while 10 items/s publish: reads and writes share one node goroutine"},
}

// endToEnd lists what a user of the system sees and the harness gates.
// BENCHMARK.json holds one bound per metric for all four workloads, and the
// harness refuses a bound narrower than the spread of ten runs with ten
// different seeds, so each bound is about three times the widest spread
// measured on the reference box, capped at the 25% the harness allows
// (README.md has the measurements; the sims' counts repeat far tighter).
//
// The three timings a user sees as well — work_per_s, op_ms_p50,
// cpu_us_per_op — are not here: on the shared 2-core box identical code
// differed by up to 29% run to run and 25% between two sets of ten runs, so
// no bound the harness allows can hold them. They head the per-layer list.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"wire_bytes_per_op", "B", "lower", 0.25},
	{"heap_kb_per_peer", "KB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"recall", "ratio", "higher", 0.25},
}

// perLayer lists the numbers of a traced run: the three ungated timings
// (measured with the timers off), then the single-layer metrics. A layer the
// workload does not exercise reports 0.
var perLayer = []metricSpec{
	{Name: "work_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},

	{Name: "sim.step_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.engine_self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.churn_events", Unit: "count", Better: "lower"},
	{Name: "sim.online_peers", Unit: "count", Better: "higher"},
	{Name: "sim.shard_crossings", Unit: "count", Better: "lower"},
	{Name: "sim.shard_batch_bytes", Unit: "B", Better: "lower"},
	{Name: "sim.explained_share", Unit: "ratio", Better: "higher"},

	{Name: "core.receive_calls", Unit: "count", Better: "lower"},
	{Name: "core.receive_us", Unit: "us", Better: "lower"},
	{Name: "core.receive_share", Unit: "ratio", Better: "lower"},
	{Name: "core.begin_cycle_us", Unit: "us", Better: "lower"},
	{Name: "core.begin_cycle_share", Unit: "ratio", Better: "lower"},
	{Name: "core.publish_us", Unit: "us", Better: "lower"},
	{Name: "core.duplicate_share", Unit: "ratio", Better: "lower"},
	{Name: "core.forwards_per_delivery", Unit: "count", Better: "lower"},
	{Name: "core.item_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "core.item_decode_ns", Unit: "ns", Better: "lower"},

	{Name: "profile.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.similarity_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.similarity_cached_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.clone_diverge_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.wire_bytes", Unit: "B", Better: "lower"},

	{Name: "overlay.trim_similarity_ns", Unit: "ns", Better: "lower"},
	{Name: "overlay.trim_random_ns", Unit: "ns", Better: "lower"},
	{Name: "overlay.evict_ns", Unit: "ns", Better: "lower"},
	{Name: "overlay.graveyard_note_ns", Unit: "ns", Better: "lower"},
	{Name: "overlay.descriptors_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "overlay.descriptors_decode_ns", Unit: "ns", Better: "lower"},

	{Name: "rps.exchange_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.exchange_ns", Unit: "ns", Better: "lower"},
	{Name: "faultnet.link_ns", Unit: "ns", Better: "lower"},
	{Name: "faultnet.drop_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.record_delivery_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.merge_ns", Unit: "ns", Better: "lower"},

	{Name: "live.publish_call_us", Unit: "us", Better: "lower"},
	{Name: "live.hop_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "live.hops_mean", Unit: "count", Better: "lower"},
	{Name: "live.first_delivery_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "live.cascade_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "live.publish_to_feed_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "live.publish_to_feed_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "live.late_share", Unit: "ratio", Better: "lower"},
	{Name: "live.ctl_roundtrip_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.ctl_roundtrip_us_p99", Unit: "us", Better: "lower"},
	{Name: "live.gossip_bytes_per_node_cycle", Unit: "B", Better: "lower"},
	{Name: "live.beep_bytes_per_item", Unit: "B", Better: "lower"},
	{Name: "live.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "live.feed_call_us_p50", Unit: "us", Better: "lower"},
	{Name: "live.feedback_call_us_p50", Unit: "us", Better: "lower"},

	{Name: "api.get_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "api.get_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "api.post_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "api.post_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "api.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "api.http_overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "api.encode_us_p50", Unit: "us", Better: "lower"},
	{Name: "api.feed_entries_mean", Unit: "count", Better: "higher"},
	{Name: "api.response_bytes_mean", Unit: "B", Better: "lower"},
	{Name: "api.generator_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "api.non2xx", Unit: "count", Better: "lower"},

	{Name: "source.parse_feed_us", Unit: "us", Better: "lower"},
	{Name: "source.poll_once_us", Unit: "us", Better: "lower"},
	{Name: "source.dedup_poll_us", Unit: "us", Better: "lower"},

	{Name: "host.calib_ops_per_ms", Unit: "1/ms", Better: "higher"},
	{Name: "host.calib_spread", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func specJSON() []byte {
	out, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		panic(err) // the spec is a literal; it always encodes
	}
	return append(out, '\n')
}

// report is what one run of one workload found.
type report struct {
	workload  string
	values    map[string]float64 // end-to-end metrics, or per-layer ones on a traced run
	attempted int64
	failed    int64
	failures  []string // failed correctness checks, for the operator
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64)}
}

// check counts one correctness check as an attempted operation and, when it
// does not hold, as a failed one.
func (r *report) check(ok bool, what string) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, what)
	}
}
