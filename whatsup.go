// Package whatsup is a Go reproduction of WHATSUP, the decentralized
// instant news recommender of Boutet, Frey, Guerraoui, Jégou and Kermarrec
// (IEEE IPDPS 2013). It provides:
//
//   - the WhatsUp node: the WUP implicit social network (random peer
//     sampling + similarity clustering) and the BEEP biased epidemic
//     dissemination protocol with its orientation and amplification
//     mechanisms;
//   - a deterministic parallel cycle-based simulator (bit-identical results
//     for any worker count) and two concurrent live runtimes (lossy
//     in-memory channels and TCP loopback);
//   - the three evaluation workloads of the paper (synthetic
//     Arxiv-community, Digg-like, survey-like) and all competitor systems;
//   - experiment drivers regenerating every table and figure of the paper's
//     evaluation (see internal/experiments and cmd/whatsup-bench);
//   - a serving stack in the shape of the paper's PlanetLab prototype: an
//     ingestion gateway polling RSS/Atom or fixture sources into the gossip
//     mesh, and a JSON HTTP API exposing per-node feeds, feedback and fleet
//     stats (see cmd/whatsup-serve).
//
// The root package is a thin façade over the internal packages for
// programmatic use, organized in sections: news items and nodes, workloads,
// the deterministic simulation, the live runtime, and serving. See examples/
// for runnable entry points.
package whatsup

import (
	"time"

	"whatsup/internal/api"
	"whatsup/internal/core"
	"whatsup/internal/dataset"
	"whatsup/internal/live"
	"whatsup/internal/metrics"
	"whatsup/internal/news"
	"whatsup/internal/prng"
	"whatsup/internal/profile"
	"whatsup/internal/sim"
	"whatsup/internal/source"
)

// ── News items and nodes ────────────────────────────────────────────────
//
// The protocol vocabulary: identifiers, items, the WhatsUp node itself and
// the interfaces it consumes.

type (
	// NodeID identifies a peer.
	NodeID = news.NodeID
	// ItemID is the 8-byte content hash of a news item.
	ItemID = news.ID
	// Item is a news item.
	Item = news.Item
	// Config holds the WhatsUp node parameters (Table II of the paper).
	Config = core.Config
	// Node is a WhatsUp peer (WUP + BEEP).
	Node = core.Node
	// Opinions supplies like/dislike reactions.
	Opinions = core.Opinions
	// OpinionFunc adapts a function to Opinions.
	OpinionFunc = core.OpinionFunc
	// Profile is an interest profile.
	Profile = profile.Profile
)

// NewNode constructs a WhatsUp node with the given configuration; zero
// fields take the paper's defaults.
func NewNode(id NodeID, cfg Config, opinions Opinions, seed int64) *Node {
	return core.NewNode(id, "", cfg, opinions, prng.New(uint64(seed)))
}

// ── Workloads ───────────────────────────────────────────────────────────
//
// Constructors for the paper's three evaluation traces at a given scale
// (1.0 = Table I sizes), plus the blank workload of a serving fleet.

// Dataset is an evaluation workload.
type Dataset = dataset.Dataset

// SyntheticDataset generates the Arxiv-style community workload.
func SyntheticDataset(seed int64, scale float64) *Dataset {
	return dataset.Synthetic(dataset.SyntheticConfig{Seed: seed, Scale: scale})
}

// SurveyDataset generates the survey-like workload.
func SurveyDataset(seed int64, scale float64) *Dataset {
	return dataset.Survey(dataset.SurveyConfig{Seed: seed, Scale: scale})
}

// BlankDataset builds a workload with users but no trace items: the shape of
// a serving fleet, whose items arrive from ingestion sources while it runs.
// Pair it with LiveRunnerConfig.Opinions for the population's interest model.
func BlankDataset(users int) *Dataset {
	return dataset.Blank(users, 0)
}

// ── Deterministic simulation ────────────────────────────────────────────
//
// One WhatsUp node per workload user under the cycle engine; results are
// bit-identical for any worker count.

// Collector accumulates evaluation metrics.
type Collector = metrics.Collector

// Simulation couples a workload with a fleet of WhatsUp nodes under the
// deterministic cycle engine.
type Simulation struct {
	engine *sim.Engine
	col    *metrics.Collector
}

// SimulationConfig parameterizes NewSimulation.
type SimulationConfig struct {
	// Node holds the per-node protocol parameters.
	Node Config
	// Seed drives all randomness (default 1).
	Seed int64
}

// NewSimulation builds a simulation of one WhatsUp node per workload user,
// with the workload's publication schedule, for the workload's length.
func NewSimulation(ds *Dataset, cfg SimulationConfig) *Simulation {
	w, engineCfg := cfg.world(ds)
	engine, col := w.NewEngine(engineCfg)
	return &Simulation{engine: engine, col: col}
}

// world assembles what NewSimulation runs: the workload's world with one
// WhatsUp node per user, and the engine config of a reliable run.
func (cfg SimulationConfig) world(ds *Dataset) (*sim.World, sim.Config) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// At very large populations, bound the scale-sensitive protocol knobs
	// (no-op at paper scale; see core.Config.ForPopulation).
	cfg.Node = cfg.Node.ForPopulation(ds.Users)
	w := sim.DatasetWorld(ds)
	w.NewPeer = sim.WhatsUpPeers(cfg.Node, w.Opinions, cfg.Seed)
	return w, sim.Config{Seed: cfg.Seed, Cycles: ds.Cycles}
}

// Step advances one gossip cycle.
func (s *Simulation) Step() { s.engine.Step() }

// AddPeer registers an extra node between cycles (e.g. a cold-starting
// joiner); the caller seeds its views, typically via Node.ColdStart.
func (s *Simulation) AddPeer(n *Node) { s.engine.AddPeer(n) }

// Run executes the full experiment.
func (s *Simulation) Run() { s.engine.Run() }

// Node returns the node with the given id (nil if unknown).
func (s *Simulation) Node(id NodeID) *Node {
	if p := s.engine.Peer(id); p != nil {
		if n, ok := p.(*core.Node); ok {
			return n
		}
	}
	return nil
}

// Results summarizes a run: precision, recall, F1 and the message total.
type Results = metrics.Quality

// Results returns the headline numbers of the run.
func (s *Simulation) Results() Results { return s.col.Quality() }

// ── Live runtime ────────────────────────────────────────────────────────
//
// Concurrent goroutine-per-node fleets over real transports. NewLiveRunner
// builds the runner: Run executes the workload, and the mid-run surface
// (Feed, Feedback, Publish, Snapshot, Stats) backs the serving stack below.

type (
	// LiveRunner drives a concurrent fleet of WhatsUp nodes over a
	// transport. While the fleet runs, its Feed/Feedback/Publish/Snapshot/
	// Stats methods are safe to call from any goroutine: requests take each
	// node's lock, between its gossip steps.
	LiveRunner = live.Runner
	// LiveRunnerConfig parameterizes NewLiveRunner (cycles, per-node
	// parameters, runtime opinions, per-node feed retention).
	LiveRunnerConfig = live.Config
	// Network is a live transport; NewChannelNet builds the in-memory
	// emulation. (TCP loopback fleets are run by `whatsup-sim -live
	// -live-transport tcp`, not by the façade.)
	Network = live.Network
)

// NewLiveRunner builds a live fleet over the workload and transport.
func NewLiveRunner(cfg LiveRunnerConfig, ds *Dataset, network Network) *LiveRunner {
	return live.NewRunner(cfg, ds, network)
}

// NewChannelNet builds the in-memory lossy transport (ModelNet-style). The
// seed is unused: the runner's seed keys every loss draw.
func NewChannelNet(seed int64, lossRate float64, latency time.Duration) Network {
	return live.NewChannelNet(seed, lossRate, latency)
}

// ── Serving: ingestion sources and the HTTP API ─────────────────────────
//
// The deployable shape of the system (cmd/whatsup-serve): Sources feed a
// Gateway, the Gateway publishes into a LiveRunner's gossip mesh, and the
// APIServer exposes per-node feeds, feedback and fleet stats over JSON HTTP.

type (
	// Source is one news provider; NewSource builds one from a "kind:arg"
	// spec ("rss:URL" for RSS/Atom over HTTP, "file:PATH" for fixtures).
	Source = source.Source
	// Catalog records every item a gateway has published, for /v1/items.
	Catalog = source.Catalog
	// CatalogEntry is one ingested item with its provenance.
	CatalogEntry = source.CatalogEntry
	// Gateway polls Sources and publishes deduplicated items into the mesh.
	Gateway = source.Gateway
	// GatewayConfig parameterizes NewGateway.
	GatewayConfig = source.GatewayConfig
	// APIServer is the JSON HTTP handler over a running fleet.
	APIServer = api.Server

	// FeedEntry is one ranked feed recommendation (GET /v1/nodes/{id}/feed).
	FeedEntry = live.FeedEntry
	// NodeSnapshot is one node's point-in-time state (GET /v1/nodes/{id}).
	NodeSnapshot = live.NodeSnapshot
	// FleetStats is the fleet-wide metrics snapshot (GET /v1/stats).
	FleetStats = live.FleetStats
	// Member is one fleet member with its lifecycle state.
	Member = live.Member
)

// Sentinel errors of the live serving surface.
var (
	// ErrUnknownNode reports an id outside the fleet.
	ErrUnknownNode = live.ErrUnknownNode
	// ErrNodeOffline reports a node currently crashed or departed.
	ErrNodeOffline = live.ErrNodeOffline
	// ErrNotRunning reports an operation that needs the fleet clock live.
	ErrNotRunning = live.ErrNotRunning
)

// NewSource builds a source from a "kind:argument" spec ("rss:URL" or
// "file:PATH").
func NewSource(spec string) (Source, error) { return source.New(spec) }

// NewGateway builds an ingestion gateway publishing through the given fleet
// node of the runner.
func NewGateway(cfg GatewayConfig, fleet *LiveRunner) *Gateway {
	return source.NewGateway(cfg, fleet)
}

// NewAPIServer builds the JSON HTTP handler over a running fleet. The
// catalog resolves /v1/items/{id}; nil serves the fleet routes only.
func NewAPIServer(fleet *LiveRunner, catalog *Catalog) *APIServer {
	if catalog == nil {
		return api.NewServer(fleet, nil)
	}
	return api.NewServer(fleet, catalog)
}
