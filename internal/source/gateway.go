package source

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"whatsup/internal/news"
)

// Publisher is the slice of the live runtime the gateway needs: injecting
// one item into the mesh through one fleet node. *live.Runner implements it.
type Publisher interface {
	Publish(id news.NodeID, item news.Item) error
}

// GatewayConfig parameterizes a Gateway.
type GatewayConfig struct {
	// Node is the fleet node the gateway publishes through — an ordinary
	// WhatsUp publisher; the mesh cannot tell a gateway from a user.
	Node news.NodeID
	// Sources are polled in order every Interval.
	Sources []Source
	// Interval is the poll period (default 30 s, the paper's gossip period).
	Interval time.Duration
	// OnError, if set, observes per-source fetch errors and per-item publish
	// errors as the poll loop encounters them (Run keeps going either way).
	OnError func(err error)
	// RetryBase is the backoff after a source's first consecutive failure;
	// it doubles per failure up to RetryMax, each delay stretched by up to
	// +50% jitter so a fleet of gateways does not re-hit a recovering feed
	// in lockstep. Default: Interval.
	RetryBase time.Duration
	// RetryMax caps the exponential backoff. Default: 16×RetryBase.
	RetryMax time.Duration
	// BreakerThreshold is the consecutive-failure streak that trips a
	// source's circuit breaker. Default: 5.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped source is held out before the
	// breaker half-opens and allows one probe fetch. Default: 4×RetryMax.
	BreakerCooldown time.Duration
}

// Gateway bridges sources into the mesh: each poll fetches every source,
// drops items already cataloged (content-hash deduplication — a feed
// re-serving yesterday's articles publishes nothing), publishes the fresh
// remainder through the configured fleet node, and catalogs what was
// accepted. Items whose publish failed (the node was mid-churn, say) stay
// un-cataloged and retry on the next poll.
//
// Failing sources are backed off individually: each consecutive fetch
// failure doubles a per-source hold-off (with jitter), and a failure streak
// of BreakerThreshold trips that source's circuit breaker — it is skipped
// for BreakerCooldown, then the breaker half-opens for a single probe fetch
// whose outcome either closes it or re-trips it. One dead feed never slows
// the rest of the round.
type Gateway struct {
	cfg       GatewayConfig
	pub       Publisher
	catalog   *Catalog
	published atomic.Int64

	// Per-source retry state, indexed like cfg.Sources. PollOnce is never
	// run concurrently with itself (Run is a single loop), so plain fields
	// suffice.
	states []sourceState
	rng    *rand.Rand
	now    func() time.Time // test seam; time.Now in production
}

// sourceState is one source's retry ledger.
type sourceState struct {
	failures int       // consecutive fetch failures
	tripped  bool      // breaker open (or half-open once next has passed)
	next     time.Time // earliest next fetch attempt; zero = whenever
}

// ErrBreakerOpen marks the OnError report emitted when a source's failure
// streak trips its circuit breaker.
var ErrBreakerOpen = errors.New("source: circuit breaker open")

// NewGateway builds a gateway over the given publisher.
func NewGateway(cfg GatewayConfig, pub Publisher) *Gateway {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = cfg.Interval
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 16 * cfg.RetryBase
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 4 * cfg.RetryMax
	}
	return &Gateway{
		cfg: cfg, pub: pub, catalog: NewCatalog(),
		states: make([]sourceState, len(cfg.Sources)),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		now:    time.Now,
	}
}

// Catalog returns the gateway's ingestion ledger.
func (g *Gateway) Catalog() *Catalog { return g.catalog }

// Published returns how many items the gateway has injected into the mesh.
func (g *Gateway) Published() int64 { return g.published.Load() }

// PollOnce runs one ingestion round: fetch every source, publish and catalog
// the items not seen before. It returns how many items were published; the
// error joins every per-source and per-item failure of the round (a partial
// round still publishes what it can).
func (g *Gateway) PollOnce(ctx context.Context) (int, error) {
	var errs []error
	fail := func(err error) {
		errs = append(errs, err)
		// A cancelled run makes every in-flight fetch fail with ctx's error;
		// those are shutdown, not ingestion trouble, so spare the observer.
		if g.cfg.OnError != nil && ctx.Err() == nil {
			g.cfg.OnError(err)
		}
	}
	n := 0
	for i, src := range g.cfg.Sources {
		if err := ctx.Err(); err != nil {
			fail(err)
			break
		}
		st := &g.states[i]
		if !st.next.IsZero() && g.now().Before(st.next) {
			continue // backing off or breaker open; not this round
		}
		items, err := src.Fetch(ctx)
		if err != nil {
			fail(g.recordFailure(st, src, err))
			continue
		}
		st.failures, st.tripped, st.next = 0, false, time.Time{}
		now := time.Now()
		for _, it := range items {
			if g.catalog.Has(it.ID) {
				continue
			}
			it.Source = g.cfg.Node
			if err := g.pub.Publish(g.cfg.Node, it); err != nil {
				fail(fmt.Errorf("source: publishing %s (%q): %w", it.ID, it.Title, err))
				continue
			}
			g.catalog.Add(CatalogEntry{Item: it, SourceName: src.Name(), FetchedAt: now})
			g.published.Add(1)
			n++
		}
	}
	return n, errors.Join(errs...)
}

// recordFailure advances a source's retry state after a failed fetch and
// returns the error to report: the fetch error itself while backing off, or
// a wrapped ErrBreakerOpen the moment the failure streak trips the breaker.
func (g *Gateway) recordFailure(st *sourceState, src Source, err error) error {
	st.failures++
	now := g.now()
	if st.failures >= g.cfg.BreakerThreshold {
		st.next = now.Add(g.cfg.BreakerCooldown)
		if st.tripped {
			// A half-open probe failed: re-trip quietly, the observer
			// already heard about this source.
			return err
		}
		st.tripped = true
		return fmt.Errorf("%w: %s after %d consecutive failures (cooling %v): %v",
			ErrBreakerOpen, src.Name(), st.failures, g.cfg.BreakerCooldown, err)
	}
	backoff := g.cfg.RetryBase << (st.failures - 1)
	if backoff > g.cfg.RetryMax || backoff <= 0 {
		backoff = g.cfg.RetryMax
	}
	backoff += time.Duration(g.rng.Float64() * float64(backoff) / 2)
	st.next = now.Add(backoff)
	return err
}

// Run polls immediately and then every Interval until ctx is cancelled.
// Poll errors are reported through OnError and do not stop the loop; Run
// returns ctx.Err() once cancelled.
func (g *Gateway) Run(ctx context.Context) error {
	ticker := time.NewTicker(g.cfg.Interval)
	defer ticker.Stop()
	for {
		g.PollOnce(ctx) // errors already routed through OnError
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
