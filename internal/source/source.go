// Package source is the ingestion layer that connects the WhatsUp gossip
// mesh to the outside world, reproducing the paper's prototype deployment
// where live RSS feeds were injected into the PlanetLab fleet (Section V).
//
// The package has three parts:
//
//   - Source: a provider of news items (an RSS/Atom feed over HTTP, a fixture
//     file for deterministic tests), constructed from "kind:argument" specs;
//   - Catalog: the ingestion ledger — every item published into the mesh,
//     keyed by its 8-byte content hash, serving both deduplication and item
//     lookups (GET /v1/items/{id});
//   - Gateway: the polling bridge that fetches from every configured source,
//     deduplicates by content hash, and publishes fresh items into the fleet
//     through an ordinary WhatsUp publisher node.
package source

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"whatsup/internal/news"
)

// Source provides news items from somewhere outside the mesh. Fetch returns
// the currently available items — implementations return whatever the
// provider exposes right now, and leave deduplication against previous
// fetches to the Gateway's catalog. Items carry a zero Source node; the
// gateway stamps its own publisher id before injecting them.
type Source interface {
	// Name identifies the source in logs and catalog attribution, e.g.
	// "rss:https://example.org/feed".
	Name() string
	// Fetch retrieves the source's current items. It must honor ctx
	// cancellation and is never called concurrently with itself by the
	// Gateway.
	Fetch(ctx context.Context) ([]news.Item, error)
}

// New builds a source from a "kind:argument" spec: "rss:URL" for an RSS/Atom
// feed over HTTP, "file:PATH" for a fixture file.
func New(spec string) (Source, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok || kind == "" {
		return nil, fmt.Errorf("source: spec %q is not kind:argument", spec)
	}
	switch kind {
	case "rss":
		return NewFeed(arg), nil
	case "file":
		return NewFile(arg), nil
	}
	return nil, fmt.Errorf("source: unknown source kind %q (have file, rss)", kind)
}

// CatalogEntry is one ingested item with its provenance.
type CatalogEntry struct {
	Item news.Item
	// SourceName is the Name of the source the item was fetched from.
	SourceName string
	// FetchedAt is the wall-clock ingestion time. Item.Created is gossip
	// time (the publish cycle), so this is where real-world timing lives.
	FetchedAt time.Time
}

// Catalog is the ingestion ledger: every item published into the mesh,
// keyed by content hash. Safe for concurrent use — the
// gateway writes while API handlers read.
type Catalog struct {
	mu    sync.RWMutex
	items map[news.ID]CatalogEntry
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{items: make(map[news.ID]CatalogEntry)}
}

// Has reports whether the item is already cataloged.
func (c *Catalog) Has(id news.ID) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.items[id]
	return ok
}

// Add records an ingested item. It returns false without overwriting when
// the id is already present.
func (c *Catalog) Add(e CatalogEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.items[e.Item.ID]; dup {
		return false
	}
	c.items[e.Item.ID] = e
	return true
}

// Get looks an item up by content hash.
func (c *Catalog) Get(id news.ID) (CatalogEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.items[id]
	return e, ok
}

// Len returns the number of cataloged items.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.items)
}
