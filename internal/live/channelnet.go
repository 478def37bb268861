package live

import (
	"math/rand"
	"sync"
	"time"

	"whatsup/internal/news"
)

// ChannelNet is the ModelNet stand-in: an in-memory network of node inboxes
// with configurable message loss and delivery latency. Loss applies to every
// message kind — BEEP and gossip alike — matching the Section V-E
// experiment.
//
// Conditions are either uniform (the loss/latency pair of NewChannelNet) or
// per-link: SetPolicy overlays a faultnet.Policy evaluated per directed link
// (see linkFaults), keyed off the same seed.
//
// What crosses the network is the encoded envelope, never the sender's
// structs: Send hands the sender's pooled payload buffer to the receiver's
// inbox as it is, and the receiving node decodes it on its own goroutine
// (codec.go), so the receiver observes exactly what the bytes carry — fresh
// profile copies, recomputed item ids, no ground-truth leakage — and the
// emulation exercises the same serialization path and costs as TCPNet.
type ChannelNet struct {
	linkFaults // SetPolicy, and the lock guarding everything below
	boxes      map[news.NodeID]*inbox
	rng        *rand.Rand
	loss       float64
	latency    time.Duration
	closed     bool
	wg         sync.WaitGroup
}

// NewChannelNet builds a lossy in-memory network with uniform conditions.
func NewChannelNet(seed int64, loss float64, latency time.Duration) *ChannelNet {
	return &ChannelNet{
		linkFaults: linkFaults{seed: seed},
		boxes:      make(map[news.NodeID]*inbox),
		rng:        rand.New(rand.NewSource(seed)),
		loss:       loss,
		latency:    latency,
	}
}

// channelInboxFrames bounds a ChannelNet inbox. The deepest inbox of a whole
// 24 s run of the 300-node benchmark fleets (live-publish, serve-mixed) was
// 20–21 frames, with no overflow. The bound stays far above that because it
// is part of the loss model, not a preallocation: an inbox holds slots only
// for the backlog it has seen (inbox.grow), and a lower bound would turn a
// fleet-wide tick burst on a starved host into loss the emulated link does
// not have.
const channelInboxFrames = 4096

// Register implements Network. Re-registering a disconnected id opens a
// fresh inbox (a rejoining node).
func (c *ChannelNet) Register(id news.NodeID) *inbox {
	box := newInbox(channelInboxFrames)
	c.mu.Lock()
	c.boxes[id] = box
	c.mu.Unlock()
	return box
}

// Disconnect implements Network: the node's inbox leaves the delivery table,
// so frames addressed to it — including latency-delayed ones already in
// flight, which captured the orphaned box — are lost. In-memory inboxes
// hold no pending batches, so graceful and abrupt teardown coincide.
func (c *ChannelNet) Disconnect(id news.NodeID, graceful bool) {
	c.mu.Lock()
	delete(c.boxes, id)
	c.mu.Unlock()
}

// Send implements Network: drops with the configured probability (uniform
// and per-link), otherwise delivers the payload buffer itself after the
// configured latency (uniform plus the link rule's base, jitter and
// serialization delay). Full inboxes drop (backpressure as loss, like a
// saturated emulated link).
func (c *ChannelNet) Send(from, to news.NodeID, payload *[]byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		putBuf(payload)
		return
	}
	drop := c.loss > 0 && c.rng.Float64() < c.loss
	latency := c.latency
	if c.policy != nil {
		cut, delay := c.decide(from, to, frameLen(len(*payload)))
		drop = drop || cut
		latency += delay
	}
	box := c.boxes[to]
	delayed := box != nil && !drop && latency > 0
	if delayed {
		// Registered under the lock, next to the closed check: Close sets
		// closed before it waits, so wg.Add can never race wg.Wait.
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if drop || box == nil {
		putBuf(payload)
		return
	}
	if !delayed {
		box.put(payload)
		return
	}
	go func() {
		defer c.wg.Done()
		time.Sleep(latency)
		box.put(payload)
	}()
}

// Close implements Network.
func (c *ChannelNet) Close() {
	c.mu.Lock()
	c.closed = true
	boxes := c.boxes
	c.boxes = map[news.NodeID]*inbox{}
	c.mu.Unlock()
	c.wg.Wait()
	for _, box := range boxes {
		box.close()
	}
}
