package live

import (
	"sync"
	"time"

	"whatsup/internal/faultnet"
	"whatsup/internal/news"
)

// ChannelNet is the ModelNet stand-in: an in-memory network of node inboxes
// with configurable message loss and delivery latency. Loss applies to every
// message kind — BEEP and gossip alike — matching the Section V-E
// experiment.
//
// Its uniform loss and latency are the base rule of its link evaluator
// (linkFaults), merged with each link's rule of Config.Links: a frame is
// dropped by the simulator's keyed draw over the run seed, the link, the
// fleet cycle and the message, never by a shared stream, so which frames
// drop does not depend on how the senders interleave.
//
// What crosses the network is the encoded envelope, never the sender's
// structs: Send hands the sender's pooled payload buffer to the receiver's
// inbox as it is, and the receiving node decodes it on its own goroutine
// (codec.go), so the receiver observes exactly what the bytes carry — fresh
// profile copies, recomputed item ids, no ground-truth leakage — and the
// emulation exercises the same serialization path and costs as TCPNet.
type ChannelNet struct {
	linkFaults
	mu     sync.Mutex // guards everything below
	boxes  map[news.NodeID]*inbox
	closed bool
	wg     sync.WaitGroup
}

// NewChannelNet builds a lossy in-memory network with uniform conditions.
// The seed is unused: the run's seed (Config.Seed) keys every loss draw.
func NewChannelNet(seed int64, loss float64, latency time.Duration) *ChannelNet {
	return &ChannelNet{
		linkFaults: linkFaults{base: faultnet.Rule{Loss: loss, Base: latency}},
		boxes:      make(map[news.NodeID]*inbox),
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

// Send implements Network: drops the frame when the link evaluator says so,
// otherwise delivers the payload buffer itself after the link's latency.
// Full inboxes drop (backpressure as loss, like a saturated emulated link).
func (c *ChannelNet) Send(from, to news.NodeID, payload *[]byte) {
	drop, latency := c.decide(from, to, *payload)
	c.mu.Lock()
	box := c.boxes[to]
	if drop || c.closed || box == nil {
		c.mu.Unlock()
		putBuf(payload)
		return
	}
	if latency > 0 {
		// Registered under the lock, next to the closed check: Close sets
		// closed before it waits, so wg.Add can never race wg.Wait.
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if latency == 0 {
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
