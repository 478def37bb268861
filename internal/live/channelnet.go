package live

import (
	"math/rand"
	"sync"
	"time"

	"whatsup/internal/news"
)

// ChannelNet is the ModelNet stand-in: an in-memory network of buffered Go
// channels with configurable message loss and delivery latency. Loss
// applies to every message kind — BEEP and gossip alike — matching the
// Section V-E experiment.
//
// Conditions are either uniform (the loss/latency pair of NewChannelNet) or
// per-link: SetPolicy overlays a faultnet.Policy evaluated per directed link
// (see linkFaults), keyed off the same seed.
//
// Every delivered envelope round-trips through the shared binary codec
// (codec.go): the receiver observes exactly what the encoded bytes carry —
// fresh profile copies, recomputed item ids, no ground-truth leakage — so
// the emulation exercises the same serialization path and costs as TCPNet.
type ChannelNet struct {
	linkFaults // SetPolicy, and the lock guarding everything below
	boxes      map[news.NodeID]chan envelope
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
		boxes:      make(map[news.NodeID]chan envelope),
		rng:        rand.New(rand.NewSource(seed)),
		loss:       loss,
		latency:    latency,
	}
}

// Register implements Network. Re-registering a disconnected id opens a
// fresh inbox (a rejoining node).
func (c *ChannelNet) Register(id news.NodeID) <-chan envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	box := make(chan envelope, 4096)
	c.boxes[id] = box
	return box
}

// Disconnect implements Network: the node's inbox leaves the delivery table,
// so frames addressed to it — including latency-delayed ones already in
// flight, which captured the orphaned box — are lost. In-memory channels
// hold no pending batches, so graceful and abrupt teardown coincide.
func (c *ChannelNet) Disconnect(id news.NodeID, graceful bool) {
	c.mu.Lock()
	delete(c.boxes, id)
	c.mu.Unlock()
}

// Send implements Network: drops with the configured probability (uniform
// and per-link), otherwise delivers after the configured latency (uniform
// plus the link rule's base, jitter and serialization delay). Full inboxes
// drop (backpressure as loss, like a saturated emulated link).
func (c *ChannelNet) Send(env envelope) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	drop := c.loss > 0 && c.rng.Float64() < c.loss
	latency := c.latency
	if c.policy != nil {
		cut, delay := c.decide(env.From, env.To, len(env.frame))
		drop = drop || cut
		latency += delay
	}
	box := c.boxes[env.To]
	delayed := box != nil && !drop && latency > 0
	if delayed {
		// Registered under the lock, next to the closed check: Close sets
		// closed before it waits, so wg.Add can never race wg.Wait.
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if drop || box == nil {
		return
	}
	// Serialize through the wire codec so the receiver gets what the bytes
	// say, not what the sender's structs held. The frame handed down by
	// Runner.send is reused; envelopes injected directly (tests) encode here.
	var decoded envelope
	var err error
	if env.frame != nil {
		decoded, err = decodeFrame(env.frame)
	} else {
		buf := getBuf()
		*buf = appendFrame(*buf, env)
		decoded, err = decodeFrame(*buf)
		putBuf(buf)
	}
	if err != nil {
		if delayed {
			c.wg.Done()
		}
		return // unencodable envelope cannot exist; treat as loss
	}
	env = decoded
	deliver := func() {
		defer func() { recover() }() // lost race with Close: treat as loss
		select {
		case box <- env:
		default: // inbox overflow: dropped
		}
	}
	if !delayed {
		deliver()
		return
	}
	go func() {
		defer c.wg.Done()
		time.Sleep(latency)
		deliver()
	}()
}

// Close implements Network.
func (c *ChannelNet) Close() {
	c.mu.Lock()
	c.closed = true
	boxes := c.boxes
	c.boxes = map[news.NodeID]chan envelope{}
	c.mu.Unlock()
	c.wg.Wait()
	for _, box := range boxes {
		close(box)
	}
}
