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
// What crosses the network is the encoded envelope, never the sender's
// structs: Send hands the sender's pooled payload buffer to the receiver's
// inbox as it is, and the receiving node decodes it on its own goroutine
// (codec.go), so the receiver observes exactly what the bytes carry — fresh
// profile copies, recomputed item ids, no ground-truth leakage — and the
// emulation exercises the same serialization path and costs as TCPNet.
type ChannelNet struct {
	linkFaults // SetPolicy, and the lock guarding everything below
	boxes      map[news.NodeID]chan *[]byte
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
		boxes:      make(map[news.NodeID]chan *[]byte),
		rng:        rand.New(rand.NewSource(seed)),
		loss:       loss,
		latency:    latency,
	}
}

// Register implements Network. Re-registering a disconnected id opens a
// fresh inbox (a rejoining node).
func (c *ChannelNet) Register(id news.NodeID) <-chan *[]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	// 4096 frames: deep enough that a fleet-wide tick burst never overflows
	// a healthy node, at 8 bytes a slot.
	box := make(chan *[]byte, 4096)
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
		deliver(box, payload)
		return
	}
	go func() {
		defer c.wg.Done()
		time.Sleep(latency)
		deliver(box, payload)
	}()
}

// deliver enqueues a payload buffer on an inbox, handing it back to the pool
// when the inbox is full (overflow is loss) or already closed (a lost race
// with Close: loss too).
func deliver(box chan<- *[]byte, buf *[]byte) {
	defer func() {
		if recover() != nil {
			putBuf(buf)
		}
	}()
	select {
	case box <- buf:
	default:
		putBuf(buf)
	}
}

// Close implements Network.
func (c *ChannelNet) Close() {
	c.mu.Lock()
	c.closed = true
	boxes := c.boxes
	c.boxes = map[news.NodeID]chan *[]byte{}
	c.mu.Unlock()
	c.wg.Wait()
	for _, box := range boxes {
		close(box)
	}
}
