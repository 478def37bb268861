package live

import (
	"bufio"
	"net"
	"sync"
	"time"

	"whatsup/internal/news"
)

// TCPNet is the PlanetLab stand-in: nodes listen on real TCP loopback
// sockets and exchange length-prefixed binary frames (see codec.go). Each
// node has a bounded inbound queue; when the queue is full, incoming
// messages are dropped — the congestion behaviour of overloaded PlanetLab
// nodes, which the paper measured as up to 30% inbound loss at small fanouts
// (Section V-D). A configurable fraction of nodes is "overloaded" with much
// smaller queues. The queue holds frames as bytes: a connection's reader
// pump checks framing only — a length beyond maxFramePayload or a cut-off
// frame poisons the stream and costs the sender its connection — and moves
// each payload, in a pooled buffer, into the inbox. The node decodes it on
// its own goroutine, and a payload that does not decode is a loss there.
//
// Connections are persistent and multiplexed: the first send to a
// destination dials it, and every later envelope for that destination is
// appended to the connection's pending buffer. A per-connection writer
// goroutine drains the buffer in batches — all envelopes queued for the same
// destination since the previous flush (typically a cycle tick's worth under
// load) leave in a single framed Write. Encode and batch buffers are
// recycled through a sync.Pool.
type TCPNet struct {
	linkFaults
	mu         sync.Mutex // guards everything below
	addrs      map[news.NodeID]string
	boxes      map[news.NodeID]*inbox
	listeners  map[news.NodeID]net.Listener
	conns      map[string]*outConn
	inbound    map[news.NodeID]map[net.Conn]struct{} // accepted conns per node, for teardown
	lingering  map[net.Listener]string               // listeners of graceful leavers still owed a backlog conn, by its remote addr
	queueCap   int
	slowCap    int
	slowEvery  int // every n-th registered node is overloaded (0 = none)
	maxPending int
	registered int
	closed     bool
	wg         sync.WaitGroup
}

// outConn is one persistent outbound connection. Senders append encoded
// frames to pending and kick the writer; the writer swaps the buffer out
// under the lock and issues one Write per batch.
type outConn struct {
	c       net.Conn
	mu      sync.Mutex
	pending []byte        // encoded frames awaiting the next flush
	dead    bool          // a write failed; subsequent sends are dropped
	kick    chan struct{} // capacity 1: wake the writer
	quit    chan struct{} // closed on teardown: drain pending, then close
}

// take swaps the pending batch out, handing spare in as the new accumulation
// buffer, so writer and senders never copy frame bytes twice.
func (sc *outConn) take(spare []byte) []byte {
	sc.mu.Lock()
	p := sc.pending
	sc.pending = spare[:0]
	sc.mu.Unlock()
	return p
}

// TCPNetConfig tunes the PlanetLab model.
type TCPNetConfig struct {
	// QueueCap bounds a healthy node's inbound queue, in frames (default
	// 1024). It is a bound, not a preallocation: the queue holds slots only
	// for the deepest backlog it has seen.
	QueueCap int
	// SlowQueueCap bounds an overloaded node's queue (default 8).
	SlowQueueCap int
	// SlowEvery marks every n-th node as overloaded; 0, the default, marks
	// none. The one TCP-fleet recipe (experiments.LiveRun) passes 4: ≈25% of
	// the fleet, reproducing the loss level the paper observed.
	SlowEvery int
	// MaxPendingBytes bounds each connection's pending batch (default
	// 1 MiB). When a destination drains slower than senders enqueue, frames
	// beyond the bound are dropped — outbound congestion becomes loss, like
	// the inbound queue overflow, instead of unbounded sender memory. A
	// single frame larger than the bound is still accepted on an empty
	// buffer so oversized envelopes cannot wedge a connection.
	MaxPendingBytes int
}

// NewTCPNet builds a loopback TCP network.
func NewTCPNet(cfg TCPNetConfig) *TCPNet {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.SlowQueueCap <= 0 {
		cfg.SlowQueueCap = 8
	}
	if cfg.SlowEvery < 0 {
		cfg.SlowEvery = 0
	}
	if cfg.MaxPendingBytes <= 0 {
		cfg.MaxPendingBytes = 1 << 20
	}
	return &TCPNet{
		addrs:      make(map[news.NodeID]string),
		boxes:      make(map[news.NodeID]*inbox),
		listeners:  make(map[news.NodeID]net.Listener),
		conns:      make(map[string]*outConn),
		inbound:    make(map[news.NodeID]map[net.Conn]struct{}),
		lingering:  make(map[net.Listener]string),
		queueCap:   cfg.QueueCap,
		slowCap:    cfg.SlowQueueCap,
		slowEvery:  cfg.SlowEvery,
		maxPending: cfg.MaxPendingBytes,
	}
}

// Register implements Network: open a loopback listener for the node and
// start its accept/read pump. Re-registering an id that was disconnected
// opens a fresh listener on a new address (a rejoining node).
func (t *TCPNet) Register(id news.NodeID) *inbox {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("live: cannot listen on loopback: " + err.Error())
	}
	// inConns tracks this registration's accepted connections so Disconnect
	// can kill the reader pumps; each registration generation has its own
	// set (readers of a torn-down generation remove themselves from the
	// detached set harmlessly).
	inConns := make(map[net.Conn]struct{})
	t.mu.Lock()
	t.registered++
	capacity := t.queueCap
	if t.slowEvery > 0 && t.registered%t.slowEvery == 0 {
		capacity = t.slowCap // an overloaded PlanetLab node
	}
	box := newInbox(capacity)
	t.addrs[id] = ln.Addr().String()
	t.boxes[id] = box
	t.listeners[id] = ln
	t.inbound[id] = inConns
	t.mu.Unlock()

	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				// Listener closed — or a lingering one's deadline passed.
				t.mu.Lock()
				delete(t.lingering, ln)
				t.mu.Unlock()
				ln.Close()
				return
			}
			t.mu.Lock()
			// A gracefully closing registration keeps accepting until the one
			// connection its sender is draining has left the backlog.
			awaited := t.lingering[ln] == conn.RemoteAddr().String()
			if !awaited && (t.closed || t.listeners[id] != ln) {
				// Torn down between Accept and registration.
				t.mu.Unlock()
				conn.Close()
				continue
			}
			if awaited {
				delete(t.lingering, ln)
				ln.Close()
			}
			inConns[conn] = struct{}{}
			t.wg.Add(1)
			t.mu.Unlock()
			go func(conn net.Conn) {
				defer t.wg.Done()
				defer func() {
					t.mu.Lock()
					delete(inConns, conn)
					t.mu.Unlock()
					conn.Close()
				}()
				br := bufio.NewReaderSize(conn, 32<<10)
				for {
					buf, err := readFrame(br)
					if err != nil {
						// Clean close, peer teardown, or a framing
						// error: drop the connection; the sender
						// re-dials if it still cares.
						return
					}
					// A full inbox drops the frame: the node is congested,
					// as an overloaded testbed node is.
					box.put(buf)
				}
			}(conn)
		}
	}()
	return box
}

// Disconnect implements Network: tear down one node's endpoints. A crash
// (graceful=false) discards pending outbound batches to the node and closes
// its connections immediately — in-flight frames drop as congestion, and the
// per-destination writer goroutine exits instead of blocking on a dead peer.
// A graceful leave flushes pending batches before closing, and leaves the
// node's reader pumps to exit with the flushing connection; when that
// connection is still in the listener's accept backlog (the sender dialed it
// a moment ago) the listener stays open until the accept loop has taken it,
// so the drain lands in a socket somebody reads. Either way the
// id vanishes from the address table, so later sends drop without blocking,
// and the node's inbox is left open for the departed node's goroutine to
// abandon.
func (t *TCPNet) Disconnect(id news.NodeID, graceful bool) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	addr, ok := t.addrs[id]
	if !ok {
		t.mu.Unlock()
		return
	}
	delete(t.addrs, id)
	delete(t.boxes, id)
	ln := t.listeners[id]
	delete(t.listeners, id)
	sc := t.conns[addr]
	delete(t.conns, addr)
	inConns := t.inbound[id]
	delete(t.inbound, id)
	conns := make([]net.Conn, 0, len(inConns))
	for c := range inConns {
		conns = append(conns, c)
	}
	if graceful && t.linger(ln, sc, inConns) {
		ln = nil // the accept loop closes it once the drained connection is in
	}
	t.mu.Unlock()

	if ln != nil {
		ln.Close() // no new inbound connections
	}
	if sc != nil {
		if graceful {
			// The writer drains whatever senders queued, then closes; the
			// node's reader pump exits when the drained connection closes.
			close(sc.quit)
		} else {
			// Abrupt: discard pending, close the socket out from under any
			// in-flight Write so the writer unblocks with an error, and wake
			// the writer to observe quit.
			sc.mu.Lock()
			sc.dead = true
			sc.pending = nil
			sc.mu.Unlock()
			sc.c.Close()
			close(sc.quit)
		}
	}
	if !graceful {
		// Kill the reader pumps: frames already in flight are lost with the
		// crashed process.
		for _, c := range conns {
			c.Close()
		}
	}
}

// linger keeps the listener of a gracefully closing registration open when
// the connection its sender is about to drain has not been accepted yet: the
// sender dialed it a moment ago and it still sits in the accept backlog, where
// closing the listener would reset it and the drain would land in a socket
// nobody reads. The accept loop closes the listener as soon as that
// connection is in; the deadline bounds the wait like drain's write deadline
// does, so a connection that never shows cannot hang a teardown. Reports
// whether the listener was left open. Caller holds t.mu.
func (t *TCPNet) linger(ln net.Listener, sc *outConn, inConns map[net.Conn]struct{}) bool {
	if ln == nil || sc == nil {
		return false
	}
	draining := sc.c.LocalAddr().String()
	for c := range inConns {
		if c.RemoteAddr().String() == draining {
			return false // already accepted: its reader pump sees the drain
		}
	}
	t.lingering[ln] = draining
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(time.Second))
	return true
}

// Send implements Network: append the payload's frame to the destination's
// persistent connection, wake its writer and return the payload buffer to
// the pool. Send never blocks on the network; a dead or unknown destination
// drops the payload. The link evaluator (Config.Links; TCPNet has no loss of
// its own) decides at the writer boundary: a cut or lost link drops the
// payload outright, and link latency (base + jitter + bandwidth-cap
// serialization) defers the enqueue by a real sleep on a tracked goroutine,
// which holds the payload buffer meanwhile, so Close never abandons a
// delayed frame mid-flight.
func (t *TCPNet) Send(from, to news.NodeID, payload *[]byte) {
	drop, delay := t.decide(from, to, *payload)
	t.mu.Lock()
	if drop || t.closed {
		t.mu.Unlock()
		putBuf(payload)
		return
	}
	addr, ok := t.addrs[to]
	sc := t.conns[addr] // steady state: one global lock hold per send
	delayed := ok && delay > 0
	if delayed {
		// Registered under the lock, next to the closed check: Close sets
		// closed before it waits, so wg.Add can never race wg.Wait.
		t.wg.Add(1)
	}
	t.mu.Unlock()
	if !ok {
		putBuf(payload)
		return
	}
	if !delayed {
		t.enqueue(addr, sc, payload)
		return
	}
	go func() {
		defer t.wg.Done()
		time.Sleep(delay)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			putBuf(payload)
			return
		}
		// Re-resolve: the destination may have departed or rejoined on a new
		// address while the frame was in flight.
		addr, ok := t.addrs[to]
		sc := t.conns[addr]
		t.mu.Unlock()
		if !ok {
			putBuf(payload)
			return
		}
		t.enqueue(addr, sc, payload)
	}()
}

// enqueue appends the payload's frame to the destination connection's
// pending batch, returns the payload buffer to the pool and wakes the
// writer, dialing on first use. sc may be nil (not yet dialed).
func (t *TCPNet) enqueue(addr string, sc *outConn, payload *[]byte) {
	defer putBuf(payload)
	if sc == nil {
		if sc = t.conn(addr); sc == nil {
			return
		}
	}
	sc.mu.Lock()
	if sc.dead {
		sc.mu.Unlock()
		return
	}
	before := len(sc.pending)
	sc.pending = appendFrame(sc.pending, *payload)
	if len(sc.pending) > t.maxPending && before > 0 {
		// The destination drains slower than senders enqueue: outbound
		// congestion becomes loss, bounding sender-side memory the way the
		// old blocking writes bounded it with backpressure.
		sc.pending = sc.pending[:before]
	}
	sc.mu.Unlock()
	select {
	case sc.kick <- struct{}{}:
	default: // writer already signalled
	}
}

// conn returns the persistent connection for addr, dialing it on first use.
func (t *TCPNet) conn(addr string) *outConn {
	t.mu.Lock()
	if sc, ok := t.conns[addr]; ok {
		t.mu.Unlock()
		return sc
	}
	t.mu.Unlock()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil
	}
	sc := &outConn{c: c, kick: make(chan struct{}, 1), quit: make(chan struct{})}
	t.mu.Lock()
	if existing, ok := t.conns[addr]; ok { // lost a dial race
		t.mu.Unlock()
		c.Close()
		return existing
	}
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return nil
	}
	t.conns[addr] = sc
	t.wg.Add(1)
	t.mu.Unlock()
	go t.writeLoop(addr, sc)
	return sc
}

// writeLoop drains one connection's pending buffer, one Write per batch.
func (t *TCPNet) writeLoop(addr string, sc *outConn) {
	defer t.wg.Done()
	spare := getBuf()
	defer putBuf(spare)
	for {
		select {
		case <-sc.quit:
			t.drain(sc)
			return
		case <-sc.kick:
		}
		batch := sc.take(*spare)
		if len(batch) == 0 {
			*spare = batch
			continue
		}
		_, err := sc.c.Write(batch)
		*spare = batch[:0]
		if err != nil {
			t.dropConn(addr, sc)
			return
		}
	}
}

// drain performs the graceful-close flush: whatever senders queued before
// the teardown still leaves, bounded by a write deadline so Close cannot
// hang on a stalled peer, then the connection closes.
func (t *TCPNet) drain(sc *outConn) {
	sc.mu.Lock()
	pending := sc.pending
	sc.pending = nil
	sc.dead = true
	sc.mu.Unlock()
	if len(pending) > 0 {
		sc.c.SetWriteDeadline(time.Now().Add(time.Second))
		sc.c.Write(pending)
	}
	sc.c.Close()
}

// dropConn discards a connection whose write failed. Envelopes queued behind
// the failure are lost — message loss, exactly what the testbed model wants.
func (t *TCPNet) dropConn(addr string, sc *outConn) {
	t.mu.Lock()
	if t.conns[addr] == sc {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
	sc.mu.Lock()
	sc.dead = true
	sc.pending = nil
	sc.mu.Unlock()
	sc.c.Close()
}

// Close implements Network: stop accepting sends, flush every connection's
// pending batch, tear down sockets and release the inbound queues.
func (t *TCPNet) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	listeners := t.listeners
	conns := t.conns
	boxes := t.boxes
	for id, ln := range listeners {
		if t.linger(ln, conns[t.addrs[id]], t.inbound[id]) {
			delete(listeners, id)
		}
	}
	t.listeners = map[news.NodeID]net.Listener{}
	t.conns = map[string]*outConn{}
	t.boxes = map[news.NodeID]*inbox{}
	t.mu.Unlock()
	for _, sc := range conns {
		close(sc.quit) // writer drains pending, then closes the socket
	}
	for _, ln := range listeners {
		ln.Close()
	}
	t.wg.Wait()
	for _, box := range boxes {
		box.close()
	}
}
