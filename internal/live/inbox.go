package live

import "sync"

// inbox is a node's inbound queue, shared by both transports: a FIFO of
// pooled frame payload buffers, bounded in frames. Its ring is allocated as
// frames queue up, doubling when full, so it only ever grows to cover the
// deepest backlog it has held. An idle node holds no slots at all. Any
// goroutine may put. One consumer waits on bell and takes one frame per wake.
type inbox struct {
	mu     sync.Mutex
	frames []*[]byte // ring of queued frames, the oldest at frames[head]
	head   int
	n      int // frames queued
	bound  int // frames held at most: a frame arriving at a full inbox is lost
	closed bool
	// bell holds a token while a take has something to report: put and
	// close ring it, and take rings it again while frames remain or the
	// inbox is closed, so a consumer that waits on it takes one frame a wake.
	bell chan struct{}
}

func newInbox(bound int) *inbox {
	return &inbox{bound: bound, bell: make(chan struct{}, 1)}
}

// put queues a frame. A full inbox drops it (the receiver is congested, and
// the frame is lost as on a saturated link), and so does a closed one (a
// lost race with the transport's Close); either way the buffer goes back to
// the pool.
func (b *inbox) put(buf *[]byte) {
	b.mu.Lock()
	if b.closed || b.n == b.bound {
		b.mu.Unlock()
		putBuf(buf)
		return
	}
	if b.n == len(b.frames) {
		b.grow()
	}
	b.frames[(b.head+b.n)%len(b.frames)] = buf
	b.n++
	b.ring()
	b.mu.Unlock()
}

// grow doubles the full ring, up to the bound, unwrapping it to start at 0.
func (b *inbox) grow() {
	frames := make([]*[]byte, min(max(2*len(b.frames), 1), b.bound))
	k := copy(frames, b.frames[b.head:])
	copy(frames[k:], b.frames[:b.head])
	b.frames, b.head = frames, 0
}

// take pops the oldest queued frame. ok is false once the inbox is closed
// and every frame queued before close has been taken; buf is nil, with ok
// true, when nothing is queued yet. The sole consumer, woken by the bell,
// never sees the latter: a token is only left with a frame queued or the
// inbox closed, and only that consumer takes frames out.
func (b *inbox) take() (buf *[]byte, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return nil, !b.closed
	}
	buf = b.frames[b.head]
	b.frames[b.head] = nil
	b.head = (b.head + 1) % len(b.frames)
	b.n--
	if b.n > 0 || b.closed {
		b.ring()
	}
	return buf, true
}

// close ends the inbox: the frames queued before it are still taken, then
// take reports the end, and a later put is a loss.
func (b *inbox) close() {
	b.mu.Lock()
	b.closed = true
	b.ring()
	b.mu.Unlock()
}

// ring leaves a token on the bell unless one is already waiting. Caller
// holds b.mu.
func (b *inbox) ring() {
	select {
	case b.bell <- struct{}{}:
	default:
	}
}
