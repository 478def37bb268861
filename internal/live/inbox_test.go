package live

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"whatsup/internal/news"
)

// framed is a pooled buffer carrying a sender and a sequence number.
func framed(sender, seq int) *[]byte {
	buf := getBuf()
	*buf = binary.AppendUvarint(binary.AppendUvarint(*buf, uint64(sender)), uint64(seq))
	return buf
}

func unframe(t *testing.T, buf *[]byte) (sender, seq int) {
	t.Helper()
	s, n := binary.Uvarint(*buf)
	q, m := binary.Uvarint((*buf)[n:])
	if n <= 0 || m <= 0 {
		t.Fatalf("frame %x does not hold a sender and a sequence number", *buf)
	}
	return int(s), int(q)
}

// TestInboxHeapPerNode bounds what a registered inbox costs: 300 nodes on
// ChannelNet each take a burst of 32 frames and drain it, and what the
// collected heap keeps per node afterwards — the inbox, its bell, a ring as
// deep as the burst and the delivery-table entry — must stay under 1 KiB. A
// queue preallocated to its 4096-frame bound holds 32 KiB a node.
func TestInboxHeapPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime inflates the heap")
	}
	const nodes, burst, maxBytesPerNode = 300, 32, 1024
	before := collectedHeap()
	net := NewChannelNet(1, 0, 0)
	boxes := make([]*inbox, nodes)
	for i := range boxes {
		boxes[i] = net.Register(news.NodeID(i))
	}
	for i, box := range boxes {
		for k := 0; k < burst; k++ {
			net.Send(0, news.NodeID(i), framed(0, k))
		}
		if got := drainBox(box); got != burst {
			t.Fatalf("node %d drained %d of %d frames", i, got, burst)
		}
	}
	perNode := float64(collectedHeap()-before) / nodes
	runtime.KeepAlive(net)
	runtime.KeepAlive(boxes)
	t.Logf("%.0f bytes retained per registered node after a %d-frame burst (bound %d)", perNode, burst, maxBytesPerNode)
	if perNode > maxBytesPerNode {
		t.Fatalf("%.0f bytes retained per registered node, want <= %d", perNode, maxBytesPerNode)
	}
}

// TestInboxFIFOPerSender: frames put by several concurrent senders and taken
// by one consumer waiting on the bell, as a node's loop does, come out in
// each sender's order, all of them.
func TestInboxFIFOPerSender(t *testing.T) {
	const senders, perSender = 4, 500
	box := newInbox(senders * perSender)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				box.put(framed(s, k))
			}
		}(s)
	}
	next := make([]int, senders)
	timeout := time.After(10 * time.Second)
	for got := 0; got < senders*perSender; got++ {
		buf := nextFrame(box, timeout)
		if buf == nil {
			t.Fatalf("%d of %d frames taken", got, senders*perSender)
		}
		s, k := unframe(t, buf)
		putBuf(buf)
		if k != next[s] {
			t.Fatalf("sender %d: frame %d taken where %d was due", s, k, next[s])
		}
		next[s]++
	}
	wg.Wait()
}

// TestInboxBoundDropsOverflow: an inbox bounded at cap frames queues cap of
// them; frame cap+1 is lost and its buffer goes back to the pool.
func TestInboxBoundDropsOverflow(t *testing.T) {
	const bound = 8
	box := newInbox(bound)
	for k := 0; k < bound; k++ {
		box.put(framed(0, k))
	}
	over := framed(0, bound)
	box.put(over)
	if len(*over) != 0 { // putBuf empties a buffer as it pools it
		t.Fatal("the frame beyond the bound was not returned to the pool")
	}
	for k := 0; k < bound; k++ {
		buf, ok := box.take()
		if buf == nil || !ok {
			t.Fatalf("frame %d of %d missing", k, bound)
		}
		if _, seq := unframe(t, buf); seq != k {
			t.Fatalf("took frame %d where %d was due", seq, k)
		}
	}
	if buf, ok := box.take(); buf != nil || !ok {
		t.Fatalf("drained open inbox: take = %v, %v; want nil, true", buf, ok)
	}
}

// TestInboxCloseHandsOverQueued: frames queued before the transport's Close
// are still taken by a consumer waiting on the bell, in order, and then the
// inbox reads as closed — the bell rings once more to say so, as a node's
// loop needs to end.
func TestInboxCloseHandsOverQueued(t *testing.T) {
	const queued = 5
	net := NewChannelNet(1, 0, 0)
	box := net.Register(1)
	for k := 0; k < queued; k++ {
		net.Send(0, 1, framed(0, k))
	}
	net.Close()
	for k := 0; ; k++ {
		select {
		case <-box.bell:
		case <-time.After(5 * time.Second):
			t.Fatalf("after %d frames the bell stopped ringing before the inbox read as closed", k)
		}
		buf, ok := box.take()
		if !ok {
			if k != queued {
				t.Fatalf("the inbox read as closed after %d of %d queued frames", k, queued)
			}
			return
		}
		if buf == nil {
			t.Fatal("the bell rang with nothing to take")
		}
		if _, seq := unframe(t, buf); seq != k {
			t.Fatalf("took frame %d where %d was due", seq, k)
		}
		putBuf(buf)
	}
}

// TestInboxPutAfterClose: puts that race the close, and puts after it,
// neither panic nor leak their buffer — each is taken before the end or
// returned to the pool.
func TestInboxPutAfterClose(t *testing.T) {
	const senders, perSender = 4, 200
	box := newInbox(senders * perSender)
	bufs := make([][]*[]byte, senders)
	var wg sync.WaitGroup
	for s := range bufs {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				b := []byte{1} // not from the pool, so no other test draws it
				bufs[s] = append(bufs[s], &b)
				box.put(&b)
			}
		}(s)
	}
	box.close()
	wg.Wait()
	late := []byte{1}
	box.put(&late)
	taken := make(map[*[]byte]bool)
	for {
		buf, ok := box.take()
		if !ok {
			break
		}
		taken[buf] = true
	}
	if len(late) != 0 {
		t.Error("a put after close kept its buffer")
	}
	for s := range bufs {
		for k, b := range bufs[s] {
			if !taken[b] && len(*b) != 0 {
				t.Fatalf("sender %d frame %d was neither taken nor returned to the pool", s, k)
			}
		}
	}
}

// TestInboxGrowsOnlyWithBacklog: a producer that keeps the queue non-empty
// for 10 000 frames, its depth a sawtooth between 1 and 20 so the ring wraps
// many times, never grows the ring past twice the deepest backlog, and the
// frames come out in order.
func TestInboxGrowsOnlyWithBacklog(t *testing.T) {
	const frames, low, high = 10000, 1, 20
	box := newInbox(channelInboxFrames)
	deepest, sent, want := 0, 0, 0
	put := func() {
		box.put(framed(0, sent))
		sent++
		box.mu.Lock()
		deepest = max(deepest, box.n)
		if len(box.frames) > 2*deepest {
			t.Fatalf("after %d frames the ring holds %d slots for a deepest backlog of %d", sent, len(box.frames), deepest)
		}
		box.mu.Unlock()
	}
	take := func() {
		buf, _ := box.take()
		if buf == nil {
			t.Fatalf("the queue emptied after %d frames", sent)
		}
		if _, seq := unframe(t, buf); seq != want {
			t.Fatalf("took frame %d where %d was due", seq, want)
		}
		putBuf(buf)
		want++
	}
	put()
	for up := true; sent < frames; {
		if up { // put 2, take 1
			put()
			put()
			take()
		} else { // put 1, take 2
			put()
			take()
			take()
		}
		box.mu.Lock()
		if depth := box.n; depth >= high || depth <= low {
			up = depth <= low
		}
		box.mu.Unlock()
	}
	if deepest < high {
		t.Fatalf("the backlog peaked at %d frames, want the sawtooth to reach %d", deepest, high)
	}
}
