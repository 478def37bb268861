package live

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

func testItemEnvelope(i int, to news.NodeID) envelope {
	it := news.New("t", "d", "l", int64(i), 0)
	p := profile.New()
	p.Set(news.ID(i), int64(i), 1)
	return envelope{Kind: wireItem, From: 0, To: to, Item: core.ItemMessage{Item: it, Profile: p}}
}

// drainBox empties a (possibly closed) inbox, returning each frame's buffer
// to the pool, and counts the frames.
func drainBox(box *inbox) int {
	got := 0
	for buf, _ := box.take(); buf != nil; buf, _ = box.take() {
		putBuf(buf)
		got++
	}
	return got
}

// nextFrame waits on the inbox's bell for its next frame, the way a node's
// loop does. It returns nil once the inbox is closed and empty, or when
// timeout fires (a nil timeout never does).
func nextFrame(box *inbox, timeout <-chan time.Time) *[]byte {
	for {
		if buf, ok := box.take(); buf != nil || !ok {
			return buf
		}
		select {
		case <-box.bell:
		case <-timeout:
			return nil
		}
	}
}

// TestTCPNetCloseDrainsPending pins the graceful-close contract: envelopes
// queued before Close still reach the destination — the teardown flushes
// every connection's pending batch instead of discarding it.
func TestTCPNetCloseDrainsPending(t *testing.T) {
	const n = 50
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	box := tn.Register(1)
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1))
	}
	tn.Close() // waits for writers to drain and pumps to exit
	if got := drainBox(box); got != n {
		t.Fatalf("drain delivered %d/%d envelopes", got, n)
	}
}

// holdWriter dials id's connection the way the first Send would, without
// starting its writer, so frames sent to id wait in the connection's pending
// batch. release starts the writer; it must run before Close, which waits
// for it.
func holdWriter(t *testing.T, tn *TCPNet, id news.NodeID) (release func()) {
	t.Helper()
	c := dialNode(t, tn, id)
	addr := c.RemoteAddr().String()
	sc := &outConn{c: c, kick: make(chan struct{}, 1), quit: make(chan struct{})}
	tn.mu.Lock()
	tn.conns[addr] = sc
	tn.wg.Add(1)
	tn.mu.Unlock()
	return func() { go tn.writeLoop(addr, sc) }
}

// TestTCPNetBatchWindowDelivers exercises the held writer the tests below
// hold frames with: a burst coalesced in one pending batch still arrives
// completely once the writer runs.
func TestTCPNetBatchWindowDelivers(t *testing.T) {
	const n = 20
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	box := tn.Register(1)
	release := holdWriter(t, tn, 1)
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1))
	}
	release()
	tn.Close()
	if got := drainBox(box); got != n {
		t.Fatalf("batched burst delivered %d/%d envelopes", got, n)
	}
}

// TestTCPNetPendingCapDropsOverflow pins the sender-side congestion model:
// while the writer lingers in a long batch window, a burst beyond the
// pending-buffer bound is dropped instead of growing memory without limit.
func TestTCPNetPendingCapDropsOverflow(t *testing.T) {
	const n = 50
	size := len(encodeFrame(testItemEnvelope(0, 1)))
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0, MaxPendingBytes: 3 * size})
	box := tn.Register(1)
	release := holdWriter(t, tn, 1) // pending accumulates
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(0, 1)) // identical envelopes: equal frame sizes
	}
	release()
	tn.Close()
	got := drainBox(box)
	if got == 0 {
		t.Fatal("some envelopes must survive the cap")
	}
	if got > 3 {
		t.Fatalf("pending cap of 3 frames delivered %d/%d envelopes", got, n)
	}
}

// pollDrain drains the box until it has seen want envelopes or the deadline
// passes, returning the count.
func pollDrain(box *inbox, want int, deadline time.Duration) int {
	got := 0
	timeout := time.After(deadline)
	for got < want && nextFrame(box, timeout) != nil {
		got++
	}
	return got
}

// TestTCPNetDisconnectGracefulFlushesPending pins the leave semantics:
// envelopes queued in a pending batch still reach the destination when it
// disconnects gracefully — the teardown flushes the pending batch instead of
// discarding it.
func TestTCPNetDisconnectGracefulFlushesPending(t *testing.T) {
	const n = 30
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	defer tn.Close()
	box := tn.Register(1)
	release := holdWriter(t, tn, 1)
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1))
	}
	tn.Disconnect(1, true)
	release() // the writer finds the teardown and drains
	if got := pollDrain(box, n, 5*time.Second); got != n {
		t.Fatalf("graceful disconnect delivered %d/%d envelopes", got, n)
	}
	sendEnvelope(tn, testItemEnvelope(99, 1)) // disconnected id: dropped, not blocked
}

// TestTCPNetDisconnectCrashDropsPendingWithoutLeaks pins the crash-teardown
// audit: a peer crashing mid-batch loses the pending frames (congestion, not
// delivery), later sends to it drop without blocking, and neither the
// per-destination writer goroutine nor the reader pumps leak.
func TestTCPNetDisconnectCrashDropsPendingWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 40
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	box := tn.Register(1)
	tn.Register(2)
	release := holdWriter(t, tn, 1)
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1)) // held in the pending batch
	}
	tn.Disconnect(1, false) // crash mid-batch
	release()

	// Sends to the crashed peer must drop immediately, not block on a dead
	// connection.
	sent := make(chan struct{})
	go func() {
		for i := 0; i < 2*n; i++ {
			sendEnvelope(tn, testItemEnvelope(i, 1))
		}
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("send to a crashed peer blocked")
	}
	if got := pollDrain(box, 1, 100*time.Millisecond); got != 0 {
		t.Fatalf("crash teardown delivered %d pending envelopes, want 0", got)
	}
	tn.Close()
	// The writer goroutine of the crashed destination, its reader pumps and
	// every transport goroutine must be gone.
	for start := time.Now(); time.Since(start) < 5*time.Second; {
		if runtime.NumGoroutine() <= base+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	m := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked after crash teardown: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:m])
}

// TestTCPNetReRegisterAfterDisconnect pins the rejoin path: a disconnected
// id that registers again gets a fresh endpoint and receives new traffic.
func TestTCPNetReRegisterAfterDisconnect(t *testing.T) {
	const n = 10
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	defer tn.Close()
	tn.Register(1)
	tn.Disconnect(1, false)
	box := tn.Register(1)
	for i := 0; i < n; i++ {
		sendEnvelope(tn, testItemEnvelope(i, 1))
	}
	if got := pollDrain(box, n, 5*time.Second); got != n {
		t.Fatalf("re-registered endpoint received %d/%d envelopes", got, n)
	}
}

func TestTCPNetSendAfterCloseIsDropped(t *testing.T) {
	tn := NewTCPNet(TCPNetConfig{})
	tn.Register(1)
	tn.Close()
	sendEnvelope(tn, testItemEnvelope(0, 1)) // must not panic or block
	tn.Close()                               // double Close must be safe
}

// dialNode opens a raw connection to id's TCPNet endpoint, as a peer's
// writer would, so a test can put arbitrary bytes on the stream. The caller
// closes it before the TCPNet, whose Close waits for the reader pump.
func dialNode(t *testing.T, tn *TCPNet, id news.NodeID) *net.TCPConn {
	t.Helper()
	tn.mu.Lock()
	addr := tn.addrs[id]
	tn.mu.Unlock()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*net.TCPConn)
}

// TestTCPNetPoisonedStreamDropsConnection checks that a framing error kills
// the inbound connection instead of panicking the pump: a length prefix
// beyond the limit, also behind a good frame, which is still delivered, and
// a frame the stream ends inside of. The receiver must close the connection —
// the peer reads EOF or a reset, not its own read deadline.
func TestTCPNetPoisonedStreamDropsConnection(t *testing.T) {
	good := encodeFrame(testItemEnvelope(1, 1))
	oversized := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	for name, tc := range map[string]struct {
		stream    []byte
		cut       bool // the peer ends the stream after writing it
		delivered int
	}{
		"oversized-length-prefix":   {oversized, false, 0},
		"good-frame-then-oversized": {append(good, oversized...), false, 1},
		"truncated-frame":           {good[:len(good)-1], true, 0},
	} {
		t.Run(name, func(t *testing.T) {
			tn := NewTCPNet(TCPNetConfig{})
			defer tn.Close()
			box := tn.Register(1)
			c := dialNode(t, tn, 1)
			defer c.Close()
			if _, err := c.Write(tc.stream); err != nil {
				t.Fatal(err)
			}
			if tc.cut {
				c.CloseWrite()
			}
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) {
				t.Fatalf("read on the poisoned connection: %v, want EOF or a reset by the receiver", err)
			}
			if got := drainBox(box); got != tc.delivered {
				t.Fatalf("poisoned stream delivered %d frames, want %d", got, tc.delivered)
			}
		})
	}
}

// TestTCPNetMalformedPayloadIsALossAtTheNode: a well-framed payload that
// does not decode — an unsorted item profile, trailing bytes, a non-zero
// reserved byte, a truncated inner list, an unknown kind — travels like any
// other, and the node's decode drops it as a loss: the node's views,
// profile, seen set, feed ring and outbound frames stay as they were, and
// its buffer goes back to the pool. The connection stays open, so the good
// frame batched behind them in one write is delivered.
func TestTCPNetMalformedPayloadIsALossAtTheNode(t *testing.T) {
	unsorted := appendEnvelope(nil, envelope{Kind: wireItem, From: 1, Item: core.ItemMessage{Item: news.New("t", "d", "l", 1, 1)}})
	unsorted[len(unsorted)-1] = 1                    // profile present …
	unsorted = append(unsorted, 2, 5, 0, 1, 0, 0, 1) // … two entries: id 5, then delta 0
	gossip := envelope{Kind: wireRPSRequest, From: 1, Descs: []overlay.Descriptor{phantom(2, 1, 100, 101)}}
	trailing := append(appendEnvelope(nil, gossip), 0xAB)
	reserved := appendEnvelope(nil, gossip)
	reserved[5] = 1 // kind, from, to, count, node: the reserved byte is the sixth
	truncated := appendEnvelope(nil, gossip)
	truncated = truncated[:len(truncated)-2] // the tombstone count and a profile byte
	bad := []struct {
		payload []byte
		err     error
		says    string
	}{
		{unsorted, wire.ErrMalformed, "unsorted"},
		{trailing, wire.ErrMalformed, "trailing bytes"},
		{reserved, wire.ErrMalformed, "reserved byte"},
		{truncated, wire.ErrTruncated, "descriptor 0"},
		{[]byte{99, 2, 0, 0, 0}, wire.ErrMalformed, "unknown envelope kind"},
	}
	good := appendEnvelope(nil, scriptItem(0, 1))
	var stream []byte
	script := [][]byte{good}
	for _, b := range bad {
		var env envelope
		if err := decodePayload(&env, b.payload, nil, nil); !errors.Is(err, b.err) || !strings.Contains(err.Error(), b.says) {
			t.Fatalf("crafted payload %x: decode err=%v, want %v saying %q", b.payload, err, b.err, b.says)
		}
		stream = appendFrame(stream, b.payload)
		script = append(script, b.payload)
	}
	stream = appendFrame(stream, good)

	ln, tap := frameFleet(t)
	tn := NewTCPNet(TCPNetConfig{})
	defer tn.Close()
	box := tn.Register(0)
	c := dialNode(t, tn, 0)
	defer c.Close()
	if _, err := c.Write(stream); err != nil { // one write: the good frame is batched behind the bad ones
		t.Fatal(err)
	}
	// Every frame is in before the node handles one, so that the pump does
	// not take a buffer from the pool while the test looks at it.
	var bufs []*[]byte
	timeout := time.After(2 * time.Second)
	for len(bufs) < len(bad)+1 {
		buf := nextFrame(box, timeout)
		if buf == nil {
			t.Fatalf("%d of %d frames delivered: the connection did not outlive a malformed payload", len(bufs), len(bad)+1)
		}
		bufs = append(bufs, buf)
	}
	for i, b := range bad {
		buf := bufs[i]
		if !bytes.Equal(*buf, b.payload) {
			t.Fatalf("frame %d arrived as %x, sent %x", i, *buf, b.payload)
		}
		state, frames := nodeState(ln, script), len(tap.frames)
		ln.onFrame(buf, 2)
		if got := nodeState(ln, script); got != state {
			t.Errorf("payload %q changed the node:\n--- before\n%s\n--- after\n%s", b.says, state, got)
		}
		if len(tap.frames) != frames {
			t.Errorf("payload %q made the node send %d frames", b.says, len(tap.frames)-frames)
		}
		if len(*buf) != 0 { // putBuf empties a buffer as it pools it
			t.Errorf("payload %q: its buffer did not go back to the pool", b.says)
		}
	}
	ln.onFrame(bufs[len(bad)], 2)
	if !ln.node.Seen(scriptItem(0, 1).Item.Item.ID) {
		t.Fatal("the good frame behind the malformed ones was not received")
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on the connection: %v, want it still open", err)
	}
}

// BenchmarkTCPThroughput measures the live transport end to end: framed
// batched writes through real loopback sockets into the receiver's queue,
// reported as msgs/sec alongside ns/op.
func BenchmarkTCPThroughput(b *testing.B) {
	tn := NewTCPNet(TCPNetConfig{QueueCap: 1 << 17, SlowEvery: 0})
	box := tn.Register(1)
	received := make(chan int, 1)
	go func() {
		got := 0
		for nextFrame(box, nil) != nil {
			got++
		}
		received <- got
	}()
	env := testItemEnvelope(1, 1)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendEnvelope(tn, env)
	}
	tn.Close() // drains pending batches and closes the box
	b.StopTimer()
	elapsed := time.Since(start)
	got := <-received
	b.ReportMetric(float64(got)/elapsed.Seconds(), "msgs/s")
	b.ReportMetric(float64(got)/float64(b.N)*100, "delivered%")
}

// TestTCPNetDisconnectGracefulImmediately is the regression for the 0/30
// loss: a graceful Disconnect issued right after the first Send — while the
// freshly dialed connection may still sit in the listener's accept backlog —
// must still deliver the drained frame. No sleeps: the test waits on the
// delivery itself.
func TestTCPNetDisconnectGracefulImmediately(t *testing.T) {
	tn := NewTCPNet(TCPNetConfig{SlowEvery: 0})
	defer tn.Close()
	box := tn.Register(1)
	sendEnvelope(tn, testItemEnvelope(0, 1))
	tn.Disconnect(1, true)
	if got := pollDrain(box, 1, 5*time.Second); got != 1 {
		t.Fatal("graceful disconnect right after the first send lost the frame")
	}
}
