package live

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

func testItemEnvelope(i int, to news.NodeID) envelope {
	it := news.New("t", "d", "l", int64(i), 0)
	p := profile.New()
	p.Set(news.ID(i), int64(i), 1)
	return envelope{Kind: wireItem, From: 0, To: to, Item: core.ItemMessage{Item: it, Profile: p}}
}

// drainBox empties a (possibly closed) inbox and counts the frames.
func drainBox(box <-chan *[]byte) int {
	got := 0
	for {
		select {
		case _, ok := <-box:
			if !ok {
				return got
			}
			got++
		default:
			return got
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
		tn.Send(testItemEnvelope(i, 1))
	}
	tn.Close() // waits for writers to drain and pumps to exit
	if got := drainBox(box); got != n {
		t.Fatalf("drain delivered %d/%d envelopes", got, n)
	}
}

// lingeringTCPNet builds a TCPNet whose writers linger for window after each
// kick, so frames sent within it wait in the connection's pending batch.
func lingeringTCPNet(cfg TCPNetConfig, window time.Duration) *TCPNet {
	tn := NewTCPNet(cfg)
	tn.batch = window
	return tn
}

// TestTCPNetBatchWindowDelivers exercises the lingering writer the tests
// below hold frames with: a burst still arrives completely (in coalesced
// writes) once the window elapses.
func TestTCPNetBatchWindowDelivers(t *testing.T) {
	const n = 20
	tn := lingeringTCPNet(TCPNetConfig{SlowEvery: 0}, 5*time.Millisecond)
	box := tn.Register(1)
	for i := 0; i < n; i++ {
		tn.Send(testItemEnvelope(i, 1))
	}
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
	frameLen := len(appendFrame(nil, testItemEnvelope(0, 1)))
	// Hold the writer so pending accumulates.
	tn := lingeringTCPNet(TCPNetConfig{SlowEvery: 0, MaxPendingBytes: 3 * frameLen}, 200*time.Millisecond)
	box := tn.Register(1)
	for i := 0; i < n; i++ {
		tn.Send(testItemEnvelope(0, 1)) // identical envelopes: equal frame sizes
	}
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
func pollDrain(box <-chan *[]byte, want int, deadline time.Duration) int {
	got := 0
	timeout := time.After(deadline)
	for got < want {
		select {
		case _, ok := <-box:
			if !ok {
				return got
			}
			got++
		case <-timeout:
			return got
		}
	}
	return got
}

// TestTCPNetDisconnectGracefulFlushesPending pins the leave semantics:
// envelopes queued behind a lingering batch window still reach the
// destination when it disconnects gracefully — the teardown flushes the
// pending batch instead of discarding it.
func TestTCPNetDisconnectGracefulFlushesPending(t *testing.T) {
	const n = 30
	tn := lingeringTCPNet(TCPNetConfig{SlowEvery: 0}, 30*time.Second)
	defer tn.Close()
	box := tn.Register(1)
	for i := 0; i < n; i++ {
		tn.Send(testItemEnvelope(i, 1))
	}
	tn.Disconnect(1, true) // the writer abandons its window and drains
	if got := pollDrain(box, n, 5*time.Second); got != n {
		t.Fatalf("graceful disconnect delivered %d/%d envelopes", got, n)
	}
	tn.Send(testItemEnvelope(99, 1)) // disconnected id: dropped, not blocked
}

// TestTCPNetDisconnectCrashDropsPendingWithoutLeaks pins the crash-teardown
// audit: a peer crashing mid-batch loses the pending frames (congestion, not
// delivery), later sends to it drop without blocking, and neither the
// per-destination writer goroutine nor the reader pumps leak.
func TestTCPNetDisconnectCrashDropsPendingWithoutLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 40
	tn := lingeringTCPNet(TCPNetConfig{SlowEvery: 0}, 30*time.Second)
	box := tn.Register(1)
	tn.Register(2)
	for i := 0; i < n; i++ {
		tn.Send(testItemEnvelope(i, 1)) // held by the writer's batch window
	}
	tn.Disconnect(1, false) // crash mid-batch

	// Sends to the crashed peer must drop immediately, not block on a dead
	// connection.
	sent := make(chan struct{})
	go func() {
		for i := 0; i < 2*n; i++ {
			tn.Send(testItemEnvelope(i, 1))
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
		tn.Send(testItemEnvelope(i, 1))
	}
	if got := pollDrain(box, n, 5*time.Second); got != n {
		t.Fatalf("re-registered endpoint received %d/%d envelopes", got, n)
	}
}

func TestTCPNetSendAfterCloseIsDropped(t *testing.T) {
	tn := NewTCPNet(TCPNetConfig{})
	tn.Register(1)
	tn.Close()
	tn.Send(testItemEnvelope(0, 1)) // must not panic or block
	tn.Close()                      // double Close must be safe
}

// TestTCPNetPoisonedStreamDropsConnection checks that a malformed frame
// kills the inbound connection instead of panicking the pump — both a length
// prefix beyond the limit and a correctly framed payload that does not
// decode. The pump validates without decoding, so the second case is what
// keeps an untrusted peer's garbage from ever reaching a node's inbox.
func TestTCPNetPoisonedStreamDropsConnection(t *testing.T) {
	// A well-formed item message whose profile lists the same id twice.
	unsorted := appendEnvelope(nil, envelope{Kind: wireItem, From: 0, To: 1, Item: core.ItemMessage{Item: news.New("t", "d", "l", 1, 0)}})
	unsorted[len(unsorted)-1] = 1                    // profile present …
	unsorted = append(unsorted, 2, 5, 0, 1, 0, 0, 1) // … two entries: id 5, then delta 0
	if err := decodePayload(nil, unsorted, nil); !errors.Is(err, wire.ErrMalformed) || !strings.Contains(err.Error(), "unsorted") {
		t.Fatalf("the crafted payload must fail on its profile order, got %v", err)
	}
	good := appendFrame(nil, testItemEnvelope(1, 1))
	for name, tc := range map[string]struct {
		stream    []byte
		delivered int
	}{
		"oversized-length-prefix":   {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, 0},
		"framed-malformed-payload":  {append(wire.AppendUint(nil, uint64(len(unsorted))), unsorted...), 0},
		"good-frame-then-malformed": {append(append(good, byte(len(unsorted))), unsorted...), 1},
	} {
		t.Run(name, func(t *testing.T) {
			tn := NewTCPNet(TCPNetConfig{})
			defer tn.Close()
			box := tn.Register(1)
			tn.mu.Lock()
			addr := tn.addrs[1]
			tn.mu.Unlock()
			c, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.stream); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1)
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(buf); err == nil {
				t.Fatal("poisoned connection must be closed by the receiver")
			}
			if got := drainBox(box); got != tc.delivered {
				t.Fatalf("poisoned stream delivered %d frames, want %d", got, tc.delivered)
			}
		})
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
		for range box {
			got++
		}
		received <- got
	}()
	env := testItemEnvelope(1, 1)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn.Send(env)
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
	tn.Send(testItemEnvelope(0, 1))
	tn.Disconnect(1, true)
	if got := pollDrain(box, 1, 5*time.Second); got != 1 {
		t.Fatal("graceful disconnect right after the first send lost the frame")
	}
}
