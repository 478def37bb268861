package live

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"whatsup/internal/core"
	"whatsup/internal/faultnet"
	"whatsup/internal/news"
	"whatsup/internal/profile"
)

// handoffEnvelope is the i-th of a run of distinct item envelopes: payloads
// of different lengths and contents, so that one overwritten by a later
// encode cannot pass for itself.
func handoffEnvelope(i int) envelope {
	p := profile.New()
	for k := 0; k < i%13; k++ {
		p.Set(news.ID(i*16+k), int64(k), float64(k%2))
	}
	it := news.New(fmt.Sprintf("story %d %s", i, strings.Repeat("x", i%97)), "d", "l", int64(i), 0)
	return envelope{Kind: wireItem, From: 0, To: 1, Item: core.ItemMessage{Item: it, Profile: p, Hops: i}}
}

// TestSendHandsOffPayload pins the ownership contract of Network.Send: once
// Send is called, the payload buffer is the transport's. One goroutine sends
// many distinct item payloads back to back, each encoded into a buffer from
// the pool its next encode draws from; every payload received must decode
// to an envelope that was sent, each exactly once, so no later encode
// overwrote a payload still in flight — on the direct path and on the
// delayed one, where a goroutine holds the buffer across a sleep. Then Send
// meets each of its drop paths, which must drop and not panic.
func TestSendHandsOffPayload(t *testing.T) {
	const n = 2000
	delay := faultnet.New().SetRule(faultnet.ClassDefault, faultnet.ClassDefault, faultnet.Rule{Base: time.Millisecond})
	for name, mk := range map[string]func() Network{
		"ChannelNet":         func() Network { return NewChannelNet(1, 0, 0) },
		"ChannelNet/delayed": func() Network { return NewChannelNet(1, 0, time.Millisecond) },
		"TCPNet":             func() Network { return NewTCPNet(TCPNetConfig{QueueCap: n}) },
		"TCPNet/delayed": func() Network {
			net := NewTCPNet(TCPNetConfig{QueueCap: n})
			net.bind(1, nil, delay)
			return net
		},
	} {
		t.Run(name, func(t *testing.T) {
			net := mk()
			defer net.Close()
			box := net.Register(1)
			for i := 0; i < n; i++ {
				sendEnvelope(net, handoffEnvelope(i))
			}
			seen := make([]bool, n)
			timeout := time.After(10 * time.Second)
			for got := 0; got < n; got++ {
				buf := nextFrame(box, timeout)
				if buf == nil {
					t.Fatalf("%d of %d payloads arrived", got, n)
				}
				var env envelope
				err := decodePayload(&env, *buf, nil, nil)
				putBuf(buf)
				i := env.Item.Hops
				if err != nil || i < 0 || i >= n || seen[i] || !envelopesEqual(env, handoffEnvelope(i)) {
					t.Fatalf("payload %d decodes to envelope %d (err %v): not one that was sent, or a second copy", got, i, err)
				}
				seen[i] = true
			}
		})
	}

	cut := faultnet.KWayPartition([]news.NodeID{0, 1}, 2, 0, 0)
	for name, mk := range map[string]func() Network{
		"ChannelNet": func() Network { return NewChannelNet(1, 0, 0) },
		"TCPNet":     func() Network { return NewTCPNet(TCPNetConfig{QueueCap: channelInboxFrames}) },
	} {
		for _, c := range []struct {
			name        string
			to          news.NodeID
			sends, want int
			setup       func(Network)
		}{
			{"closed net", 1, 8, 0, func(n Network) { n.Close() }},
			{"unknown destination", 99, 8, 0, nil},
			{"full inbox", 1, channelInboxFrames + 8, channelInboxFrames, nil},
			{"policy cut", 1, 8, 0, func(n Network) { n.bind(1, nil, cut) }},
		} {
			t.Run(name+"/drops/"+c.name, func(t *testing.T) {
				net := mk()
				box := net.Register(1)
				if c.setup != nil {
					c.setup(net)
				}
				for i := 0; i < c.sends; i++ {
					env := handoffEnvelope(i)
					env.To = c.to
					sendEnvelope(net, env)
				}
				net.Close()
				if got := drainBox(box); got != c.want {
					t.Fatalf("%d of %d payloads delivered, want %d", got, c.sends, c.want)
				}
			})
		}
	}
}
