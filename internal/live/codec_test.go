package live

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// repProfile builds a profile with n entries whose ids are realistic 8-byte
// content hashes (not small integers), the worst case for delta packing.
func repProfile(n int, salt int) *profile.Profile {
	p := profile.New()
	for i := 0; i < n; i++ {
		id := news.Hash(fmt.Sprintf("item-%d-%d", salt, i), "d", "l")
		p.Set(id, int64(1+i%25), float64(i%2))
	}
	return p
}

// repGossip is the representative gossip envelope of the paper's setting: an
// RPS-view-sized push (10 descriptors) whose profiles hold a full 25-cycle
// window of opinions.
func repGossip() envelope {
	var descs []overlay.Descriptor
	for i := 0; i < 10; i++ {
		descs = append(descs, overlay.Descriptor{
			Node:    news.NodeID(i + 1),
			Stamp:   int64(20 + i),
			Profile: snapshotOf(repProfile(25, i)),
		})
	}
	return envelope{Kind: wireWUPRequest, From: 42, To: 7, Descs: descs}
}

// repItem is a representative BEEP envelope: a headline-sized item carrying
// an item profile accumulated along a few hops.
func repItem() envelope {
	return envelope{Kind: wireItem, From: 42, To: 7, Item: core.ItemMessage{
		Item:     news.New("An example headline of usual length", "one line of description text", "https://news.example.org/story/12345", 21, 42),
		Profile:  repProfile(12, 99),
		Dislikes: 1,
		Hops:     3,
	}}
}

// decodeEnv decodes one envelope from the front of data, by value.
func decodeEnv(data []byte) (envelope, []byte, error) {
	var e envelope
	rest, err := decodeEnvelope(&e, data, nil, nil)
	return e, rest, err
}

func envelopesEqual(a, b envelope) bool {
	if a.Kind != b.Kind || a.From != b.From || a.To != b.To {
		return false
	}
	if len(a.Tombs) != len(b.Tombs) {
		return false
	}
	for i := range a.Tombs {
		if a.Tombs[i] != b.Tombs[i] {
			return false
		}
	}
	if len(a.Descs) != len(b.Descs) {
		return false
	}
	for i := range a.Descs {
		x, y := a.Descs[i], b.Descs[i]
		if x.Node != y.Node || x.Stamp != y.Stamp {
			return false
		}
		if (x.Profile == nil) != (y.Profile == nil) {
			return false
		}
		if x.Profile != nil && !x.Profile.Equal(y.Profile) {
			return false
		}
	}
	if a.Item.Item != b.Item.Item || a.Item.Dislikes != b.Item.Dislikes ||
		a.Item.Hops != b.Item.Hops || a.Item.ViaDislike != b.Item.ViaDislike {
		return false
	}
	// An item message sent without a profile arrives with an empty one.
	pa, pb := a.Item.Profile, b.Item.Profile
	if pa == nil {
		pa = profile.New()
	}
	if pb == nil {
		pb = profile.New()
	}
	return bytes.Equal(pa.AppendWire(nil), pb.AppendWire(nil))
}

func roundTripCases() map[string]envelope {
	maxDescs := make([]overlay.Descriptor, 64)
	for i := range maxDescs {
		maxDescs[i] = overlay.Descriptor{Node: news.NodeID(i), Stamp: int64(i), Profile: snapshotOf(repProfile(100, i))}
	}
	return map[string]envelope{
		"gossip":               repGossip(),
		"item":                 repItem(),
		"rps-request":          {Kind: wireRPSRequest, From: 1, To: 2, Descs: []overlay.Descriptor{{Node: 3, Stamp: 4, Profile: snapshotOf(profile.New())}}},
		"rps-reply-empty":      {Kind: wireRPSReply, From: 2, To: 1},
		"wup-reply-nil-prof":   {Kind: wireWUPReply, From: 5, To: 6, Descs: []overlay.Descriptor{{Node: 9, Stamp: -1}}},
		"empty-profiles":       {Kind: wireWUPRequest, From: 0, To: 1, Descs: []overlay.Descriptor{{Node: 2, Profile: snapshotOf(profile.New())}, {Node: 3, Profile: snapshotOf(profile.New())}}},
		"max-length-descs":     {Kind: wireWUPRequest, From: 1, To: 2, Descs: maxDescs},
		"item-without-profile": {Kind: wireItem, From: news.NoNode, To: 0, Item: core.ItemMessage{Item: news.New("t", "", "", 0, news.NoNode)}},
		"departure":            {Kind: wireDeparture, From: 4, To: 5, Tombs: []overlay.Tombstone{{Node: 4, Stamp: 17}}},
		"gossip-with-tombs":    {Kind: wireRPSRequest, From: 1, To: 2, Descs: []overlay.Descriptor{{Node: 3, Stamp: 4}}, Tombs: []overlay.Tombstone{{Node: 6, Stamp: 15}, {Node: 7, Stamp: 16}}},
		"refill-request":       {Kind: wireRefillRequest, From: 8, To: 9, Descs: []overlay.Descriptor{{Node: 8, Stamp: 21, Profile: snapshotOf(repProfile(5, 3))}}},
		"refill-reply":         {Kind: wireRefillReply, From: 9, To: 8, Descs: []overlay.Descriptor{{Node: 9, Stamp: 21}, {Node: 11, Stamp: 19}}},
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	for name, env := range roundTripCases() {
		enc := appendEnvelope(nil, env)
		got, rest, err := decodeEnv(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode err=%v rest=%d", name, err, len(rest))
		}
		if !envelopesEqual(got, env) {
			t.Fatalf("%s: round trip mismatch\n got %+v\nwant %+v", name, got, env)
		}
	}
}

func TestEnvelopeTruncatedPrefixes(t *testing.T) {
	for name, env := range map[string]envelope{"gossip": repGossip(), "item": repItem()} {
		enc := appendEnvelope(nil, env)
		for i := 0; i < len(enc); i++ {
			if _, _, err := decodeEnv(enc[:i]); err == nil {
				t.Fatalf("%s: prefix %d/%d must not decode", name, i, len(enc))
			}
		}
	}
}

func TestDecodeEnvelopeRejectsUnknownKind(t *testing.T) {
	if _, _, err := decodeEnv([]byte{99, 0, 0, 0}); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
}

// TestEnvelopeSizeIsEncodedLength pins the accounting contract: the frame
// length Runner.send records for a payload is the uvarint payload length
// plus the payload, byte for byte what a stream transport writes and reads
// back — not an estimate.
func TestEnvelopeSizeIsEncodedLength(t *testing.T) {
	for name, env := range roundTripCases() {
		payload := appendEnvelope(nil, env)
		frame := appendFrame(nil, payload)
		if got, want := frameLen(len(payload)), wire.UintLen(uint64(len(payload)))+len(payload); got != len(frame) || got != want {
			t.Fatalf("%s: accounted %dB, frame=%dB, length prefix + payload=%dB", name, got, len(frame), want)
		}
		if got, err := readFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil || !bytes.Equal(*got, payload) {
			t.Fatalf("%s: readFrame err=%v, payload differs", name, err)
		}
	}
}

// TestEncodedSizeRegression pins the encoded sizes of the representative
// envelopes. A change here is a wire-format change: it invalidates recorded
// bandwidth baselines, so it must be deliberate.
func TestEncodedSizeRegression(t *testing.T) {
	for _, tc := range []struct {
		name string
		env  envelope
		want int
	}{
		// Gossip frames grew one byte in the churn-protocol-v2 format: every
		// non-item envelope now ends with a tombstone list (uvarint count, 0
		// when no departures are in flight). Item frames are unchanged.
		// A descriptor's address slot is one reserved zero byte.
		{"gossip-10x25", repGossip(), 2781},
		{"item-12", repItem(), 246},
		{"empty-rps-reply", envelope{Kind: wireRPSReply, From: 2, To: 1}, 6},
		{"departure-1", envelope{Kind: wireDeparture, From: 2, To: 1, Tombs: []overlay.Tombstone{{Node: 2, Stamp: 17}}}, 8},
	} {
		got := len(encodeFrame(tc.env))
		if got != tc.want {
			t.Fatalf("%s: frame=%dB, pinned %dB", tc.name, got, tc.want)
		}
	}
}

func TestReadFrameStream(t *testing.T) {
	var stream bytes.Buffer
	envs := []envelope{repGossip(), repItem(), {Kind: wireRPSReply, From: 1, To: 2}}
	var batch []byte
	for _, env := range envs {
		batch = appendFrame(batch, appendEnvelope(nil, env)) // coalesced, as a batched write would
	}
	stream.Write(batch)
	br := bufio.NewReader(&stream)
	for i, want := range envs {
		buf, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var got envelope
		if err := decodePayload(&got, *buf, nil, nil); err != nil || !envelopesEqual(got, want) {
			t.Fatalf("frame %d mismatch (decode err=%v)", i, err)
		}
		putBuf(buf)
	}
	if _, err := readFrame(br); err != io.EOF {
		t.Fatalf("clean end must be io.EOF, got %v", err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	// Truncated mid-payload.
	enc := encodeFrame(repItem())
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(enc[:len(enc)/2]))); err == nil {
		t.Fatal("truncated frame must error")
	}
	// Oversized declared length.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized frame must error")
	}
	// Trailing garbage inside a frame is well framed: readFrame hands the
	// payload over as it came, and the node's decode rejects it.
	payload := appendEnvelope(nil, envelope{Kind: wireRPSReply, From: 1, To: 2})
	payload = append(payload, 0xAB)
	buf, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, payload))))
	if err != nil || !bytes.Equal(*buf, payload) {
		t.Fatalf("a well-framed payload: readFrame err=%v", err)
	}
	var env envelope
	if err := decodePayload(&env, *buf, nil, nil); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("trailing bytes in frame: decode err=%v, want ErrMalformed", err)
	}
}

// TestReadFrameAllocatesOnlyWhatArrives: a length header with no payload
// behind it costs at most one chunk, not the length it declares, and a large
// frame that does arrive reads back whole.
func TestReadFrameAllocatesOnlyWhatArrives(t *testing.T) {
	header := wire.AppendUint(nil, maxFramePayload)
	readers := make([]*bufio.Reader, 10)
	for i := range readers {
		readers[i] = bufio.NewReader(bytes.NewReader(header))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, br := range readers {
		if _, err := readFrame(br); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("header-only frame: err=%v, want io.ErrUnexpectedEOF", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ten header-only %d-byte frames allocated %d bytes, want < 1 MiB", maxFramePayload, got)
	}

	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(payload)
	buf, err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, payload))))
	if err != nil || !bytes.Equal(*buf, payload) {
		t.Fatalf("1 MiB frame: err=%v, payload differs", err)
	}
}

// FuzzEnvelopeRoundTrip feeds arbitrary bytes to the decoder (it must never
// panic) and checks that whatever decodes re-encodes to the same envelope —
// the codec is stable even for non-minimal varints outside the profiles —
// and that the id hashed in place for the duplicate drop is the decoded
// item's id. Every decodable item message's WireSize is the length of its
// encoding, and it is then handed to Node.Receive on a throwaway liker and
// disliker, which must survive whatever the decoder let through and leave
// the profile unwritten. Every input is also decoded into one scratch item
// profile, shared across inputs as a node's pooled scratch is shared across
// frames, right after a truncated copy of the input (which rarely decodes)
// has used it: the result must equal the fresh decode, Σ score² bits
// included, with a version above the one before — no entry, sum or version
// left behind by an earlier decode or an error path survives.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, env := range roundTripCases() {
		f.Add(appendEnvelope(nil, env))
	}
	scratch := profile.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		env, envRest, err := decodeEnv(data)
		var got envelope
		for _, in := range [][]byte{data[:len(data)/2], data} {
			got = envelope{Item: core.ItemMessage{Profile: scratch}}
			version := scratch.Version()
			rest, serr := decodeEnvelope(&got, in, nil, nil)
			if len(in) < len(data) {
				continue
			}
			if (serr == nil) != (err == nil) {
				t.Fatalf("decode into a used scratch: err=%v, fresh decode err=%v", serr, err)
			}
			if serr != nil || got.Kind != wireItem {
				break
			}
			if !envelopesEqual(got, env) || len(rest) != len(envRest) {
				t.Fatalf("decode into a used scratch gave %+v, fresh decode %+v", got, env)
			}
			probe := profile.Cosine{}
			if g, w := probe.Similarity(scratch, env.Item.Profile), probe.Similarity(env.Item.Profile, env.Item.Profile); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("decode into a used scratch scores %v against the fresh decode, which scores %v: a stale Σ score²", g, w)
			}
			if got.Item.Profile != scratch || scratch.Version() <= version {
				t.Fatalf("decode into the scratch: profile %p (scratch %p), version %d after %d", got.Item.Profile, scratch, scratch.Version(), version)
			}
		}
		if err != nil {
			return
		}
		enc := appendEnvelope(nil, env)
		again, rest2, err := decodeEnv(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v", err)
		}
		if len(rest2) != 0 {
			t.Fatalf("re-encoded envelope left %d trailing bytes", len(rest2))
		}
		if !envelopesEqual(env, again) {
			t.Fatalf("unstable round trip:\n first %+v\nsecond %+v", env, again)
		}
		if env.Kind != wireItem {
			return
		}
		_, _, _, body, _ := envelopeHeader(data)
		if id, err := core.PeekItemID(body); err != nil || id != env.Item.Item.ID {
			t.Fatalf("in-place id %v (err=%v), decoded id %v", id, err, env.Item.Item.ID)
		}
		if size, n := env.Item.WireSize(), len(env.Item.AppendWire(nil)); size != n {
			t.Fatalf("item message WireSize %d, encoding %d bytes", size, n)
		}
		arrived := env.Item.Profile.Pack()
		for _, likes := range []bool{true, false} {
			n := core.NewNode(1, "", core.Config{FLike: 2, RPSViewSize: 4, ProfileWindow: 10},
				core.OpinionFunc(func(news.NodeID, news.ID) bool { return likes }), rand.New(rand.NewSource(1)))
			n.Receive(env.Item, 1)
			if after := env.Item.Profile.Pack(); !after.Equal(&arrived) {
				t.Fatalf("Receive (likes=%v) wrote the item profile it was handed", likes)
			}
		}
	})
}

// countingWriter measures steady-state gob output without buffering it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// gobProfile is a profile as the gob transport carried it: its fixed binary
// layout, a uint32 count then a big-endian {uint64 id, int64 stamp, float64
// score} per entry. Gob writes no more than the length and the bytes, so
// only the size matters here.
type gobProfile []byte

func fixedLayout(n int) gobProfile { return make(gobProfile, 4+(8+8+8)*n) }

// gobDescriptor is a descriptor as the gob transport carried it, with an
// address field the runtimes left empty.
type gobDescriptor struct {
	Node    news.NodeID
	Addr    string
	Stamp   int64
	Profile gobProfile
}

// gobItemMessage is a BEEP message as the gob transport carried it.
type gobItemMessage struct {
	Item       news.Item
	Profile    gobProfile
	Dislikes   int
	Hops       int
	ViaDislike bool
}

// gobEnvelope is an envelope as the gob transport carried it.
type gobEnvelope struct {
	Kind     wireKind
	From, To news.NodeID
	Descs    []gobDescriptor
	Tombs    []overlay.Tombstone
	Item     gobItemMessage
}

// packedLen is the number of entries a snapshot holds.
func packedLen(p *profile.Packed) int {
	u, _, err := profile.DecodeWire(p.AppendWire(nil))
	if err != nil {
		panic(err)
	}
	return u.Len()
}

// gobBytesSteadyState reports the average per-envelope gob size on a
// long-lived stream (type descriptors amortized), which is exactly what the
// previous gob transport put on the wire per message.
func gobBytesSteadyState(env envelope, n int) float64 {
	g := gobEnvelope{Kind: env.Kind, From: env.From, To: env.To, Tombs: env.Tombs, Item: gobItemMessage{
		Item: env.Item.Item, Dislikes: env.Item.Dislikes, Hops: env.Item.Hops, ViaDislike: env.Item.ViaDislike,
	}}
	if env.Item.Profile != nil {
		g.Item.Profile = fixedLayout(env.Item.Profile.Len())
	}
	for _, d := range env.Descs {
		g.Descs = append(g.Descs, gobDescriptor{d.Node, "", d.Stamp, fixedLayout(packedLen(d.Profile))})
	}
	var w countingWriter
	enc := gob.NewEncoder(&w)
	if err := enc.Encode(g); err != nil { // first message carries type info
		panic(err)
	}
	base := w.n
	for i := 0; i < n; i++ {
		if err := enc.Encode(g); err != nil {
			panic(err)
		}
	}
	return float64(w.n-base) / float64(n)
}

// TestBinaryCodecBeatsGob enforces the headline claim: the binary frame of
// the representative gossip envelope is at least 2× smaller than its gob
// encoding, even granting gob its amortized steady state. BEEP item frames
// are dominated by incompressible headline text, so they get a weaker (but
// still strict) 1.5× bound.
func TestBinaryCodecBeatsGob(t *testing.T) {
	for _, tc := range []struct {
		name   string
		env    envelope
		factor float64
	}{
		{"gossip", repGossip(), 2},
		{"item", repItem(), 1.5},
	} {
		bin := len(encodeFrame(tc.env))
		gobAvg := gobBytesSteadyState(tc.env, 16)
		t.Logf("%s: binary=%dB gob=%.0fB (%.2fx)", tc.name, bin, gobAvg, gobAvg/float64(bin))
		if float64(bin)*tc.factor > gobAvg {
			t.Fatalf("%s: binary frame %dB not %.1fx smaller than gob %.0fB", tc.name, bin, tc.factor, gobAvg)
		}
	}
}

// BenchmarkWireCodec tracks the codec's cost and size: bytes/op ("wire-B")
// for the binary frame vs the gob steady state, plus encode and decode
// throughput for the representative gossip envelope.
func BenchmarkWireCodec(b *testing.B) {
	env := repGossip()
	b.Run("binary-encode", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendEnvelope(buf[:0], env)
		}
		b.ReportMetric(float64(frameLen(len(buf))), "wire-B")
		b.SetBytes(int64(frameLen(len(buf))))
	})
	b.Run("binary-decode", func(b *testing.B) {
		enc := appendEnvelope(nil, env)
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, _, err := decodeEnv(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob-encode", func(b *testing.B) {
		var w countingWriter
		enc := gob.NewEncoder(&w)
		if err := enc.Encode(env); err != nil {
			b.Fatal(err)
		}
		base := w.n
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(env); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(w.n-base)/float64(b.N), "wire-B")
	})
}

// snapshotOf is p packed, by address, as a descriptor holds it.
func snapshotOf(p *profile.Profile) *profile.Packed {
	pk := p.Pack()
	return &pk
}

// encodeFrame is the frame a stream transport writes for env.
func encodeFrame(env envelope) []byte { return appendFrame(nil, appendEnvelope(nil, env)) }

// sendEnvelope encodes env into a pooled buffer and hands it over to n, as
// Runner.send does.
func sendEnvelope(n Network, env envelope) {
	buf := getBuf()
	*buf = appendEnvelope(*buf, env)
	n.Send(env.From, env.To, buf)
}
