package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"whatsup/internal/core"
	"whatsup/internal/news"
	"whatsup/internal/overlay"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// Envelope wire layout, shared by ChannelNet and TCPNet:
//
//	byte    kind (wireRPSRequest … wireRefillReply)
//	varint  from node, to node (zigzag)
//	payload wireItem:    BEEP message (core.ItemMessage.AppendWire)
//	        other kinds: descriptor list (overlay.AppendDescriptors) then
//	                     tombstone list (overlay.AppendTombstones) — the
//	                     departure notices piggybacked on gossip
//
// On a stream transport each envelope travels as one *frame*: a uvarint
// payload length followed by the payload. Frames are self-delimiting, so a
// batched write — several frames coalesced into one Write call — needs no
// extra structure on the read side.
//
// The payload stays bytes until the receiving node needs it: transports
// hand a node its inbox as pooled payload buffers, and the node decodes on
// its own goroutine (liveNode.onFrame) — after it has asked the cheapest
// question first, "have I seen this item?", which needs only the envelope
// header and a hash of the item content where it lies in the buffer. A
// stream transport checks framing only; a framing error poisons the
// connection, and a well-framed payload that does not decode is a loss at
// the node.

// maxFramePayload bounds a declared frame length. The largest legitimate
// envelope is a gossip push of tens of descriptors, far below this; anything
// bigger means a corrupt or hostile stream and poisons the connection.
const maxFramePayload = 1 << 22 // 4 MiB

// maxPooledBuf is the largest buffer putBuf keeps. Pooled buffers sit in
// node inboxes for as long as their frame is queued, so one that grew for a
// rare large frame (or a TCP batch) must not come back to carry, and pin its
// capacity behind, a few hundred bytes.
const maxPooledBuf = 64 << 10

// bufPool recycles codec scratch buffers and inbox payload buffers across
// sends and receives. Buffers are kept pointer-wrapped so Put does not
// allocate.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return // left to the garbage collector
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// itemScratch is what the first receipt of an item frame decodes, folds and
// forwards in: the item profile as it arrived, a liker's fold of it, and the
// sends. None of it outlives the frame — the feed packs its own copy, the
// forwards are encoded before onFrame hands the scratch back — so one pool
// serves every node rather than each node keeping its own.
type itemScratch struct {
	arrived, folded profile.Profile
	sends           []core.Send
}

var scratchPool = sync.Pool{New: func() any { return new(itemScratch) }}

// maxScratchFrame is the largest item frame decoded into pooled scratch. A
// decoded entry takes up to 8 times its packed bytes, so a scratch that took
// a larger frame could keep as much as an oversized buffer putBuf drops; such
// a frame decodes into a new profile instead.
const maxScratchFrame = maxPooledBuf / 8

// appendEnvelope appends the wire encoding of e to buf.
func appendEnvelope(buf []byte, e envelope) []byte {
	buf = append(buf, byte(e.Kind))
	buf = wire.AppendInt(buf, int64(e.From))
	buf = wire.AppendInt(buf, int64(e.To))
	if e.Kind == wireItem {
		return e.Item.AppendWire(buf)
	}
	buf = overlay.AppendDescriptors(buf, e.Descs)
	return overlay.AppendTombstones(buf, e.Tombs)
}

// envelopeHeader decodes the kind and the two node ids every envelope starts
// with, returning the kind-specific body.
//
//whatsup:hotpath
func envelopeHeader(data []byte) (kind wireKind, from, to news.NodeID, body []byte, err error) {
	if len(data) == 0 {
		return 0, 0, 0, data, fmt.Errorf("envelope kind: %w", wire.ErrTruncated)
	}
	if data[0] > byte(wireRefillReply) {
		return 0, 0, 0, data, fmt.Errorf("%w: unknown envelope kind %d", wire.ErrMalformed, data[0])
	}
	f, rest, err := wire.Int(data[1:])
	if err != nil {
		return 0, 0, 0, data, fmt.Errorf("envelope from: %w", err)
	}
	t, rest, err := wire.Int(rest)
	if err != nil {
		return 0, 0, 0, data, fmt.Errorf("envelope to: %w", err)
	}
	if !news.ValidNodeID(f) || !news.ValidNodeID(t) {
		return 0, 0, 0, data, fmt.Errorf("%w: envelope node ids (%d→%d) out of range", wire.ErrMalformed, f, t)
	}
	return wireKind(data[0]), news.NodeID(f), news.NodeID(t), rest, nil
}

// decodeEnvelope decodes one envelope from the front of data into e. It is
// the only validation a received payload gets: transports check framing
// alone, so a payload that does not decode here is a loss at the node. The
// node decodes against what it holds (h, see overlay.Holder): the
// descriptors it would discard are validated like the rest and left out of
// e.Descs, which the list is appended to. Item strings, profiles and
// tombstones are copies. A snapshot the node does not hold is borrowed from
// data when l is not nil: a decoded snapshot borrows the frame until the
// merge settles; what a view keeps is copied once (overlay.Loan.Settle).
// With l nil, nothing in e aliases data. An item's profile is decoded into
// e.Item.Profile when the caller set it (scratch the caller owns,
// core.DecodeItemMessageInto), and into a new profile otherwise.
func decodeEnvelope(e *envelope, data []byte, h overlay.Holder, l *overlay.Loan) ([]byte, error) {
	kind, from, to, rest, err := envelopeHeader(data)
	if err != nil {
		return data, err
	}
	if kind == wireItem {
		dst := e.Item.Profile
		if dst == nil {
			dst = profile.New()
		}
		e.Item, rest, err = core.DecodeItemMessageInto(dst, rest)
	} else if e.Descs, rest, err = overlay.DecodeDescriptorsHeld(e.Descs, rest, h, l); err == nil {
		e.Tombs, rest, err = overlay.AppendDecodeTombstones(nil, rest)
	}
	if err != nil {
		return data, err
	}
	e.Kind, e.From, e.To = kind, from, to
	return rest, nil
}

// decodePayload decodes a frame payload: exactly one envelope, no trailing
// bytes.
func decodePayload(e *envelope, payload []byte, h overlay.Holder, l *overlay.Loan) error {
	rest, err := decodeEnvelope(e, payload, h, l)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in frame", wire.ErrMalformed, len(rest))
	}
	return nil
}

// appendFrame appends the frame carrying payload — uvarint payload length
// then payload — to buf: the exact byte sequence a stream transport writes.
func appendFrame(buf, payload []byte) []byte {
	buf = wire.AppendUint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// frameLen is the length of the frame carrying an n-byte payload, what
// bandwidth accounting reports for it.
func frameLen(n int) int { return wire.UintLen(uint64(n)) + n }

// readFrame reads one frame from a buffered stream into a pooled buffer; the
// caller owns the buffer. It checks framing only — the declared length within
// maxFramePayload and the whole payload present — and leaves the payload to
// the node's decode. io.EOF is returned verbatim on a clean boundary so pumps
// can distinguish an orderly close from a mid-frame cut. A declared length
// above maxPooledBuf is read a chunk of at most maxPooledBuf at a time, the
// buffer doubling as bytes arrive, so a length header with nothing behind it
// costs the receiver one chunk, not the length it declares.
func readFrame(br *bufio.Reader) (*[]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit", wire.ErrMalformed, n)
	}
	buf := getBuf()
	*buf = (*buf)[:0]
	for rest := int(n); rest > 0 && err == nil; {
		chunk := min(rest, maxPooledBuf)
		if cap(*buf)-len(*buf) < chunk {
			*buf = slices.Grow(*buf, min(max(chunk, len(*buf)), rest))
		}
		start := len(*buf)
		*buf = (*buf)[:start+chunk]
		_, err = io.ReadFull(br, (*buf)[start:])
		rest -= chunk
	}
	if err != nil {
		putBuf(buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}
