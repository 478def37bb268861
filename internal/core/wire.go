package core

import (
	"fmt"
	"strings"

	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// ItemMessage wire layout, used by live BEEP envelopes:
//
//	string  title, description, link (uvarint length + bytes each)
//	varint  created stamp, source node (zigzag)
//	varint  dislike counter d_I, hop count (zigzag)
//	uint    via-dislike flag (0/1)
//	uint    profile presence (0 = none: decoded as an empty profile,
//	        1 = packed item profile P_I follows)
//
// The item identifier is NOT transmitted: receivers recompute the 8-byte
// content hash locally (paper II-A), which keeps the frame one hash shorter
// and prevents identifier spoofing. The dataset ground-truth fields Topic
// and Community are likewise never gossiped — they exist only for workload
// generators and metrics on the publishing side — so a decoded item carries
// their zero values.

// AppendWire appends the wire encoding of the message to buf.
func (m ItemMessage) AppendWire(buf []byte) []byte {
	buf = wire.AppendString(buf, m.Item.Title)
	buf = wire.AppendString(buf, m.Item.Description)
	buf = wire.AppendString(buf, m.Item.Link)
	buf = wire.AppendInt(buf, m.Item.Created)
	buf = wire.AppendInt(buf, int64(m.Item.Source))
	buf = wire.AppendInt(buf, int64(m.Dislikes))
	buf = wire.AppendInt(buf, int64(m.Hops))
	if m.ViaDislike {
		buf = wire.AppendUint(buf, 1)
	} else {
		buf = wire.AppendUint(buf, 0)
	}
	if m.Profile == nil {
		return wire.AppendUint(buf, 0)
	}
	buf = wire.AppendUint(buf, 1)
	return m.Profile.AppendWire(buf)
}

// PeekItemID recomputes the identifier of the item at the front of data from
// its content fields, hashed where they lie: no string is built and the rest
// of the message is not looked at. It is the receiver's cheap "have I seen
// this?" probe; like DecodeItemMessage it trusts nothing the sender claims.
//
//whatsup:hotpath
func PeekItemID(data []byte) (news.ID, error) {
	title, description, link, _, err := itemContent(data)
	if err != nil {
		return 0, err
	}
	return news.HashBytes(title, description, link), nil
}

// itemContent slices the three length-prefixed content fields off the front
// of data, in place.
func itemContent(data []byte) (title, description, link, rest []byte, err error) {
	if title, rest, err = wire.Bytes(data); err != nil {
		return nil, nil, nil, data, fmt.Errorf("item title: %w", err)
	}
	if description, rest, err = wire.Bytes(rest); err != nil {
		return nil, nil, nil, data, fmt.Errorf("item description: %w", err)
	}
	if link, rest, err = wire.Bytes(rest); err != nil {
		return nil, nil, nil, data, fmt.Errorf("item link: %w", err)
	}
	return title, description, link, rest, nil
}

// DecodeItemMessage decodes one message from the front of data with its item
// profile in a new profile: DecodeItemMessageInto a profile of its own.
func DecodeItemMessage(data []byte) (ItemMessage, []byte, error) {
	return DecodeItemMessageInto(profile.New(), data)
}

// DecodeItemMessageInto decodes one message from the front of data,
// recomputing the item identifier from the received content, with its item
// profile decoded into dst (profile.Profile.ReadWire): the message's Profile
// is dst, whose entry array is reused. A message sent without a profile
// arrives with dst emptied, never nil. dst is the caller's, and so is its
// lifetime: a receiver that decodes into scratch must be done with the
// message — forwards encoded, whatever it keeps copied — before it reuses
// dst. Nothing aliases data: the title, description and link are substrings
// of one string copied out of it. On error dst holds no message until the
// next decode into it, which replaces whatever the failed one left.
func DecodeItemMessageInto(dst *profile.Profile, data []byte) (ItemMessage, []byte, error) {
	title, description, link, rest, err := itemContent(data)
	if err != nil {
		return ItemMessage{}, data, err
	}
	created, rest, err := wire.Int(rest)
	if err != nil {
		return ItemMessage{}, data, fmt.Errorf("item created: %w", err)
	}
	source, rest, err := wire.Int(rest)
	if err != nil {
		return ItemMessage{}, data, fmt.Errorf("item source: %w", err)
	}
	if !news.ValidNodeID(source) {
		return ItemMessage{}, data, fmt.Errorf("%w: source node %d out of range", wire.ErrMalformed, source)
	}
	dislikes, rest, err := wire.Int(rest)
	if err != nil {
		return ItemMessage{}, data, fmt.Errorf("item dislikes: %w", err)
	}
	hops, rest, err := wire.Int(rest)
	if err != nil {
		return ItemMessage{}, data, fmt.Errorf("item hops: %w", err)
	}
	// The encoder can never produce negative counters; accepting them would
	// corrupt the hop/dislike histograms downstream.
	if dislikes < 0 || hops < 0 || dislikes > int64(maxIntValue) || hops > int64(maxIntValue) {
		return ItemMessage{}, data, fmt.Errorf("%w: item counters (d_I=%d, hops=%d) out of range", wire.ErrMalformed, dislikes, hops)
	}
	via, rest, err := wire.Uint(rest)
	if err != nil || via > 1 {
		if err == nil {
			err = fmt.Errorf("%w: via-dislike flag %d", wire.ErrMalformed, via)
		}
		return ItemMessage{}, data, fmt.Errorf("item via-dislike: %w", err)
	}
	present, rest, err := wire.Uint(rest)
	if err != nil {
		return ItemMessage{}, data, fmt.Errorf("item profile flag: %w", err)
	}
	if present > 1 {
		return ItemMessage{}, data, fmt.Errorf("%w: profile presence flag %d", wire.ErrMalformed, present)
	}
	if present == 1 {
		if rest, err = dst.ReadWire(rest); err != nil {
			return ItemMessage{}, data, err
		}
	} else {
		dst.Reset() // sent without a profile: empty, never nil
	}
	// One string holds the three fields, each a substring of it: whoever
	// keeps an item (a feed record) keeps all three anyway.
	var b strings.Builder
	b.Grow(len(title) + len(description) + len(link))
	b.Write(title)
	b.Write(description)
	b.Write(link)
	content := b.String()
	t, dl := len(title), len(title)+len(description)
	return ItemMessage{
		Item: news.Item{
			ID:          news.HashBytes(title, description, link),
			Title:       content[:t],
			Description: content[t:dl],
			Link:        content[dl:],
			Created:     created,
			Source:      news.NodeID(source),
		},
		Profile:    dst,
		Dislikes:   int(dislikes),
		Hops:       int(hops),
		ViaDislike: via == 1,
	}, rest, nil
}

const maxIntValue = int(^uint(0) >> 1)
