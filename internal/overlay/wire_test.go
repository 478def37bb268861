package overlay

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

func wireDesc(node int, entries int) Descriptor {
	p := profile.New()
	for i := 0; i < entries; i++ {
		p.Set(news.ID(1000*node+i), int64(i), float64(i%2))
	}
	return Descriptor{Node: news.NodeID(node), Stamp: int64(node * 7), Profile: snapshotOf(p)}
}

func TestDescriptorWireRoundTrip(t *testing.T) {
	cases := map[string]Descriptor{
		"full":          wireDesc(3, 10),
		"empty-profile": {Node: 1, Stamp: 5, Profile: snapshotOf(profile.New())},
		"nil-profile":   {Node: news.NoNode, Stamp: -9},
	}
	for name, d := range cases {
		list, rest, err := DecodeDescriptorsHeld(nil, AppendDescriptors(nil, []Descriptor{d}), nil, nil)
		if err != nil || len(rest) != 0 || len(list) != 1 {
			t.Fatalf("%s: decode err=%v rest=%d len=%d", name, err, len(rest), len(list))
		}
		got := list[0]
		if got.Node != d.Node || got.Stamp != d.Stamp {
			t.Fatalf("%s: scalar mismatch: %+v != %+v", name, got, d)
		}
		switch {
		case d.Profile == nil:
			if got.Profile != nil {
				t.Fatalf("%s: nil profile must stay nil", name)
			}
		case !got.Profile.Equal(d.Profile):
			t.Fatalf("%s: profile mismatch", name)
		}
	}
}

// reservedSlot encodes a one-descriptor list (node 2, an empty profile) with
// slot, length-prefixed, in place of the reserved byte: a non-empty slot
// makes that byte non-zero.
func reservedSlot(slot string) []byte {
	enc := wire.AppendUint(nil, 1)
	enc = wire.AppendInt(enc, 2)
	enc = wire.AppendString(enc, slot)
	enc = wire.AppendInt(enc, 0)
	enc = wire.AppendUint(enc, 1)
	return profile.New().AppendWire(enc)
}

// TestDescriptorReservedByte: the reserved byte is written as 0, where the
// layout once carried an empty address's length, so encodings are unchanged;
// and every mode of the descriptor walk refuses a descriptor whose reserved
// byte is not 0, as an address once was.
func TestDescriptorReservedByte(t *testing.T) {
	// zigzag(3), the reserved byte, zigzag(4), no profile.
	if got, want := AppendDescriptor(nil, Descriptor{Node: 3, Stamp: 4}), []byte{6, 0, 8, 0}; !bytes.Equal(got, want) {
		t.Fatalf("encoding %x, want %x", got, want)
	}
	for name, enc := range map[string][]byte{
		"long-addr": reservedSlot(strings.Repeat("a", 300)),
		"one-byte":  reservedSlot("x"),
	} {
		var table SnapshotTable
		var loan Loan
		h := holding{2: {Node: 2, Profile: snapshotOf(profile.New())}}
		for mode, decode := range map[string]func() error{
			"decode":    func() error { _, _, err := DecodeDescriptorsHeld(nil, enc, nil, nil); return err },
			"table":     func() error { _, _, err := table.AppendDecode(nil, enc); return err },
			"holder":    func() error { _, _, err := DecodeDescriptorsHeld(nil, enc, h, nil); return err },
			"borrowing": func() error { _, _, err := DecodeDescriptorsHeld(nil, enc, h, &loan); return err },
		} {
			if err := decode(); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s, %s: err=%v, want ErrMalformed", name, mode, err)
			}
		}
	}
}

func TestDescriptorsWireRoundTrip(t *testing.T) {
	descs := []Descriptor{wireDesc(1, 3), wireDesc(2, 0), {Node: 7, Stamp: 1}}
	enc := AppendDescriptors(nil, descs)
	got, rest, err := DecodeDescriptorsHeld(nil, enc, nil, nil)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode err=%v rest=%d", err, len(rest))
	}
	if len(got) != len(descs) {
		t.Fatalf("len=%d want %d", len(got), len(descs))
	}
	// Empty list must decode to nil, as handlers produce.
	if got, _, err := DecodeDescriptorsHeld(nil, AppendDescriptors(nil, nil), nil, nil); err != nil || got != nil {
		t.Fatalf("empty list: got=%v err=%v", got, err)
	}
}

func TestDescriptorsWireTruncatedPrefixes(t *testing.T) {
	enc := AppendDescriptors(nil, []Descriptor{wireDesc(1, 4), wireDesc(2, 1)})
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeDescriptorsHeld(nil, enc[:i], nil, nil); err == nil {
			t.Fatalf("prefix %d/%d must not decode", i, len(enc))
		}
	}
	// Each list consumes exactly its own bytes: a tombstone list behind the
	// descriptors decodes from what the descriptor list leaves.
	enc = AppendTombstones(enc, []Tombstone{{Node: 3, Stamp: 9}})
	_, rest, err := DecodeDescriptorsHeld(nil, enc, nil, nil)
	if err != nil {
		t.Fatalf("descriptors: %v", err)
	}
	if tombs, rest, err := AppendDecodeTombstones(nil, rest); err != nil || len(rest) != 0 || len(tombs) != 1 {
		t.Fatalf("tombstones: %v err=%v rest=%d", tombs, err, len(rest))
	}
	if _, _, err = AppendDecodeTombstones(nil, []byte{1, 3, 0}); !errors.Is(err, wire.ErrMalformed) { // one tombstone, node zigzag(3) = -2
		t.Fatalf("a tombstone below NoNode: err=%v, want ErrMalformed", err)
	}
}

func TestDecodeDescriptorsRejectsHugeCount(t *testing.T) {
	enc := wire.AppendUint(nil, 1<<50)
	if _, _, err := DecodeDescriptorsHeld(nil, enc, nil, nil); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("err=%v want ErrTruncated", err)
	}
}

// FuzzTombstones holds the reader of a tombstone list — the piggyback every
// non-item live frame carries — to itself on arbitrary bytes: decoding onto
// nil and onto a list that already holds tombstones agree on accepting and
// on the bytes left, and the second keeps what it was handed and appends what
// the first returns. An accepted list re-encodes to the bytes it was read
// from — shorter only where a varint came in more bytes than it needs, and
// then to a form that re-encodes to itself — in the count prefix plus
// TombstonesWireSize bytes.
func FuzzTombstones(f *testing.F) {
	f.Add(AppendTombstones(nil, []Tombstone{{Node: 3, Stamp: 9}, {Node: news.NoNode, Stamp: -4}}))
	f.Add(AppendTombstones(nil, nil))
	f.Add([]byte{1, 3, 0}) // one tombstone, node zigzag(3) = -2: below NoNode
	f.Fuzz(func(t *testing.T, data []byte) {
		want, rest, err := AppendDecodeTombstones(nil, data)
		held := []Tombstone{{Node: 1, Stamp: 2}, {Node: 7, Stamp: -1}}
		got, appendRest, appendErr := AppendDecodeTombstones(slices.Clone(held), data)
		if (err == nil) != (appendErr == nil) || len(rest) != len(appendRest) {
			t.Fatalf("appending decode disagrees with the decoder: decode err=%v rest=%d, append err=%v rest=%d",
				err, len(rest), appendErr, len(appendRest))
		}
		if !slices.Equal(got[:len(held)], held) {
			t.Fatalf("appending decode changed the list it was handed: %v, was %v", got[:len(held)], held)
		}
		if err != nil {
			return
		}
		if !slices.Equal(got[len(held):], want) {
			t.Fatalf("appending decode appended %v, decode %v", got[len(held):], want)
		}
		if len(want) == 0 && want != nil {
			t.Fatal("an empty list decodes to a non-nil slice")
		}

		enc := AppendTombstones(nil, want)
		if size := wire.UintLen(uint64(len(want))) + TombstonesWireSize(want); len(enc) != size {
			t.Fatalf("count prefix + TombstonesWireSize = %d, encoding %d bytes", size, len(enc))
		}
		read := data[:len(data)-len(rest)]
		if declared, _, _ := wire.Uint(read); declared != uint64(len(want)) {
			t.Fatalf("%d tombstones declared, decode returned %d", declared, len(want))
		}
		if len(enc) > len(read) || len(enc) == len(read) && !bytes.Equal(enc, read) {
			t.Fatalf("re-encoding %x of the %d bytes read %x", enc, len(read), read)
		}
		again, againRest, err := AppendDecodeTombstones(nil, enc)
		if err != nil || len(againRest) != 0 || !slices.Equal(again, want) {
			t.Fatalf("re-encoding decodes to %v (err=%v, %d bytes left), want %v", again, err, len(againRest), want)
		}
		if !bytes.Equal(AppendTombstones(nil, again), enc) {
			t.Fatal("the re-encoding re-encodes differently")
		}
	})
}

func TestDecodeDescriptorRejectsBadNode(t *testing.T) {
	enc := wire.AppendUint(nil, 1)
	enc = wire.AppendInt(enc, -2) // below NoNode
	enc = wire.AppendString(enc, "")
	enc = wire.AppendInt(enc, 0)
	enc = wire.AppendUint(enc, 0)
	if _, _, err := DecodeDescriptorsHeld(nil, enc, nil, nil); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("err=%v want ErrMalformed", err)
	}
}

func TestDescriptorWireIsCompact(t *testing.T) {
	// WireSize reports exactly the packed encoding's length: simulation
	// accounting and the live codec share one source of truth.
	d := wireDesc(3, 10)
	if got, est := len(AppendDescriptor(nil, d)), d.WireSize(); got != est {
		t.Fatalf("packed descriptor %dB but WireSize reports %dB", got, est)
	}
	if !reflect.DeepEqual(AppendDescriptor(nil, d), AppendDescriptor(nil, d)) {
		t.Fatal("encoding must be deterministic")
	}
}
