package profile

import (
	"bytes"
	"errors"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/wire"
)

func wireSample() *Profile {
	p := New()
	p.Set(news.ID(0x1122334455667788), 10, 1)
	p.Set(news.ID(0x1122334455667789), 12, 0)
	p.Set(news.ID(0xFFEEDDCCBBAA0099), 13, 0.375)
	return p
}

func TestAppendWireRoundTrip(t *testing.T) {
	for name, p := range map[string]*Profile{
		"empty":  New(),
		"sample": wireSample(),
	} {
		enc := p.AppendWire(nil)
		got, rest, err := DecodeWire(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%s: %d trailing bytes", name, len(rest))
		}
		if !sameEntries(got, p) {
			t.Fatalf("%s: round trip mismatch: %v != %v", name, got, p)
		}
		if got.sumSq != p.sumSq {
			t.Fatalf("%s: Σ score² mismatch after decode", name)
		}
	}
}

func TestAppendWireCanonical(t *testing.T) {
	// Same entries inserted in different orders must encode identically.
	a, b := New(), New()
	a.Set(1, 1, 1)
	a.Set(2, 2, 0)
	b.Set(2, 2, 0)
	b.Set(1, 1, 1)
	if !bytes.Equal(a.AppendWire(nil), b.AppendWire(nil)) {
		t.Fatal("canonical encoding must not depend on insertion order")
	}
}

func TestAppendWirePacksTighterThanFixed(t *testing.T) {
	p := wireSample()
	fixed := 4 + p.Len()*(8+8+8) // uint32 count, then a uint64 id, int64 stamp and float64 score each
	packed := p.AppendWire(nil)
	if len(packed) >= fixed {
		t.Fatalf("packed=%dB must beat fixed=%dB", len(packed), fixed)
	}
}

func TestDecodeWireTruncatedPrefixes(t *testing.T) {
	enc := wireSample().AppendWire(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeWire(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes must not decode", i, len(enc))
		}
	}
	if _, rest, err := DecodeWire(append(enc, 0xAB)); err != nil || len(rest) != 1 {
		t.Fatalf("decode of a whole profile: err=%v rest=%d, want the 1 trailing byte", err, len(rest))
	}
}

// TestDecodeWireRejectsNonCanonical: both readers of the packed layout take
// only the bytes AppendWire writes, so an entry that decodes to the same
// values from longer or escaped bytes is malformed for both.
func TestDecodeWireRejectsNonCanonical(t *testing.T) {
	if _, _, err := DecodeWire([]byte{1, 7, 2, 1}); err != nil { // id 7, stamp 1, score 1
		t.Fatalf("the canonical entry: %v", err)
	}
	for name, enc := range map[string][]byte{
		"overlong count":  {0x81, 0x00, 7, 2, 1},
		"overlong id":     {1, 0x87, 0x00, 2, 1},
		"overlong stamp":  {1, 7, 0x82, 0x00, 1},
		"escaped score 1": {1, 7, 2, 2, 0x3F, 0xF0, 0, 0, 0, 0, 0, 0},
		"negative zero":   {1, 7, 2, 0x83, 0x01},
	} {
		if _, _, err := DecodeWire(enc); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: DecodeWire err=%v, want ErrMalformed", name, err)
		}
		if _, _, err := DecodePacked(enc); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: DecodePacked err=%v, want ErrMalformed", name, err)
		}
	}
}

func TestDecodeWireRejectsHugeCount(t *testing.T) {
	// A count far beyond the available bytes must fail before allocating.
	enc := wire.AppendUint(nil, 1<<40)
	if _, _, err := DecodeWire(enc); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}

// FuzzProfileWire holds the two readers of a packed profile to each other on
// arbitrary bytes: DecodeWire and DecodePacked accept exactly the same inputs
// and leave the same bytes, and DecodePacked holds the decoded profile's
// entries and Σ score² bits. The bytes an accepted profile was read from are
// its encoding: AppendWire writes them back, WireSize is their length and
// Pack holds them. ReadWire into a scratch that first read the second input,
// which may not decode, gives what DecodeWire gives: no entry, Σ score² or
// error state of that read survives it.
func FuzzProfileWire(f *testing.F) {
	sample := wireSample().AppendWire(nil)
	f.Add(sample, New().AppendWire(nil))
	f.Add(New().AppendWire(nil), sample)
	f.Add(append(sample, 0xAB), sample[:len(sample)-1])
	f.Fuzz(func(t *testing.T, data, before []byte) {
		want, rest, err := DecodeWire(data)
		pk, prest, perr := DecodePacked(data)
		if (err == nil) != (perr == nil) || len(rest) != len(prest) {
			t.Fatalf("DecodeWire err=%v rest=%d, DecodePacked err=%v rest=%d", err, len(rest), perr, len(prest))
		}
		scratch := New()
		scratch.ReadWire(before)
		srest, serr := scratch.ReadWire(data)
		if (serr == nil) != (err == nil) || len(srest) != len(rest) {
			t.Fatalf("ReadWire into a used scratch: err=%v rest=%d, DecodeWire err=%v rest=%d", serr, len(srest), err, len(rest))
		}
		if err != nil {
			return
		}
		if !sameEntries(scratch, want) || !sameBits(scratch.sumSq, want.sumSq) {
			t.Fatalf("ReadWire into a used scratch gave %v, DecodeWire %v", scratch, want)
		}
		enc := want.AppendWire(nil)
		if read := data[:len(data)-len(rest)]; !bytes.Equal(read, enc) {
			t.Fatalf("read %x, which re-encodes to %x", read, enc)
		}
		if len(enc) != want.WireSize() {
			t.Fatalf("WireSize %d, encoding %d bytes", want.WireSize(), len(enc))
		}
		if !bytes.Equal(pk.AppendWire(nil), enc) || pk.String() != want.String() || !sameBits(pk.sumSq, want.sumSq) {
			t.Fatalf("DecodePacked gave %v, DecodeWire %v", &pk, want)
		}
		if packed := want.Pack(); !bytes.Equal(packed.AppendWire(nil), enc) || packed.WireSize() != len(enc) {
			t.Fatal("Pack does not hold the canonical encoding")
		}
	})
}

func TestDecodeWireRejectsUnsortedDuplicate(t *testing.T) {
	// Two entries with delta 0 — a duplicate id — must be rejected.
	enc := wire.AppendUint(nil, 2)
	enc = wire.AppendUint(enc, 7)
	enc = wire.AppendInt(enc, 1)
	enc = wire.AppendScore(enc, 1)
	enc = wire.AppendUint(enc, 0) // delta 0: same id again
	enc = wire.AppendInt(enc, 1)
	enc = wire.AppendScore(enc, 1)
	if _, _, err := DecodeWire(enc); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("err=%v, want ErrMalformed", err)
	}
}
