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
		if _, err := CheckWire(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes must not pass the check-only walk", i, len(enc))
		}
	}
	if rest, err := CheckWire(append(enc, 0xAB)); err != nil || len(rest) != 1 {
		t.Fatalf("check-only walk of a whole profile: err=%v rest=%d, want the 1 trailing byte", err, len(rest))
	}
}

func TestDecodeWireRejectsHugeCount(t *testing.T) {
	// A count far beyond the available bytes must fail before allocating.
	enc := wire.AppendUint(nil, 1<<40)
	if _, _, err := DecodeWire(enc); !errors.Is(err, wire.ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}

// FuzzProfileWire holds every way of reading a packed profile to one
// another on arbitrary bytes: DecodeWire, the check-only CheckWire and
// DecodePacked. They agree on accepting and on the bytes left, except that
// DecodePacked accepts the canonical encodings only, and DecodePacked holds
// the decoded profile's entries and Σ score² bits. An accepted
// profile re-encodes to a canonical form: WireSize is its length, it decodes
// to equal entries (a non-canonical -0 score comes back +0), re-encodes to
// itself and packs to those bytes. The second input is not read; it keeps
// the two-input form of the committed seed corpus.
func FuzzProfileWire(f *testing.F) {
	sample := wireSample().AppendWire(nil)
	f.Add(sample, New().AppendWire(nil))
	f.Add(New().AppendWire(nil), sample)
	f.Add(append(sample, 0xAB), sample[:len(sample)-1])
	f.Fuzz(func(t *testing.T, data, _ []byte) {
		want, rest, err := DecodeWire(data)
		checkRest, checkErr := CheckWire(data)
		if (err == nil) != (checkErr == nil) || len(rest) != len(checkRest) {
			t.Fatalf("check-only walk disagrees with the decoder: decode err=%v rest=%d, check err=%v rest=%d",
				err, len(rest), checkErr, len(checkRest))
		}
		if err != nil {
			return
		}

		enc := want.AppendWire(nil)
		if len(enc) != want.WireSize() {
			t.Fatalf("WireSize %d, encoding %d bytes", want.WireSize(), len(enc))
		}
		consumed := data[:len(data)-len(rest)]
		pk, prest, perr := DecodePacked(data)
		if canonical := bytes.Equal(consumed, enc); (perr == nil) != canonical {
			t.Fatalf("DecodePacked err=%v on a canonical=%v encoding", perr, canonical)
		}
		if perr == nil {
			if len(prest) != len(rest) || !bytes.Equal(pk.AppendWire(nil), enc) || pk.String() != want.String() ||
				!sameBits(pk.sumSq, want.sumSq) {
				t.Fatalf("DecodePacked gave %v with %d bytes left, decode %v with %d", &pk, len(prest), want, len(rest))
			}
		}
		if packed := want.Pack(); !bytes.Equal(packed.AppendWire(nil), enc) || packed.WireSize() != len(enc) {
			t.Fatal("Pack does not hold the canonical encoding")
		}
		again, arest, aerr := DecodeWire(enc)
		if aerr != nil || len(arest) != 0 || !sameEntries(again, want) {
			t.Fatalf("re-encoding does not decode to the same entries: err=%v rest=%d", aerr, len(arest))
		}
		if !bytes.Equal(again.AppendWire(nil), enc) {
			t.Fatal("the re-encoding is not canonical: it re-encodes differently")
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
	if _, err := CheckWire(enc); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("check-only err=%v, want ErrMalformed", err)
	}
}
