package profile

import (
	"bytes"
	"errors"
	"math"
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
		if !got.Equal(p) {
			t.Fatalf("%s: round trip mismatch: %v != %v", name, got, p)
		}
		if got.Norm() != p.Norm() {
			t.Fatalf("%s: norm mismatch after decode", name)
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
	fixed, _ := p.MarshalBinary()
	packed := p.AppendWire(nil)
	if len(packed) >= len(fixed) {
		t.Fatalf("packed=%dB must beat fixed=%dB", len(packed), len(fixed))
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

// sameEntries reports whether two profiles hold the same entries: ids,
// stamps and score bits.
func sameEntries(a, b *Profile) bool {
	if len(a.entries) != len(b.entries) {
		return false
	}
	for i, e := range a.entries {
		f := b.entries[i]
		if e.Item != f.Item || e.Stamp != f.Stamp || math.Float64bits(e.Score) != math.Float64bits(f.Score) {
			return false
		}
	}
	return true
}

// sameDecode is sameEntries plus the same NormAccumulator pair, to the bit.
func sameDecode(a, b *Profile) bool {
	as, ad := a.NormAccumulator()
	bs, bd := b.NormAccumulator()
	return sameEntries(a, b) && math.Float64bits(as) == math.Float64bits(bs) && ad == bd
}

// dirtied returns p after an insert and a removal: same entries, but a
// bumped subtractive-edit counter and a sumSq that went through both.
func dirtied(p *Profile) *Profile {
	p.Set(news.ID(0xABCDEF), 3, 1.0/3)
	p.Remove(news.ID(0xABCDEF))
	return p
}

// TestUnmarshalWireReusesEntries: decoding into a profile whose entry array
// is large enough allocates nothing and leaves what DecodeWire would; an
// array shared with a copy-on-write clone is left to the clone.
func TestUnmarshalWireReusesEntries(t *testing.T) {
	enc := wireSample().AppendWire(nil)
	want, _, err := DecodeWire(enc)
	if err != nil {
		t.Fatal(err)
	}
	scratch := dirtied(WithCapacity(8))
	if n := testing.AllocsPerRun(100, func() { scratch.UnmarshalWire(enc) }); n != 0 {
		t.Errorf("a decode into a large enough scratch allocates %.1f/op, want 0", n)
	}
	if !sameDecode(scratch, want) {
		t.Errorf("scratch decoded to %v, DecodeWire %v", scratch, want)
	}

	clone := scratch.Clone()
	version := scratch.Version()
	if _, err := scratch.UnmarshalWire(New().AppendWire(nil)); err != nil || scratch.Len() != 0 {
		t.Fatalf("decode of an empty profile: err=%v, %d entries", err, scratch.Len())
	}
	if scratch.Version() == version {
		t.Error("UnmarshalWire replaced the contents without bumping the version")
	}
	if !sameDecode(clone, want) {
		t.Errorf("the clone changed under a decode into its original: %v", clone)
	}
	if _, err := scratch.UnmarshalWire(enc[:len(enc)-1]); err == nil || scratch.Len() != 0 || scratch.Norm() != 0 {
		t.Errorf("a failed decode: err=%v, left %d entries and norm %v, want none", err, scratch.Len(), scratch.Norm())
	}
}

// FuzzProfileWire holds every way of reading a packed profile to one
// another on arbitrary bytes: DecodeWire, the check-only CheckWire,
// DecodePacked, and UnmarshalWire into a dirty receiver — pre-filled,
// COW-shared with a clone that must not change, and again once its array is
// its own. They agree on accepting, on the bytes left, and on entries and
// NormAccumulator bits, except that DecodePacked accepts the canonical
// encodings only. An accepted profile re-encodes to a canonical form:
// WireSize is its length, it decodes to equal entries (a non-canonical -0
// score comes back +0), re-encodes to itself and packs to those bytes.
func FuzzProfileWire(f *testing.F) {
	sample := wireSample().AppendWire(nil)
	f.Add(sample, New().AppendWire(nil))
	f.Add(New().AppendWire(nil), sample)
	f.Add(append(sample, 0xAB), sample[:len(sample)-1])
	f.Fuzz(func(t *testing.T, data, other []byte) {
		want, rest, err := DecodeWire(data)
		checkRest, checkErr := CheckWire(data)
		if (err == nil) != (checkErr == nil) || len(rest) != len(checkRest) {
			t.Fatalf("check-only walk disagrees with the decoder: decode err=%v rest=%d, check err=%v rest=%d",
				err, len(rest), checkErr, len(checkRest))
		}

		// Read as a profile, other pre-fills the receiver and is one of the
		// held copies; bytes that do not decode stand in for the sample.
		decodeOther := func() *Profile {
			if p, _, err := DecodeWire(other); err == nil {
				return p
			}
			return wireSample()
		}
		recv := dirtied(decodeOther())
		clone := recv.Clone()
		cloneEnc := clone.AppendWire(nil)
		cloneSum, cloneDirty := clone.NormAccumulator()
		version := recv.Version()
		unmarshal := func(mode string) {
			urest, uerr := recv.UnmarshalWire(data)
			if (uerr == nil) != (err == nil) || len(urest) != len(rest) {
				t.Fatalf("%s: UnmarshalWire err=%v rest=%d, decode err=%v rest=%d", mode, uerr, len(urest), err, len(rest))
			}
			if err != nil {
				if sum, dirty := recv.NormAccumulator(); recv.Len() != 0 || sum != 0 || dirty != 0 {
					t.Fatalf("%s: a failed UnmarshalWire left %d entries, accumulator (%v, %d)", mode, recv.Len(), sum, dirty)
				}
				return
			}
			if !sameDecode(recv, want) {
				t.Fatalf("%s: UnmarshalWire gave %v, decode %v", mode, recv, want)
			}
		}
		unmarshal("into a shared receiver")
		if recv.Version() == version {
			t.Fatal("UnmarshalWire did not bump the version")
		}
		sum, dirty := clone.NormAccumulator()
		if !bytes.Equal(clone.AppendWire(nil), cloneEnc) || math.Float64bits(sum) != math.Float64bits(cloneSum) || dirty != cloneDirty {
			t.Fatal("a clone changed under UnmarshalWire into its original")
		}
		recv.UnmarshalWire(other) // stale entries the next decode must overwrite
		unmarshal("reusing the receiver's own array")

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
			sum, dirty := want.NormAccumulator()
			if len(prest) != len(rest) || !bytes.Equal(pk.AppendWire(nil), enc) || pk.Len() != want.Len() ||
				!pk.Equal(&Packed{wire: enc, sumSq: sum, dirty: dirty}) {
				t.Fatalf("DecodePacked gave %v with %d bytes left, decode %v with %d", &pk, len(prest), want, len(rest))
			}
		}
		if packed := want.Pack(); !bytes.Equal(packed.AppendWire(nil), enc) || packed.WireSize() != len(enc) {
			t.Fatal("Pack does not hold the canonical encoding")
		}
		again, arest, aerr := DecodeWire(enc)
		if aerr != nil || len(arest) != 0 || !again.Equal(want) {
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
