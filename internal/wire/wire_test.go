package wire

import (
	"errors"
	"math"
	"testing"
)

func TestUintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		b := AppendUint(nil, v)
		got, rest, err := Uint(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("Uint(%d): got=%d rest=%d err=%v", v, got, len(rest), err)
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	for _, v := range []int64{0, -1, 1, -64, 64, math.MinInt64, math.MaxInt64} {
		b := AppendInt(nil, v)
		got, rest, err := Int(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("Int(%d): got=%d rest=%d err=%v", v, got, len(rest), err)
		}
	}
}

func TestScoreRoundTripAndPacking(t *testing.T) {
	// The last two values have reversed-bytes bit patterns at the very top
	// of the uint64 range: one finite float and one denormal whose naive
	// "+shift" encoding would wrap around. They must use the escape form
	// and still round-trip exactly.
	wrapper := math.Float64frombits(0xFEFFFFFFFFFFFFFF)
	nearWrap := math.Float64frombits(0xFDFFFFFFFFFFFFFF)
	for _, f := range []float64{0, 1, 0.5, 0.25, 0.875, -2.5, 1e-300, math.MaxFloat64, wrapper, nearWrap} {
		b := AppendScore(nil, f)
		got, rest, err := Score(b)
		if err != nil || got != f || len(rest) != 0 {
			t.Fatalf("Score(%v): got=%v rest=%d err=%v", f, got, len(rest), err)
		}
	}
	// Binary opinions — the bulk of every user profile — must be one byte.
	if n := len(AppendScore(nil, 0)); n != 1 {
		t.Fatalf("score 0 encodes to %d bytes, want 1", n)
	}
	if n := len(AppendScore(nil, 1)); n != 1 {
		t.Fatalf("score 1 encodes to %d bytes, want 1", n)
	}
	if _, _, err := Score(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Score(nil) err=%v", err)
	}
	// Escape code without its 8 raw bytes.
	if _, _, err := Score([]byte{2, 0xFF}); !errors.Is(err, ErrTruncated) {
		t.Fatal("truncated escaped score must error")
	}
	// NaN reaches the escape path on encode and must be rejected on decode.
	if _, _, err := Score(AppendScore(nil, math.NaN())); !errors.Is(err, ErrMalformed) {
		t.Fatal("NaN score must be rejected on decode")
	}
}

func TestScoreRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := AppendScore(nil, f)
		if _, _, err := Score(b); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Score(%v) err=%v, want ErrMalformed", f, err)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "127.0.0.1:65535", string(make([]byte, 300))} {
		b := AppendString(nil, s)
		got, rest, err := Bytes(b)
		if err != nil || string(got) != s || len(rest) != 0 {
			t.Fatalf("Bytes(%q): got=%q rest=%d err=%v", s, got, len(rest), err)
		}
	}
}

func TestTruncationErrors(t *testing.T) {
	if _, _, err := Uint(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Uint(nil) err=%v", err)
	}
	if _, _, err := Int([]byte{0x80}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Int(0x80) err=%v", err)
	}
	// Length prefix pointing past the end of the buffer.
	b := AppendUint(nil, 100)
	if _, _, err := Bytes(append(b, 'x')); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short string err not truncated")
	}
	// Overlong varint (11 continuation bytes).
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, _, err := Uint(over); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overlong uvarint err=%v", err)
	}
}
