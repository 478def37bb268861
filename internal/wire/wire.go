// Package wire provides the varint primitives shared by the binary wire
// codecs of the live runtime (profile entries, overlay descriptors, BEEP
// item messages and live envelopes). All integers are LEB128 varints —
// unsigned values directly, signed values zigzag-encoded — and profile
// scores are packed as byte-reversed IEEE 754 bits so that the values
// dominating WhatsUp traffic (0, 1, and the dyadic averages of item
// profiles) encode in one to three bytes instead of eight.
//
// Decoders never panic on malformed input: every helper returns the
// remaining bytes and an error wrapping ErrTruncated or ErrMalformed, so
// frames received from the network can be rejected cheaply.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrTruncated reports input that ends in the middle of a value.
var ErrTruncated = errors.New("wire: truncated input")

// ErrMalformed reports input that cannot be a valid encoding (overlong
// varints, length prefixes exceeding the payload, invalid floats).
var ErrMalformed = errors.New("wire: malformed input")

// AppendUint appends v as an unsigned varint.
func AppendUint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendInt appends v as a zigzag-encoded varint.
func AppendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends s length-prefixed (uvarint byte count + raw bytes).
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// UintLen returns the exact number of bytes AppendUint writes for v,
// without encoding. Used by the simulator's bandwidth accounting so the
// legacy WireSize estimates and the live codec agree on one source of truth.
func UintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// IntLen returns the exact number of bytes AppendInt writes for v.
func IntLen(v int64) int {
	return UintLen(uint64(v)<<1 ^ uint64(v>>63)) // zigzag, as binary.AppendVarint
}

// StringLen returns the exact number of bytes AppendString writes for s.
func StringLen(s string) int {
	return UintLen(uint64(len(s))) + len(s)
}

// ScoreLen returns the exact number of bytes AppendScore writes for f.
func ScoreLen(f float64) int {
	switch f {
	case 0, 1:
		return 1
	}
	if rev := bits.ReverseBytes64(math.Float64bits(f)); rev <= math.MaxUint64-3 {
		return UintLen(3 + rev)
	}
	return 1 + 8 // escape code + raw bits
}

// Uint decodes an unsigned varint, returning the value and remaining bytes.
func Uint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n > 0 {
		return v, data[n:], nil
	}
	if n == 0 {
		return 0, data, ErrTruncated
	}
	return 0, data, fmt.Errorf("%w: overlong uvarint", ErrMalformed)
}

// Int decodes a zigzag-encoded varint.
func Int(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n > 0 {
		return v, data[n:], nil
	}
	if n == 0 {
		return 0, data, ErrTruncated
	}
	return 0, data, fmt.Errorf("%w: overlong varint", ErrMalformed)
}

// AppendScore appends a profile score with the 0/1 values that dominate
// WhatsUp traffic (binary like/dislike opinions) packed into a single byte:
// code 0 is 0.0, code 1 is 1.0, and any other value v is normally encoded
// as 3 + reversed-bytes bits of v. The two reversed-bits values that would
// wrap that shift past the uint64 range (one of them a finite float, so it
// cannot simply be rejected) take the escape code 2 followed by the raw
// 8-byte representation, keeping the mapping total and unambiguous.
func AppendScore(b []byte, f float64) []byte {
	switch f {
	case 0:
		return append(b, 0)
	case 1:
		return append(b, 1)
	}
	v := math.Float64bits(f)
	if rev := bits.ReverseBytes64(v); rev <= math.MaxUint64-3 {
		return binary.AppendUvarint(b, 3+rev)
	}
	b = append(b, 2)
	return binary.BigEndian.AppendUint64(b, v)
}

// Score decodes a score written by AppendScore, rejecting non-finite values.
func Score(data []byte) (float64, []byte, error) {
	u, rest, err := Uint(data)
	if err != nil {
		return 0, data, err
	}
	var f float64
	switch u {
	case 0:
		return 0, rest, nil
	case 1:
		return 1, rest, nil
	case 2:
		if len(rest) < 8 {
			return 0, data, fmt.Errorf("%w: escaped score needs 8 bytes, have %d", ErrTruncated, len(rest))
		}
		f = math.Float64frombits(binary.BigEndian.Uint64(rest))
		rest = rest[8:]
	default:
		f = math.Float64frombits(bits.ReverseBytes64(u - 3))
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, data, fmt.Errorf("%w: non-finite score", ErrMalformed)
	}
	return f, rest, nil
}

// Bytes decodes a length-prefixed field (what AppendString writes) in place:
// the result aliases data, so a caller that keeps it beyond the life of the
// (possibly pooled) input buffer converts it to a string or otherwise copies
// it.
func Bytes(data []byte) ([]byte, []byte, error) {
	n, rest, err := Uint(data)
	if err != nil {
		return nil, data, err
	}
	if n > uint64(len(rest)) {
		return nil, data, fmt.Errorf("%w: string of %d bytes, %d remain", ErrTruncated, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}
