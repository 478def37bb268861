package news

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"whatsup/internal/wire"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash("title", "desc", "http://example.org")
	b := Hash("title", "desc", "http://example.org")
	if a != b {
		t.Fatalf("same content hashed to %v and %v", a, b)
	}
}

// TestHashMatchesFNVAndBytes pins the one hashing loop from both sides: it
// is FNV-1a over the length-prefixed fields exactly as hash/fnv computes it
// (item ids are in every golden), and the in-place byte-slice form used on
// received frames yields the same id as the string form.
func TestHashMatchesFNVAndBytes(t *testing.T) {
	prop := func(title, desc, link string) bool {
		ref := fnv.New64a()
		for _, s := range []string{title, desc, link} {
			var n [4]byte
			binary.BigEndian.PutUint32(n[:], uint32(len(s)))
			ref.Write(n[:])
			ref.Write([]byte(s))
		}
		id := Hash(title, desc, link)
		return id == ID(ref.Sum64()) && id == HashBytes([]byte(title), []byte(desc), []byte(link))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if !prop("", "", "") || !prop("ab", "c", "") {
		t.Fatal("fixed cases")
	}
}

func TestHashFieldBoundaries(t *testing.T) {
	// Length prefixing must keep field boundaries distinct.
	a := Hash("ab", "c", "")
	b := Hash("a", "bc", "")
	if a == b {
		t.Fatalf("field boundary collision: %v", a)
	}
}

func TestHashDistinctContent(t *testing.T) {
	seen := make(map[ID]string)
	titles := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, title := range titles {
		for _, desc := range titles {
			id := Hash(title, desc, "l")
			key := title + "|" + desc
			if prev, dup := seen[id]; dup {
				t.Fatalf("collision between %q and %q", prev, key)
			}
			seen[id] = key
		}
	}
}

func TestNewComputesID(t *testing.T) {
	it := New("t", "d", "l", 42, 7)
	if it.ID != Hash("t", "d", "l") {
		t.Fatalf("New did not derive ID from content")
	}
	if it.Created != 42 || it.Source != 7 {
		t.Fatalf("New dropped metadata: %+v", it)
	}
}

func TestValidNodeID(t *testing.T) {
	for v, want := range map[int64]bool{
		-2: false, int64(NoNode): true, 0: true, 7: true,
		int64(^uint32(0) >> 1): true, int64(^uint32(0)>>1) + 1: false,
	} {
		if got := ValidNodeID(v); got != want {
			t.Fatalf("ValidNodeID(%d)=%v want %v", v, got, want)
		}
	}
}

func TestIDString(t *testing.T) {
	if got := ID(0xdeadbeef).String(); got != "00000000deadbeef" {
		t.Fatalf("ID.String() = %q", got)
	}
	if len(ID(0).String()) != 16 {
		t.Fatalf("ID string not fixed width: %q", ID(0).String())
	}
}

func TestWireSizeGrowsWithContent(t *testing.T) {
	small := New("t", "d", "l", 0, 0)
	big := New("a much longer headline than before", "and a description", "http://example.org/x", 0, 0)
	if small.WireSize() >= big.WireSize() {
		t.Fatalf("WireSize small=%d big=%d", small.WireSize(), big.WireSize())
	}
	if small.WireSize() <= 0 {
		t.Fatalf("WireSize must be positive, got %d", small.WireSize())
	}
}

func TestHashPropertyNoEasyCollisions(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return true
		}
		return Hash(a, "", "") != Hash(b, "", "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestWireSizeMatchesWireHelpers pins that Item.WireSize is computed with
// the exact internal/wire length helpers: varint-prefixed strings plus
// varint timestamp and source, no fixed-width approximation.
func TestWireSizeMatchesWireHelpers(t *testing.T) {
	it := New("headline", "a short description", "https://example.org/a", 42, 7)
	want := wire.StringLen(it.Title) + wire.StringLen(it.Description) + wire.StringLen(it.Link) +
		wire.IntLen(it.Created) + wire.IntLen(int64(it.Source))
	if got := it.WireSize(); got != want {
		t.Fatalf("WireSize=%d, helpers say %d", got, want)
	}
	// A 300-byte title needs a 2-byte length prefix; the old fixed estimate
	// could not represent that.
	big := New(string(make([]byte, 300)), "", "", 0, 0)
	if got := big.WireSize(); got != 2+300+1+1+1+1 {
		t.Fatalf("big WireSize=%d, want %d", got, 2+300+1+1+1+1)
	}
}

// TestIDStringMatchesSprintf: ID.String is byte-identical to %016x, the form
// it replaced, and makes one allocation, the string.
func TestIDStringMatchesSprintf(t *testing.T) {
	ids := []ID{0, 1, 0xf, 0x10, 0xabcdef, math.MaxUint64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		ids = append(ids, ID(rng.Uint64()), ID(rng.Uint64()>>uint(rng.Intn(64))))
	}
	for _, id := range ids {
		if got, want := id.String(), fmt.Sprintf("%016x", uint64(id)); got != want {
			t.Fatalf("ID(%d).String() = %q, want %q", uint64(id), got, want)
		}
	}
	id := ID(math.MaxUint64)
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = id.String() }); n != 1 {
		t.Fatalf("ID.String allocates %.1f/call, want 1", n)
	}
	_ = sink
}
