package overlay

import (
	"bytes"
	"testing"

	"whatsup/internal/news"
	"whatsup/internal/profile"
	"whatsup/internal/wire"
)

// list encodes a descriptor list as the inter-shard batches carry it.
func list(descs ...Descriptor) []byte { return AppendDescriptors(nil, descs) }

// TestSnapshotTableTwoContentsUnderOneKey is the trap a (node, stamp) lookup
// alone would fall into: the sharded engine stamps descriptors of one node
// with one cycle from two states of its profile (see README, "Sharded
// engine"), so a held snapshot is shared only when it is Equal to the one
// decoded: the same bytes. Equal entries reached by another edit history
// are the same bytes and the same Σ score², and are shared.
func TestSnapshotTableTwoContentsUnderOneKey(t *testing.T) {
	build := func(ids ...news.ID) *profile.Profile {
		p := profile.New()
		for _, id := range ids {
			p.Set(id, 3, 1)
		}
		return p
	}
	mk := func(p *profile.Profile) Descriptor { return Descriptor{Node: 4, Stamp: 7, Profile: snapshotOf(p)} }
	first := mk(build(10, 11, 12))
	other := mk(build(10, 11)) // the same profile after a purge
	if bytes.Equal(other.Profile.AppendWire(nil), first.Profile.AppendWire(nil)) {
		t.Fatal("fixture: want two contents under one key")
	}
	// Equal entries reached through a purge.
	edited := build(10, 11, 12)
	edited.Set(13, 1, 1)
	edited.PurgeOlderThan(2)
	history := mk(edited)

	var table SnapshotTable
	decode := func(d Descriptor) *profile.Packed {
		t.Helper()
		got, rest, err := table.AppendDecode(nil, list(d))
		if err != nil || len(rest) != 0 || len(got) != 1 {
			t.Fatalf("decode: %v, %d bytes left, %d descriptors", err, len(rest), len(got))
		}
		if !got[0].Profile.Equal(d.Profile) {
			t.Fatalf("decoded %v, want %v", got[0].Profile, d.Profile)
		}
		return got[0].Profile
	}
	original := decode(first)
	if p := decode(other); p == original {
		t.Error("a different content under the held key came back as the held snapshot")
	}
	if p := decode(history); p != original {
		t.Error("equal entries from another edit history were decoded again instead of shared")
	}
	if !original.Equal(first.Profile) {
		t.Errorf("the held snapshot changed: now %v", original)
	}
	if p := decode(first); p != original {
		t.Error("an equal snapshot was decoded again instead of shared")
	}
	if table.Shared != 2 || table.Decoded != 2 {
		t.Errorf("shared %d decoded %d, want 2 and 2", table.Shared, table.Decoded)
	}

	// Two generations: a lookup keeps a snapshot, two rotations without one
	// forget it.
	table.Rotate()
	if p := decode(first); p != original {
		t.Error("forgotten after one rotation")
	}
	table.Rotate()
	if p := decode(first); p != original {
		t.Error("a snapshot looked up in the previous generation was not promoted")
	}
	table.Rotate()
	table.Rotate()
	if p := decode(first); p == original {
		t.Error("still held after two rotations without a lookup")
	}
}

// holding is a Holder over a fixed set of descriptors, one per node.
type holding map[news.NodeID]Descriptor

func (h holding) Held(node news.NodeID, _ int64) (Descriptor, bool) { return h[node], false }

// TestHeldDescriptorSharesProfile: against a held descriptor of the same
// node, the snapshot is the held one whenever the stamp agrees and the
// snapshot is Equal. Any other snapshot is cloned, or borrowed from a loan:
// a decode into a reused list against a loan allocates nothing.
func TestHeldDescriptorSharesProfile(t *testing.T) {
	held := wireDesc(3, 10)
	newer := held
	newer.Stamp++
	for _, tc := range []struct {
		name    string
		in      Descriptor
		profile bool // shared with held
		allocs  float64
	}{
		{"same", held, true, 1},          // the list
		{"newer-stamp", newer, false, 2}, // + a snapshot, its bytes in the same box
		{"unheld-node", wireDesc(5, 2), false, 2},
	} {
		enc := AppendDescriptors(nil, []Descriptor{tc.in})
		h := holding{held.Node: held}
		var loan Loan
		for _, l := range []*Loan{nil, &loan} {
			got, rest, err := DecodeDescriptorsHeld(nil, enc, h, l)
			if err != nil || len(rest) != 0 || len(got) != 1 {
				t.Fatalf("%s: decode: %v, %d bytes left, %d descriptors", tc.name, err, len(rest), len(got))
			}
			d := got[0]
			if d.Node != tc.in.Node || d.Stamp != tc.in.Stamp || !d.Profile.Equal(tc.in.Profile) {
				t.Errorf("%s: decoded %+v, want %+v", tc.name, d, tc.in)
			}
			if (d.Profile == held.Profile) != tc.profile {
				t.Errorf("%s: profile shared = %v, want %v", tc.name, d.Profile == held.Profile, tc.profile)
			}
		}
		if n := testing.AllocsPerRun(100, func() { DecodeDescriptorsHeld(nil, enc, h, nil) }); n != tc.allocs {
			t.Errorf("%s: %.0f allocations, want %.0f", tc.name, n, tc.allocs)
		}
		list := make([]Descriptor, 0, 1)
		if n := testing.AllocsPerRun(100, func() { DecodeDescriptorsHeld(list, enc, h, &loan) }); n != 0 {
			t.Errorf("%s: %.0f allocations borrowing into a reused list, want 0", tc.name, n)
		}
	}
}

// FuzzDescriptorsDecodeModes holds the modes of the one descriptor walk to
// one another on arbitrary bytes read as a descriptor list: a decode against
// held snapshots — a SnapshotTable pre-loaded from a second arbitrary list,
// and a Holder offering that list's descriptors whatever their stamp —
// yields the descriptors the plain decode yields, snapshot for snapshot
// Equal, and consumes as many bytes; all four accept the same inputs, so
// every mode refuses a non-zero reserved byte. The fourth is the holder
// decode borrowing its snapshots from a Loan: it yields what the cloning one
// does, and once a view holding the list has settled the loan, the view
// keeps it intact when the decoded bytes are scribbled over. The WireSize of a decoded list sums
// to its encoding less the count prefix. Some committed inputs were written
// with a per-profile trailer after the list; it is read as the bytes left
// over.
func FuzzDescriptorsDecodeModes(f *testing.F) {
	a, b := wireDesc(1, 4), wireDesc(2, 1)
	b2 := b // b's entries, reached through an edit
	edited := profile.New()
	edited.Set(2000, 0, 0)
	edited.Set(9, -1, 0.25)
	edited.PurgeOlderThan(0)
	b2.Profile = snapshotOf(edited)
	f.Add(list(a, b, Descriptor{Node: 7, Stamp: 1}), list(a, b))
	f.Add(list(a, b2), list(wireDesc(1, 3), b))
	f.Add(list(), list(a))
	f.Add(list(a, a)[:20], []byte{0xFF})
	f.Add(reservedSlot("127.0.0.1:9000"), list(wireDesc(2, 0))) // a non-zero reserved byte
	f.Fuzz(func(t *testing.T, data, preload []byte) {
		want, rest, err := DecodeDescriptorsHeld(nil, data, nil, nil)
		var table SnapshotTable
		table.AppendDecode(nil, preload)
		got, tableRest, tableErr := table.AppendDecode(nil, data)
		if (err == nil) != (tableErr == nil) {
			t.Fatalf("decode err=%v, against a table err=%v", err, tableErr)
		}
		held := holding{}
		if descs, _, err := DecodeDescriptorsHeld(nil, preload, nil, nil); err == nil {
			for _, d := range descs {
				held[d.Node] = d
			}
		}
		fromHolder, heldRest, heldErr := DecodeDescriptorsHeld(nil, data, held, nil)
		if (err == nil) != (heldErr == nil) {
			t.Fatalf("decode err=%v, against a holder err=%v", err, heldErr)
		}
		var loan Loan
		frame := bytes.Clone(data)
		borrowed, loanRest, loanErr := DecodeDescriptorsHeld(nil, frame, held, &loan)
		if (err == nil) != (loanErr == nil) {
			t.Fatalf("decode err=%v, borrowing err=%v", err, loanErr)
		}
		if err != nil {
			return
		}
		same := func(mode string, got, want []Descriptor) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d descriptors, decode %d", mode, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Node != w.Node || g.Stamp != w.Stamp || (g.Profile == nil) != (w.Profile == nil) {
					t.Fatalf("%s: descriptor %d is %+v, decode %+v", mode, i, g, w)
				}
				if w.Profile == nil {
					continue
				}
				if !g.Profile.Equal(w.Profile) {
					t.Fatalf("%s: descriptor %d carries %v, decode %v", mode, i, g.Profile, w.Profile)
				}
			}
		}
		if len(tableRest) != len(rest) {
			t.Fatalf("against a table %d bytes left, decode %d", len(tableRest), len(rest))
		}
		same("table", got, want)

		if len(heldRest) != len(rest) {
			t.Fatalf("against a holder %d bytes left, decode %d", len(heldRest), len(rest))
		}
		same("holder", fromHolder, want)

		if len(loanRest) != len(rest) {
			t.Fatalf("borrowing %d bytes left, decode %d", len(loanRest), len(rest))
		}
		same("borrowed", borrowed, want)
		// Two views take the two lists: the borrowed one settles its loan, then
		// its bytes are scribbled over.
		kept, ref := NewView(len(want)+1), NewView(len(want)+1)
		kept.InsertAll(borrowed, news.NoNode)
		ref.InsertAll(fromHolder, news.NoNode)
		loan.Settle(kept)
		for i := range frame {
			frame[i] = 0xFF
		}
		same("settled", kept.Entries(), ref.Entries())

		size := 0
		for _, d := range want {
			if enc := AppendDescriptor(nil, d); len(enc) != d.WireSize() {
				t.Fatalf("WireSize %d, encoding %d bytes", d.WireSize(), len(enc))
			}
			size += d.WireSize()
		}
		if enc := AppendDescriptors(nil, want); size != len(enc)-wire.UintLen(uint64(len(want))) {
			t.Fatalf("WireSize sums to %d over a list encoded in %d bytes", size, len(enc))
		}
		if enc := AppendDescriptors(nil, want); !bytes.Equal(enc, AppendDescriptors(nil, fromHolder)) {
			t.Fatal("a list decoded against a holder re-encodes differently")
		}
	})
}
