package overlay

import "whatsup/internal/profile"

// maxKeptLoan bounds the slots a Loan keeps between frames. A legitimate
// gossip leg carries a view and one more descriptor; a larger declared count
// sizes the arena for one frame and is then let go, so one hostile frame
// cannot pin its size behind every later one.
const maxKeptLoan = 256

// Loan is a receiver's arena of borrowed snapshots: the profile.Packed values
// of one frame's descriptor list, decoded in place, so that their bytes alias
// the frame. A held decode against a loan (DecodeDescriptorsHeld) puts into
// it each snapshot it would otherwise clone, and the merge runs on them as
// they are: scoring and trimming read packed bytes where they lie. A
// decoded snapshot borrows the frame until the merge settles; what a view
// keeps is copied once. Settle does the copying, and must run before the
// frame's buffer is reused: it replaces every borrowed snapshot a view or its
// score cache kept with one owned copy (profile.Packed.Clone, one allocation
// holding header and bytes up to 1 112 bytes), shared by every view that
// kept it. A snapshot that lost the merge it was decoded for costs nothing.
//
// The zero value is ready to use. A loan belongs to one receiver and holds
// one frame at a time: a held decode against it starts it over.
type Loan struct {
	slots []profile.Packed  // this frame's borrowed snapshots; never relocated while lent
	owned []*profile.Packed // owned[i] is the copy of slots[i] a view kept, nil until one did
}

// lend places pk in the next slot and returns its address. The first lend of
// a frame reserves room for the remaining descriptors of its list, so the
// addresses handed out stay put.
func (l *Loan) lend(pk profile.Packed, remaining uint64) *profile.Packed {
	if len(l.slots) == 0 && uint64(cap(l.slots)) < remaining {
		l.slots, l.owned = make([]profile.Packed, 0, remaining), make([]*profile.Packed, remaining)
	}
	l.slots = append(l.slots, pk)
	return &l.slots[len(l.slots)-1]
}

// own returns the owned copy of p if p is borrowed from the loan, making it
// on first demand, and p itself otherwise.
func (l *Loan) own(p *profile.Packed) *profile.Packed {
	for i := range l.slots {
		if p == &l.slots[i] {
			if l.owned[i] == nil {
				l.owned[i] = p.Clone()
			}
			return l.owned[i]
		}
	}
	return p
}

// Settle ends the loan's frame: in each view it replaces every borrowed
// snapshot an entry or a score-cache slot holds with the snapshot's owned
// copy, one allocation however many views keep it, then it lets go of the
// frame. Views must not be mid-merge.
func (l *Loan) Settle(views ...*View) {
	if len(l.slots) > 0 {
		for _, v := range views {
			for i := range v.entries {
				v.entries[i].Profile = l.own(v.entries[i].Profile)
			}
			for i := range v.cache.slots {
				v.cache.slots[i].prof = l.own(v.cache.slots[i].prof)
			}
		}
		clear(l.slots) // the arena must not keep the frame reachable
		clear(l.owned[:len(l.slots)])
	}
	l.slots = l.slots[:0]
	if cap(l.slots) > maxKeptLoan {
		l.slots, l.owned = nil, nil
	}
}
