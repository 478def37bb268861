package core

import (
	"cmp"
	"slices"

	"whatsup/internal/news"
)

// seenItem is one member of a node's SIR set: the item and the creation
// stamp the window expires it by.
type seenItem struct {
	id      news.ID
	created int64
}

// seenSet is the SIR "infected or removed" set of one node (Section III):
// every item the node has received or published within the profile window,
// in one slice sorted by item id. Lookups and inserts are a binary search;
// expiry is an in-place filter. The zero value is ready to use and holds no
// array until the first insert.
type seenSet struct {
	items []seenItem // one per item id, sorted by id
}

// find returns the position of the item in items, or the position it would
// be inserted at, and whether it is present.
func (s *seenSet) find(id news.ID) (int, bool) {
	return slices.BinarySearchFunc(s.items, id, func(it seenItem, id news.ID) int { return cmp.Compare(it.id, id) })
}

// insert adds the item and reports whether it was new.
func (s *seenSet) insert(id news.ID, created int64) bool {
	i, ok := s.find(id)
	if !ok {
		s.items = slices.Insert(s.items, i, seenItem{id, created})
	}
	return !ok
}

// expireOlderThan forgets every item created strictly before minStamp, the
// boundary profile.PurgeOlderThan uses. A filter that leaves the array under
// half full moves the survivors into one of their own size, so a burst does
// not pin its peak for the node's lifetime.
func (s *seenSet) expireOlderThan(minStamp int64) {
	s.items = slices.DeleteFunc(s.items, func(it seenItem) bool { return it.created < minStamp })
	switch {
	case len(s.items) == 0:
		s.items = nil
	case len(s.items) < cap(s.items)/2:
		s.items = slices.Clone(s.items)
	}
}
