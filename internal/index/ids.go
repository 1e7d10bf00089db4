package index

import (
	"cmp"
	"hash/maphash"
	"slices"
)

// idSeed seeds the id hashes of every idIndex in the process.
var idSeed = maphash.MakeSeed()

// idIndex maps the id strings of a table to their rows like a
// map[string]int32 does — the later of two equal ids wins — but as one
// flat, pointer-free slice: the rows sorted by a hash of their id, found
// by binary search.
type idIndex []idEntry

type idEntry struct {
	h   uint64
	row int32
}

// newIDIndex indexes ids, the id of every row.
func newIDIndex(ids []string) idIndex {
	t := make(idIndex, len(ids))
	for i, id := range ids {
		t[i] = idEntry{maphash.String(idSeed, id), int32(i)}
	}
	slices.SortFunc(t, func(a, b idEntry) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	return t
}

// find returns the last row of ids, the table t indexes, whose id is
// id, or -1.
func (t idIndex) find(ids []string, id string) int32 {
	h := maphash.String(idSeed, id)
	k, _ := slices.BinarySearchFunc(t, h, func(e idEntry, h uint64) int { return cmp.Compare(e.h, h) })
	row := int32(-1)
	for ; k < len(t) && t[k].h == h; k++ {
		if ids[t[k].row] == id {
			row = t[k].row
		}
	}
	return row
}
