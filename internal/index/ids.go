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
	// A least-significant-digit radix sort by hash: its counting passes
	// are stable, so rows with equal hashes stay in row order. The
	// histograms of every digit are counted while hashing.
	var count [idPasses][1 << idDigit]int32
	t := make(idIndex, len(ids))
	for i, id := range ids {
		h := maphash.String(idSeed, id)
		t[i] = idEntry{h, int32(i)}
		for p := range count {
			count[p][h>>(p*idDigit)&idMask]++
		}
	}
	src, dst := t, make(idIndex, len(t))
	for p := range count {
		pos := int32(0)
		for d, c := range count[p] {
			count[p][d] = pos
			pos += c
		}
		shift := p * idDigit
		for _, e := range src {
			d := e.h >> shift & idMask
			dst[count[p][d]] = e
			count[p][d]++
		}
		src, dst = dst, src
	}
	if idPasses%2 == 1 {
		copy(t, src)
	}
	return t
}

// The radix sort of newIDIndex takes idPasses passes over digits of
// idDigit bits.
const (
	idDigit  = 11
	idPasses = (64 + idDigit - 1) / idDigit
	idMask   = 1<<idDigit - 1
)

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
