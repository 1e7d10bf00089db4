package index

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"
)

// idSeed seeds the id hashes of every idIndex in the process.
var idSeed = maphash.MakeSeed()

// idIndex maps the id strings of a table to their rows like a
// map[string]int32 does — the later of two equal ids wins — but as one
// flat, pointer-free slice: the rows sorted by a hash of their id, found
// by binary search.
type idIndex []idEntry

// idEntry pairs a row with a 64-bit key: the hash of its id in an
// idIndex, its rank key in Ranked.
type idEntry struct {
	h   uint64
	row int32
}

// newIDIndex indexes the n rows of a table whose row i has the id
// id(i).
func newIDIndex(n int, id func(int) string) idIndex {
	t := make(idIndex, n)
	for i := range t {
		t[i] = idEntry{maphash.String(idSeed, id(i)), int32(i)}
	}
	// Distinct hashes rarely share their top idBits bits, so radix
	// passes over those leave runs of about one entry to finish.
	return sortByKey(t, idBits)
}

// idBits is how many top hash bits newIDIndex sorts by radix passes.
const idBits = 2 * radixDigit

// find returns the last row whose id is want, or -1; id gives the id of
// a row of the table t indexes.
func (t idIndex) find(id func(int) string, want string) int32 {
	h := maphash.String(idSeed, want)
	k, _ := slices.BinarySearchFunc(t, h, func(e idEntry, h uint64) int { return cmp.Compare(e.h, h) })
	row := int32(-1)
	for ; k < len(t) && t[k].h == h; k++ {
		if id(int(t[k].row)) == want {
			row = t[k].row
		}
	}
	return row
}

// sortByKey sorts t by key, stably. Least-significant-digit radix
// passes order it by the top bits bits of the key (whole digits, at
// least one); a digit every key shares leaves the order as it is, so
// it gets no pass. When bits < 64, each run of entries sharing those
// bits is then sorted by the whole key, which costs a scan where the
// runs are short or already in order. The counting passes and the run
// sort are stable, so entries with equal keys keep their order. The
// sorted entries are in t or in a buffer of its length, whichever the
// result is.
func sortByKey(t []idEntry, bits int) []idEntry {
	if len(t) == 0 {
		return t
	}
	nd := min((bits+radixDigit-1)/radixDigit, radixPasses)
	low := max(64-nd*radixDigit, 0) // the lowest bit a digit holds
	var differ uint64               // the bits some two keys differ in
	for _, e := range t {
		differ |= e.h ^ t[0].h
	}
	shifts := make([]int, 0, radixPasses)
	for d := range nd {
		if shift := low + d*radixDigit; differ>>shift&radixMask != 0 {
			shifts = append(shifts, shift)
		}
	}
	var count [radixPasses][1 << radixDigit]int32
	for _, e := range t {
		for p, shift := range shifts {
			count[p][e.h>>shift&radixMask]++
		}
	}
	src, dst := t, []idEntry(nil)
	for p, shift := range shifts {
		if dst == nil {
			dst = make([]idEntry, len(t))
		}
		pos := int32(0)
		for d, c := range count[p] {
			count[p][d] = pos
			pos += c
		}
		for _, e := range src {
			d := e.h >> shift & radixMask
			dst[count[p][d]] = e
			count[p][d]++
		}
		src, dst = dst, src
	}
	if low == 0 || differ>>low<<low == differ {
		return src
	}
	byKey := func(a, b idEntry) int { return cmp.Compare(a.h, b.h) }
	for a := 0; a < len(src); {
		b := a + 1
		for b < len(src) && src[b].h>>low == src[a].h>>low {
			b++
		}
		if run := src[a:b]; len(run) > 1 && !slices.IsSortedFunc(run, byKey) {
			slices.SortStableFunc(run, byKey)
		}
		a = b
	}
	return src
}

// sortByKey reads the key in digits of radixDigit bits, at most
// radixPasses of them.
const (
	radixDigit  = 11
	radixPasses = (64 + radixDigit - 1) / radixDigit
	radixMask   = 1<<radixDigit - 1
)

// descInt and descFloat map a value to a key whose ascending order is
// the value's descending order under cmp.Compare: every NaN ranks below
// every number and -0 equals +0.
func descInt(v int) uint64 { return ^(uint64(v) ^ 1<<63) }

func descFloat(f float64) uint64 {
	switch {
	case f != f:
		return math.MaxUint64
	case f == 0:
		f = 0 // -0 → +0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return b // negative: ^(^b), flipped once for ascending and once for descending
	}
	return ^(b | 1<<63)
}
