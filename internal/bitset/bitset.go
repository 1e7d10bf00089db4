// Package bitset implements a dense bitset over non-negative integers.
//
// It is the core substrate shared by the vertical itemset miner (tidsets),
// the induced-subgraph machinery (membership tests) and the quasi-clique
// coverage search (covered-vertex sets). Only the operations those callers
// need are provided; all of them run in O(words) or better.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bitset. The zero value is an empty set of
// capacity zero; use New to create a set able to hold values in [0, n).
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for values in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewSlab returns k empty sets of capacity n whose word storage shares
// one contiguous arena: two allocations total instead of 2k. The
// quasi-clique engine uses it for its per-vertex adjacency and
// distance-2 indexes, whose per-set allocation otherwise dominates the
// allocation profile of short searches. The returned sets are owned by
// the caller; take the address of an element to use pointer methods.
func NewSlab(n, k int) []Set {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("bitset: negative slab dimensions %d x %d", n, k))
	}
	words := (n + wordBits - 1) / wordBits
	arena := make([]uint64, words*k)
	sets := make([]Set, k)
	for i := range sets {
		sets[i] = Set{words: arena[i*words : (i+1)*words : (i+1)*words], n: n}
	}
	return sets
}

// Slab is a reusable arena of equal-capacity sets. The zero value is
// ready to use; Carve reinitializes it, recycling the word storage and
// the set headers across calls, so a caller that repeatedly builds
// slabs of varying dimensions — the quasi-clique engine does, once per
// induced graph — amortizes the two NewSlab allocations away entirely.
type Slab struct {
	arena []uint64
	sets  []Set
}

// Carve returns k empty sets of capacity n backed by the slab. It
// invalidates the sets handed out by every previous Carve on the same
// slab: their storage is cleared and re-partitioned in place.
func (sl *Slab) Carve(n, k int) []Set {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("bitset: negative slab dimensions %d x %d", n, k))
	}
	words := (n + wordBits - 1) / wordBits
	if need := words * k; cap(sl.arena) < need {
		sl.arena = make([]uint64, need)
	} else {
		sl.arena = sl.arena[:need]
		for i := range sl.arena {
			sl.arena[i] = 0
		}
	}
	if cap(sl.sets) < k {
		sl.sets = make([]Set, k)
	} else {
		sl.sets = sl.sets[:k]
	}
	for i := range sl.sets {
		sl.sets[i] = Set{words: sl.arena[i*words : (i+1)*words : (i+1)*words], n: n}
	}
	return sl.sets
}

// Stack hands out sets in last-in, first-out order from reusable
// storage: PushAnd carves a set, and Release frees every set pushed
// since a Mark. The zero value is ready to use. A depth-first walk that
// builds a few sets per node — the miner's Eclat walk, with V(S), the
// Theorem-3 candidate restriction and the hand-down of each attribute
// set — pays for storage only while its deepest path grows, instead of
// two allocations per set. A set stays valid until the Release that
// frees it; growing the storage never moves a live set.
type Stack struct {
	words []uint64
	sets  []Set
}

// StackMark records a Stack's top; Release returns to it.
type StackMark struct{ words, sets int }

// Mark returns the current top of the stack.
func (st *Stack) Mark() StackMark { return StackMark{len(st.words), len(st.sets)} }

// Release frees every set pushed since mk was taken.
func (st *Stack) Release(mk StackMark) {
	st.words, st.sets = st.words[:mk.words], st.sets[:mk.sets]
}

// PushAnd returns a set holding a ∩ b carved from the stack, and its
// count, in one pass over the words: the slot is written, not cleared
// first. a and b must share one capacity, which the new set gets.
func (st *Stack) PushAnd(a, b *Set) (*Set, int) {
	a.mustMatch(b)
	need := len(a.words)
	top := len(st.words)
	if cap(st.words)-top < need {
		// Live sets keep the old array; the new one starts at the same
		// top, so offsets below it are never handed out twice.
		st.words = make([]uint64, top, 2*cap(st.words)+need)
	}
	w := st.words[top : top+need : top+need]
	st.words = st.words[:top+need]
	// A growing append leaves the live headers in the old array too.
	st.sets = append(st.sets, Set{words: w, n: a.n})
	x, y := a.words[:len(w)], b.words[:len(w)]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(w); i += 4 {
		w0, w1, w2, w3 := x[i]&y[i], x[i+1]&y[i+1], x[i+2]&y[i+2], x[i+3]&y[i+3]
		w[i], w[i+1], w[i+2], w[i+3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(w); i++ {
		w[i] = x[i] & y[i]
		c += bits.OnesCount64(w[i])
	}
	return &st.sets[len(st.sets)-1], c
}

// FromSlice returns a set of capacity n containing every value of vs.
func FromSlice(n int, vs []int32) *Set {
	s := New(n)
	for _, v := range vs {
		s.Add(int(v))
	}
	return s
}

// Len returns the capacity of the set (the n passed to New).
func (s *Set) Len() int { return s.n }

// Add inserts i into the set. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove deletes i from the set. It panics if i is out of range.
func (s *Set) Remove(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of elements in the set. The loop is
// unrolled four words wide with independent accumulators so the
// popcounts pipeline instead of serializing on one add chain.
func (s *Set) Count() int {
	w := s.words
	var c0, c1, c2, c3 int
	for len(w) >= 4 {
		c0 += bits.OnesCount64(w[0])
		c1 += bits.OnesCount64(w[1])
		c2 += bits.OnesCount64(w[2])
		c3 += bits.OnesCount64(w[3])
		w = w[4:]
	}
	c := c0 + c1 + c2 + c3
	for _, x := range w {
		c += bits.OnesCount64(x)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Reset reinitializes s to an empty set of n bits, reusing the backing
// array when its capacity allows. Scratch sets that outlive one use —
// e.g. a per-store seed buffer rebuilt for graphs of varying size —
// call Reset instead of allocating a fresh Set each round.
func (s *Set) Reset(n int) {
	words := (n + 63) >> 6
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// Grown returns a copy of s whose capacity is at least n: the original
// elements are preserved and the new tail (if any) is empty. When n does
// not exceed the current capacity the copy keeps the original capacity,
// so Grown is always safe to call with a target size that may have
// shrunk. The dynamic-graph layer uses it to carry covered-vertex sets
// across graph versions whose vertex count only ever grows.
func (s *Set) Grown(n int) *Set {
	if n < s.n {
		n = s.n
	}
	g := New(n)
	copy(g.words, s.words)
	return g
}

// CopyFrom overwrites s with the contents of o. The sets must have the
// same capacity.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// IntersectWith replaces s with s ∩ o. Like every mutating kernel
// below, the inner loop is unrolled four words wide after a slice-
// length hint that eliminates per-element bounds checks.
func (s *Set) IntersectWith(o *Set) {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a[i] &= b[i]
		a[i+1] &= b[i+1]
		a[i+2] &= b[i+2]
		a[i+3] &= b[i+3]
	}
	for ; i < len(a); i++ {
		a[i] &= b[i]
	}
}

// UnionWith replaces s with s ∪ o.
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// Intersect returns a new set s ∩ o.
func (s *Set) Intersect(o *Set) *Set {
	r := s.Clone()
	r.IntersectWith(o)
	return r
}

// IntersectCount returns |s ∩ o| without allocating: one branchless
// AND+popcount pass over the word arrays. This is the membership-count
// kernel of the quasi-clique engine's degree computations.
func (s *Set) IntersectCount(o *Set) int {
	s.mustMatch(o)
	a := s.words
	b := o.words[:len(a)]
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(a); i += 4 {
		c0 += bits.OnesCount64(a[i] & b[i])
		c1 += bits.OnesCount64(a[i+1] & b[i+1])
		c2 += bits.OnesCount64(a[i+2] & b[i+2])
		c3 += bits.OnesCount64(a[i+3] & b[i+3])
	}
	c := c0 + c1 + c2 + c3
	for ; i < len(a); i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// IntersectCount2 returns (|s ∩ a|, |s ∩ b|) in a single pass over s's
// words — the fused kernel behind the engine's indeg/exdeg split, where
// one adjacency set is counted against two scratch sets at once.
func (s *Set) IntersectCount2(a, b *Set) (ca, cb int) {
	s.mustMatch(a)
	s.mustMatch(b)
	for i, w := range s.words {
		ca += bits.OnesCount64(w & a.words[i])
		cb += bits.OnesCount64(w & b.words[i])
	}
	return ca, cb
}

// AndInto sets s = a ∩ b without allocating, overwriting s's contents
// (s is caller-owned scratch). All three sets must share one capacity.
func (s *Set) AndInto(a, b *Set) {
	s.mustMatch(a)
	s.mustMatch(b)
	for i := range s.words {
		s.words[i] = a.words[i] & b.words[i]
	}
}

// ContainsAll reports whether o ⊆ s.
func (s *Set) ContainsAll(o *Set) bool {
	s.mustMatch(o)
	for i, w := range o.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order. If fn returns
// false the iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// AppendTo appends the elements of s in ascending order to dst and
// returns the extended slice.
func (s *Set) AppendTo(dst []int32) []int32 {
	s.ForEach(func(i int) bool {
		dst = append(dst, int32(i))
		return true
	})
	return dst
}

// Slice returns the elements of s in ascending order.
func (s *Set) Slice() []int32 {
	return s.AppendTo(make([]int32, 0, s.Count()))
}

// Bytes renders the set's words little-endian with trailing zero bytes
// trimmed — a canonical, capacity-independent encoding of the content:
// two sets with the same elements produce the same bytes. The shard
// manifest seals covered-set hand-downs with it.
func (s *Set) Bytes() []byte {
	out := make([]byte, len(s.words)*8)
	for i, w := range s.words {
		for b := 0; b < 8; b++ {
			out[i*8+b] = byte(w >> uint(8*b))
		}
	}
	n := len(out)
	for n > 0 && out[n-1] == 0 {
		n--
	}
	return out[:n]
}

// FromBytes rebuilds a set of capacity n from a Bytes encoding. It
// rejects encodings that carry bits at or beyond n — a truncated-
// capacity decode would silently drop elements.
func FromBytes(n int, b []byte) (*Set, error) {
	s := New(n)
	for i, x := range b {
		if x == 0 {
			continue
		}
		if i/8 >= len(s.words) {
			return nil, fmt.Errorf("bitset: %d-byte encoding overflows capacity %d", len(b), n)
		}
		s.words[i/8] |= uint64(x) << uint(8*(i%8))
	}
	// Bits in the last in-range word may still exceed n.
	if last := len(s.words) - 1; last >= 0 && n%wordBits != 0 {
		if s.words[last]>>uint(n%wordBits) != 0 {
			return nil, fmt.Errorf("bitset: encoding has bits ≥ capacity %d", n)
		}
	}
	return s, nil
}

// NextSet returns the smallest element ≥ i, or -1 if none exists.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as "{a, b, c}" for debugging.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
