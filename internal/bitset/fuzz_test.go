package bitset

import (
	"bytes"
	"math/bits"
	"testing"
)

// fromBytes builds a set of capacity n whose element i is present when
// bit i of the byte stream is 1 (bits beyond n are ignored).
func fromBytes(n int, data []byte) *Set {
	s := New(n)
	for i := 0; i < n && i/8 < len(data); i++ {
		if data[i/8]&(1<<uint(i%8)) != 0 {
			s.Add(i)
		}
	}
	return s
}

// FuzzBitsetKernels differentially checks the word-at-a-time kernels,
// Stack.PushAnd among them, against naive per-bit reference loops over
// Contains, which exercise none of the word-level shortcuts. Run
// locally with
//
//	go test -fuzz FuzzBitsetKernels ./internal/bitset
func FuzzBitsetKernels(f *testing.F) {
	f.Add(uint16(70), []byte{0xff, 0x01, 0x80}, []byte{0x0f})
	f.Add(uint16(1), []byte{0x01}, []byte{0x00})
	f.Add(uint16(64), []byte{0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa, 0xaa}, []byte{0x55})
	f.Add(uint16(129), []byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03})
	f.Add(uint16(513), []byte{0x10, 0x00, 0x20}, []byte{0x10, 0x00, 0x20})
	// Dense words on every lane of the four-word unrolled loops.
	f.Add(uint16(330), bytes.Repeat([]byte{0xff}, 42), bytes.Repeat([]byte{0x5a}, 42))
	f.Fuzz(func(t *testing.T, n16 uint16, ab, bb []byte) {
		n := int(n16)%700 + 1
		a := fromBytes(n, ab)
		b := fromBytes(n, bb)

		// Per-bit references.
		interCount, unionCount := 0, 0
		for i := 0; i < n; i++ {
			ina, inb := a.Contains(i), b.Contains(i)
			if ina && inb {
				interCount++
			}
			if ina || inb {
				unionCount++
			}
		}

		if got := a.IntersectCount(b); got != interCount {
			t.Fatalf("IntersectCount = %d, want %d", got, interCount)
		}
		if ca, cb := a.IntersectCount2(b, a); ca != interCount || cb != a.Count() {
			t.Fatalf("IntersectCount2 = (%d,%d), want (%d,%d)", ca, cb, interCount, a.Count())
		}

		scratch := New(n)
		scratch.AndInto(a, b)
		if got := scratch.Count(); got != interCount {
			t.Fatalf("AndInto count = %d, want %d", got, interCount)
		}
		for i := 0; i < n; i++ {
			if scratch.Contains(i) != (a.Contains(i) && b.Contains(i)) {
				t.Fatalf("AndInto bit %d wrong", i)
			}
		}

		u := a.Clone()
		u.UnionWith(b)
		if got := u.Count(); got != unionCount {
			t.Fatalf("UnionWith count = %d, want %d", got, unionCount)
		}

		// The fused stack push: a ∩ b and its count, written over storage
		// a released set left dirty, and unchanged by later pushes that
		// grow the stack.
		var st Stack
		first, c := st.PushAnd(a, b)
		if c != interCount || !first.Equal(scratch) {
			t.Fatalf("PushAnd = %d (equal=%v), want %d", c, first.Equal(scratch), interCount)
		}
		mk := st.Mark()
		st.PushAnd(u, u)
		st.Release(mk)
		second, c := st.PushAnd(b, a)
		if c != interCount || !second.Equal(scratch) {
			t.Fatalf("PushAnd over released storage = %d (equal=%v), want %d", c, second.Equal(scratch), interCount)
		}
		for grown := cap(st.words); cap(st.words) == grown; {
			if s, c := st.PushAnd(a, b); c != interCount || !s.Equal(scratch) {
				t.Fatalf("PushAnd at depth %d = %d, want %d", len(st.sets), c, interCount)
			}
		}
		if !first.Equal(scratch) || !second.Equal(scratch) || first.Count() != interCount || second.Count() != interCount {
			t.Fatal("a live pushed set changed when the stack grew")
		}

		// ContainsAll must agree with the subset relation of the AND.
		if got, want := a.ContainsAll(scratch), true; got != want {
			t.Fatalf("ContainsAll(a∩b ⊆ a) = %v", got)
		}
		if b.Count() > 0 && interCount < b.Count() {
			if a.ContainsAll(b) {
				t.Fatal("ContainsAll claims b ⊆ a but intersection is smaller than b")
			}
		}

		// NextSet walk must enumerate exactly the members in order.
		prev := -1
		seen := 0
		for i := a.NextSet(0); i >= 0; i = a.NextSet(i + 1) {
			if i <= prev || !a.Contains(i) {
				t.Fatalf("NextSet walk broke at %d (prev %d)", i, prev)
			}
			prev = i
			seen++
		}
		if seen != a.Count() {
			t.Fatalf("NextSet walk saw %d members, Count = %d", seen, a.Count())
		}

		// Popcount of the backing words must agree with Count.
		wordSum := 0
		for _, w := range a.words {
			wordSum += bits.OnesCount64(w)
		}
		if wordSum != a.Count() {
			t.Fatalf("word popcount %d != Count %d", wordSum, a.Count())
		}
	})
}
