package bitset

import "fmt"

// Words exposes the set's backing word array by reference, little-
// endian bit order within each word (bit i of the set lives at word
// i/64, bit i%64). The v3 snapshot writer serializes sets through it;
// the caller must not modify the slice.
func (s *Set) Words() []uint64 { return s.words }

// ViewsOver carves k sets of capacity n out of one contiguous word
// arena — the read-side mirror of NewSlab, sharing its layout: set i
// occupies arena[i*stride : (i+1)*stride] with stride = ⌈n/64⌉. The
// words are used by reference, not copied: a view over a read-only
// mapped region must never be passed to a mutating kernel (the
// dynamic-graph layer upholds this by cloning with Grown before any
// mutation). It rejects an arena of the wrong length and stray bits at
// or beyond n in any set, so a corrupted snapshot section cannot
// produce a set whose Count disagrees with its elements.
func ViewsOver(n, k int, arena []uint64) ([]Set, error) {
	if n < 0 || k < 0 {
		return nil, fmt.Errorf("bitset: negative view dimensions %d x %d", n, k)
	}
	stride := (n + wordBits - 1) / wordBits
	if len(arena) != stride*k {
		return nil, fmt.Errorf("bitset: arena of %d words, %d sets of capacity %d need %d", len(arena), k, n, stride*k)
	}
	sets := make([]Set, k)
	for i := range sets {
		w := arena[i*stride : (i+1)*stride : (i+1)*stride]
		if stride > 0 && n%wordBits != 0 && w[stride-1]>>uint(n%wordBits) != 0 {
			return nil, fmt.Errorf("bitset: view %d has bits ≥ capacity %d", i, n)
		}
		sets[i] = Set{words: w, n: n}
	}
	return sets, nil
}
