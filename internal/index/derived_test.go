package index

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"github.com/scpm/scpm/internal/core"
)

// buildTrieRef is the comparison-sort trie builder buildTrie replaced,
// kept as its reference: it sorts the sets lexicographically (ties by
// set index), so the sets below any node are one contiguous run, and
// expands the runs node by node.
func buildTrieRef(sets []core.AttributeSet) trie {
	order := make([]int32, len(sets))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		if c := slices.Compare(sets[x].Attrs, sets[y].Attrs); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	attrs := func(k int32) []int32 { return sets[order[k]].Attrs }

	t := make(trie, 1, len(sets)+1)
	t[0] = trieNode{set: -1}
	type run struct {
		node, lo, hi int32
		depth        int
	}
	stack := []run{{0, 0, int32(len(order)), 0}}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo := r.lo
		for lo < r.hi && len(attrs(lo)) == r.depth {
			t[r.node].set = order[lo]
			lo++
		}
		first := int32(len(t))
		for lo < r.hi {
			key := attrs(lo)[r.depth]
			hi := lo + 1
			for hi < r.hi && attrs(hi)[r.depth] == key {
				hi++
			}
			t = append(t, trieNode{key: key, set: -1})
			stack = append(stack, run{int32(len(t) - 1), lo, hi, r.depth + 1})
			lo = hi
		}
		t[r.node].first, t[r.node].n = first, int32(len(t))-first
	}
	return t
}

// newIDIndexRef is the comparison-sort id index newIDIndex replaced,
// kept as its reference: rows sorted by (hash, row).
func newIDIndexRef(ids []string) idIndex {
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

// checkDerived fails unless buildTrie and newIDIndex produce exactly
// the tables of their references on sets and ids, and find returns the
// last row of every id.
func checkDerived(t *testing.T, sets []core.AttributeSet, ids []string) {
	t.Helper()
	if got, want := buildTrie(sets), buildTrieRef(sets); !slices.Equal(got, want) {
		t.Fatalf("buildTrie differs from the reference over %d sets:\n got %v\nwant %v", len(sets), got, want)
	}
	got, want := newIDIndex(ids), newIDIndexRef(ids)
	if !slices.Equal(got, want) {
		t.Fatalf("newIDIndex differs from the reference over %d ids:\n got %v\nwant %v", len(ids), got, want)
	}
	last := make(map[string]int32, len(ids))
	for i, id := range ids {
		last[id] = int32(i)
	}
	for id, row := range last {
		if r := got.find(ids, id); r != row {
			t.Fatalf("find(%q) = %d, want the last row %d", id, r, row)
		}
	}
	if _, ok := last["absent"]; !ok && got.find(ids, "absent") != -1 {
		t.Fatal("find of an absent id is not -1")
	}
}

// randomSets draws n attribute sets of up to maxLen distinct ids below
// vocab, each list ascending, in canonical order (by size, then
// lexicographic), repeats included.
func randomSets(rng *rand.Rand, n, vocab, maxLen int) []core.AttributeSet {
	sets := make([]core.AttributeSet, n)
	for i := range sets {
		attrs := make([]int32, 1+rng.Intn(maxLen))
		for j := range attrs {
			attrs[j] = int32(rng.Intn(vocab))
		}
		sortDedup(&attrs)
		sets[i].Attrs = attrs
	}
	slices.SortStableFunc(sets, func(a, b core.AttributeSet) int { return core.CompareAttrs(a.Attrs, b.Attrs) })
	return sets
}

// idsOf returns an id string per set, equal for equal attribute lists.
func idsOf(sets []core.AttributeSet) []string {
	ids := make([]string, len(sets))
	for i, s := range sets {
		ids[i] = fmt.Sprint(s.Attrs)
	}
	return ids
}

// scaled returns a copy of sets with every attribute id multiplied by
// f plus off, so the ids reach past a given power of two in order.
func scaled(sets []core.AttributeSet, f, off int32) []core.AttributeSet {
	out := make([]core.AttributeSet, len(sets))
	for i, s := range sets {
		out[i].Attrs = make([]int32, len(s.Attrs))
		for j, a := range s.Attrs {
			out[i].Attrs[j] = a*f + off
		}
	}
	return out
}

// TestDerivedTablesMatchReference checks the trie and the id index
// against the comparison-sort builders they replaced, element for
// element.
func TestDerivedTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	t.Run("empty", func(t *testing.T) {
		checkDerived(t, nil, nil)
		checkDerived(t, []core.AttributeSet{{}}, []string{""})
		checkDerived(t, []core.AttributeSet{{}, {Attrs: []int32{3}}, {}, {Attrs: []int32{1, 2}}}, []string{"a", "b", "a", "c"})
	})
	for _, tc := range []struct {
		name          string
		n, vocab, max int
	}{
		{"tiny", 5, 4, 3},
		{"small runs", 60, 12, 4},
		{"large runs", 3000, 40, 6},
		{"wide vocabulary", 2000, 3000, 5},
		{"many ids", 6000, 200, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 5; rep++ {
				sets := randomSets(rng, tc.n, tc.vocab, tc.max)
				checkDerived(t, sets, idsOf(sets))
				rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
				checkDerived(t, sets, idsOf(sets))
			}
		})
	}
	t.Run("duplicate sets", func(t *testing.T) {
		sets := randomSets(rng, 400, 6, 3) // 41 distinct lists, so most repeat
		checkDerived(t, sets, idsOf(sets))
		x := buildTrie(sets)
		for i, s := range sets {
			if got := x.exact(s.Attrs); got < int32(i) || core.CompareAttrs(sets[got].Attrs, s.Attrs) != 0 {
				t.Fatalf("set %d %v is owned by %d, want its last copy", i, s.Attrs, got)
			}
		}
	})
	t.Run("large attribute ids", func(t *testing.T) {
		sets := randomSets(rng, 1500, 50, 5)
		for _, big := range []struct{ f, off int32 }{{1 << 6, 1 << 11}, {1 << 15, 1 << 21}, {1, 1<<21 - 25}} {
			s := scaled(sets, big.f, big.off)
			checkDerived(t, s, idsOf(s))
			rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
			checkDerived(t, s, idsOf(s))
		}
	})
	t.Run("duplicate ids", func(t *testing.T) {
		for _, n := range []int{3, 100, 5000} {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("id%d", rng.Intn(n/3+1))
			}
			checkDerived(t, nil, ids)
		}
	})
	t.Run("mined", func(t *testing.T) {
		g := randomGraph(t, 11)
		res, err := core.Mine(context.Background(), g, liveParams, nil)
		if err != nil {
			t.Fatal(err)
		}
		x := Build(res, g)
		checkDerived(t, x.sets, x.setIDs)
		checkDerived(t, nil, x.patIDs)
		if !slices.Equal(x.trie, buildTrieRef(x.sets)) || !slices.Equal(x.byID, newIDIndexRef(x.setIDs)) || !slices.Equal(x.patByID, newIDIndexRef(x.patIDs)) {
			t.Fatal("Build's tables differ from the references")
		}
	})
}

// FuzzDerivedTables decodes bytes into attribute lists and id strings
// and checks the trie and id index against their references. Byte 0xff
// ends a list; any other byte adds an id (its low 7 bits, shifted left
// by 14 when the high bit is set, so ids reach 2^21). Lists are taken
// as decoded — unsorted and repeating — because the two builders agree
// on any lists. A set's id string is its list's bytes. Run locally with
//
//	go test -run '^$' -fuzz FuzzDerivedTables ./internal/index
func FuzzDerivedTables(f *testing.F) {
	f.Add([]byte{1, 2, 0xff, 1, 0xff, 1, 2, 0xff, 2, 3})
	f.Add([]byte{0xff, 0xff, 5, 0xff})
	f.Add([]byte{0x81, 0x82, 0xff, 0x81, 0xff, 0x81, 0x82, 0x83, 0xff, 7, 0xff, 0x81, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		var sets []core.AttributeSet
		var ids []string
		start := 0
		var attrs []int32
		for i := 0; i <= len(data); i++ {
			if i == len(data) || data[i] == 0xff {
				sets = append(sets, core.AttributeSet{Attrs: attrs})
				ids = append(ids, string(data[start:i]))
				attrs, start = nil, i+1
				continue
			}
			a := int32(data[i] & 0x7f)
			if data[i]&0x80 != 0 {
				a <<= 14
			}
			attrs = append(attrs, a)
		}
		checkDerived(t, sets, ids)
	})
}
