package index

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/scpm/scpm/internal/core"
)

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

// checkDerived fails unless newIDIndex produces exactly the table of
// its reference on ids and find returns the last row of every id, and
// unless, on sets put in canonical order, every set's id is its ID()
// and Exact and Subsets answer as a scan does.
func checkDerived(t *testing.T, sets []core.AttributeSet, ids []string) {
	t.Helper()
	table := canonical(sets)
	x := tableIndex(table)
	for i := range table {
		if got, want := x.SetID(i), table[i].ID(); got != want {
			t.Fatalf("set %d %v: id %s, want %s", i, table[i].Names, got, want)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(sets))))
	for _, q := range tableQueries(rng, table, 50) {
		checkLookups(t, x, q)
	}
	idOf := func(i int) string { return ids[i] }
	got, want := newIDIndex(len(ids), idOf), newIDIndexRef(ids)
	if !slices.Equal(got, want) {
		t.Fatalf("newIDIndex differs from the reference over %d ids:\n got %v\nwant %v", len(ids), got, want)
	}
	last := make(map[string]int32, len(ids))
	for i, id := range ids {
		last[id] = int32(i)
	}
	for id, row := range last {
		if r := got.find(idOf, id); r != row {
			t.Fatalf("find(%q) = %d, want the last row %d", id, r, row)
		}
	}
	if _, ok := last["absent"]; !ok && got.find(idOf, "absent") != -1 {
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

// TestDerivedTablesMatchReference checks the id index against the
// comparison-sort builder it replaced, element for element, and the set
// table searches against a scan.
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
		if !slices.Equal(x.byID, newIDIndexRef(x.setIDs)) || !slices.Equal(x.patByID, newIDIndexRef(x.patIDs)) {
			t.Fatal("Build's tables differ from the references")
		}
	})
}

// FuzzDerivedTables decodes bytes into attribute lists and id strings
// and checks the id index against its reference, and Exact and Subsets
// on the lists, put in canonical order, against a scan. Byte 0xff ends
// a list; any other byte adds an id (its low 7 bits, shifted left by 14
// when the high bit is set, so ids reach 2^21). The id strings are
// taken as decoded, repeats included. A set's id string is its list's
// bytes. Run locally with
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

// TestRankedMatchesCompare checks the radix-sorted rankings against a
// stable sort by core.Ranking.Compare, on tables whose numbers mix
// NaN, ±0, ±Inf, negative supports, many ties and values that share
// their top bits.
func TestRankedMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), -1.5, 0.5, 1}
	for _, n := range []int{0, 1, 7, 300, 5000} {
		sets := canonical(randomSets(rng, n, 60, 4))
		for i := range sets {
			s := &sets[i]
			s.Support = rng.Intn(40) - 3
			s.Epsilon, s.Delta = rng.Float64(), 0.5+rng.Float64()*1e-9
			if rng.Intn(3) == 0 {
				s.Epsilon = floats[rng.Intn(len(floats))]
			}
			if rng.Intn(3) == 0 {
				s.Delta = floats[rng.Intn(len(floats))]
			}
		}
		x := tableIndex(sets)
		for r := core.BySupport; r <= core.ByDelta; r++ {
			want := make([]int32, len(sets))
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return r.Compare(&sets[a], &sets[b]) })
			if got := x.Ranked(r); !slices.Equal(got, want) {
				t.Fatalf("%d sets, Ranked(%v) = %v, want %v", len(sets), r, got, want)
			}
		}
	}
}
