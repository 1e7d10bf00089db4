package index

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/scpm/scpm/internal/core"
)

// scanAnswers is the reference of the set table searches: a plain scan
// of sets for the ones holding every query name (supers), the ones whose
// names are all in the query (subs), and the one that is both (exact, or
// -1).
func scanAnswers(sets []core.AttributeSet, query []string) (supers, subs []int, exact int) {
	exact = -1
	for i, s := range sets {
		all, within := true, true
		for _, n := range query {
			all = all && slices.Contains(s.Names, n)
		}
		for _, n := range s.Names {
			within = within && slices.Contains(query, n)
		}
		if all {
			supers = append(supers, i)
		}
		if within {
			subs = append(subs, i)
		}
		if all && within {
			exact = i
		}
	}
	return supers, subs, exact
}

// checkLookups fails unless x answers Supersets, Subsets and Exact on
// query as the scan of its sets does.
func checkLookups(t *testing.T, x *Index, query []string) {
	t.Helper()
	supers, subs, exact := scanAnswers(x.Sets(), query)
	if got := x.Supersets(query); !reflect.DeepEqual(got, supers) && (len(got) > 0 || len(supers) > 0) {
		t.Fatalf("Supersets(%v) = %v, scan %v", query, got, supers)
	}
	if got := x.Subsets(query); !reflect.DeepEqual(got, subs) && (len(got) > 0 || len(subs) > 0) {
		t.Fatalf("Subsets(%v) = %v, scan %v", query, got, subs)
	}
	if got := x.Exact(query); got != exact {
		t.Fatalf("Exact(%v) = %d, scan %d", query, got, exact)
	}
}

// canonical returns sets in the order an Index requires: each list
// sorted and deduplicated, the lists strictly ascending by
// core.CompareAttrs, and every attribute id a named "a<id>".
func canonical(sets []core.AttributeSet) []core.AttributeSet {
	out := make([]core.AttributeSet, len(sets))
	for i, s := range sets {
		attrs := slices.Clone(s.Attrs)
		sortDedup(&attrs)
		out[i].Attrs = attrs
	}
	slices.SortFunc(out, func(a, b core.AttributeSet) int { return core.CompareAttrs(a.Attrs, b.Attrs) })
	out = slices.CompactFunc(out, func(a, b core.AttributeSet) bool { return slices.Equal(a.Attrs, b.Attrs) })
	for i := range out {
		out[i].Names = nameAll(out[i].Attrs)
	}
	return out
}

// nameAll returns the name "a<id>" of every attribute id.
func nameAll(attrs []int32) []string {
	names := make([]string, len(attrs))
	for j, a := range attrs {
		names[j] = fmt.Sprintf("a%d", a)
	}
	return names
}

// tableIndex indexes sets, which must be canonical, without patterns.
func tableIndex(sets []core.AttributeSet) *Index {
	x := &Index{sets: sets}
	x.freeze()
	return x
}

// tableQueries draws n queries over sets: the names of one set with one
// name dropped or not and up to three more names added, known or not,
// repeats included, in random order.
func tableQueries(rng *rand.Rand, sets []core.AttributeSet, n int) [][]string {
	queries := make([][]string, n)
	for q := range queries {
		var query []string
		if len(sets) > 0 {
			query = slices.Clone(sets[rng.Intn(len(sets))].Names)
		}
		if len(query) > 0 && rng.Intn(3) == 0 {
			query = slices.Delete(query, 0, 1)
		}
		for k := rng.Intn(4); k > 0; k-- {
			switch {
			case len(sets) > 0 && rng.Intn(3) > 0:
				s := sets[rng.Intn(len(sets))]
				if len(s.Names) > 0 {
					query = append(query, s.Names[rng.Intn(len(s.Names))])
				}
			default:
				query = append(query, fmt.Sprintf("a%d", -1-rng.Intn(3))) // never indexed
			}
		}
		rng.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
		queries[q] = query
	}
	return queries
}

// TestLookupsMatchScan checks the set table searches against a plain
// scan of the sets: on a mined random graph with random name lists,
// unknown names and duplicates included, and on random canonical tables,
// wide vocabularies and large ids included.
func TestLookupsMatchScan(t *testing.T) {
	g := randomGraph(t, 11)
	res, err := core.Mine(context.Background(), g, liveParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Build(res, g)
	if x.NumSets() < 20 {
		t.Fatalf("only %d sets mined", x.NumSets())
	}
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 300; q++ {
		var query []string
		for k := rng.Intn(5); k > 0; k-- {
			query = append(query, fmt.Sprintf("a%d", rng.Intn(9))) // a7 and a8 are never mined
		}
		checkLookups(t, x, query)
	}
	for _, q := range tableQueries(rng, x.Sets(), 300) {
		checkLookups(t, x, q)
	}

	for _, tc := range []struct {
		n, vocab, max int
		f, off        int32
	}{
		{5, 4, 3, 1, 0},
		{400, 6, 3, 1, 0},
		{3000, 40, 6, 1, 0},
		{2000, 3000, 5, 1, 0},
		{1500, 50, 16, 1, 0},
		{1500, 50, 5, 1 << 15, 1 << 21},
		{1500, 50, 5, 1, 1<<21 - 25},
	} {
		sets := canonical(scaled(randomSets(rng, tc.n, tc.vocab, tc.max), tc.f, tc.off))
		x := tableIndex(sets)
		for _, q := range tableQueries(rng, sets, 200) {
			checkLookups(t, x, q)
		}
	}
}
