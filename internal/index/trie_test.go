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

// TestTrieMatchesScan checks the trie-backed queries against a plain
// scan of the sets, on a mined random graph and on random name lists,
// unknown names and duplicates included.
func TestTrieMatchesScan(t *testing.T) {
	g := randomGraph(t, 11)
	res, err := core.Mine(context.Background(), g, liveParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Build(res, g)
	if x.NumSets() < 20 {
		t.Fatalf("only %d sets mined", x.NumSets())
	}
	has := func(names []string, n string) bool { return slices.Contains(names, n) }
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 300; q++ {
		var query []string
		for k := rng.Intn(5); k > 0; k-- {
			query = append(query, fmt.Sprintf("a%d", rng.Intn(9))) // a7 and a8 are never mined
		}
		var supers, subs []int
		exact := -1
		for i, s := range x.Sets() {
			all, within := true, true
			for _, n := range query {
				all = all && has(s.Names, n)
			}
			for _, n := range s.Names {
				within = within && has(query, n)
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
		if len(query) == 0 {
			exact = -1 // no set is empty
		}
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
}
