package server

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/snapshot"
)

// setsParams emits every frequent set of up to four attributes of
// setsGraph: a few dozen sets, many tied on σ, ε or δ.
var setsParams = core.Params{SigmaMin: 12, Gamma: 0.5, MinSize: 4, K: 3, MaxAttrs: 4, RecordLattice: true}

// setsGraph builds an attributed graph over attributes a0..a6 with
// random edges and planted near-cliques.
func setsGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 120
	b := graph.NewBuilder()
	for v := 0; v < n; v++ {
		var attrs []string
		for a := 0; a < 7; a++ {
			if rng.Float64() < 0.5 {
				attrs = append(attrs, fmt.Sprintf("a%d", a))
			}
		}
		if _, err := b.AddVertex(fmt.Sprintf("v%d", v), attrs...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			if err := b.AddEdge(int32(u), int32(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := 0; c < 12; c++ {
		var group []int32
		for len(group) < 6 {
			group = append(group, int32(rng.Intn(n)))
		}
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				if group[i] != group[j] {
					if err := b.AddEdge(group[i], group[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceSets answers a /sets query the way the server did before
// listings walked the ranked permutation: scan the sets for the filter,
// drop those under a threshold, stable-sort the rest by the ranking and
// cut at k. It renders the answer like the handler.
func referenceSets(idx *index.Index, q url.Values) []byte {
	sets := idx.Sets()
	exact := ParseAttrList(q["attrs"])
	contains := ParseAttrList(q["contains"])
	within := ParseAttrList(q["within"])
	// randomSetsQuery draws only valid parameters, so none fails to
	// parse.
	minSupport, _ := intParam(q, "min_support", 0)
	minEps, _ := floatParam(q, "min_eps", 0)
	minDelta, _ := floatParam(q, "min_delta", 0)
	k, _ := intParam(q, "k", 0)
	subset := func(a, b []string) bool {
		for _, n := range a {
			if !slices.Contains(b, n) {
				return false
			}
		}
		return true
	}
	var idxs []int
	for i, s := range sets {
		match := true
		switch {
		case len(exact) > 0:
			match = subset(exact, s.Names) && subset(s.Names, exact)
		case len(contains) > 0:
			match = subset(contains, s.Names)
		case len(within) > 0:
			match = subset(s.Names, within)
		}
		if match && s.Support >= minSupport && s.Epsilon >= minEps && s.Delta >= minDelta {
			idxs = append(idxs, i)
		}
	}
	if rank, ok := core.ParseRanking(q.Get("rank")); ok {
		slices.SortStableFunc(idxs, func(a, b int) int { return rank.Compare(&sets[a], &sets[b]) })
	}
	if k > 0 && len(idxs) > k {
		idxs = idxs[:k]
	}
	rec := httptest.NewRecorder()
	if q.Get("format") == "ndjson" {
		writeNDJSON(rec, len(idxs), func(i int) any { return setDTOOf(idx, idxs[i]) })
	} else {
		out := make([]setDTO, len(idxs))
		for i, si := range idxs {
			out[i] = setDTOOf(idx, si)
		}
		WriteJSON(rec, http.StatusOK, map[string]any{"sets": out, "total": len(out)})
	}
	return rec.Body.Bytes()
}

// randomSetsQuery draws a /sets query: a ranking or none, at most one
// of the attrs/contains/within filters over mined, unmined and unknown
// names, any of the three thresholds, and k ∈ {0, 1, 20}.
func randomSetsQuery(rng *rand.Rand) url.Values {
	q := url.Values{}
	if r := []string{"", "support", "epsilon", "delta"}[rng.Intn(4)]; r != "" {
		q.Set("rank", r)
	}
	names := func(n int) string {
		var out []string
		for ; n > 0; n-- {
			if rng.Intn(8) == 0 {
				out = append(out, "unknown")
			} else {
				out = append(out, fmt.Sprintf("a%d", rng.Intn(8))) // a7 is in no vertex
			}
		}
		return strings.Join(out, ",")
	}
	switch rng.Intn(4) {
	case 1:
		q.Set("attrs", names(1+rng.Intn(3)))
	case 2:
		q.Set("contains", names(1+rng.Intn(3)))
	case 3:
		q.Set("within", names(1+rng.Intn(5)))
	}
	if rng.Intn(2) == 0 {
		q.Set("min_support", fmt.Sprint([]int{0, 12, 20, 30}[rng.Intn(4)]))
	}
	if rng.Intn(2) == 0 {
		q.Set("min_eps", fmt.Sprint([]float64{0, 0.05, 0.2, 0.5}[rng.Intn(4)]))
	}
	if rng.Intn(2) == 0 {
		q.Set("min_delta", fmt.Sprint([]float64{0, 0.5, 1, 3}[rng.Intn(4)]))
	}
	if k := []int{0, 1, 20}[rng.Intn(3)]; k > 0 || rng.Intn(2) == 0 {
		q.Set("k", fmt.Sprint(k))
	}
	if rng.Intn(4) == 0 {
		q.Set("format", "ndjson")
	}
	return q
}

// getBody serves one GET and returns its body, failing unless it is a
// 200. It may run off the test goroutine.
func getBody(t *testing.T, s *Server, path string) ([]byte, bool) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body)
		return nil, false
	}
	return rec.Body.Bytes(), true
}

// checkSetsAgainstReference compares n random /sets queries with the
// reference answer over the server's served index, byte for byte.
func checkSetsAgainstReference(t *testing.T, label string, s *Server, seed int64, n int) {
	t.Helper()
	idx := s.gen.Load().idx
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		q := randomSetsQuery(rng)
		path := "/sets?" + q.Encode()
		got, ok := getBody(t, s, path)
		if !ok {
			t.FailNow()
		}
		if want := referenceSets(idx, q); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET %s\ngot:\n%s\nwant:\n%s", label, path, got, want)
		}
	}
}

// TestSetsMatchReference checks random /sets queries against the
// filter, stable-sort and cut reference on a built index, on a
// snapshot-booted one, and after live updates swap in new generations,
// whose rankings must be their own.
func TestSetsMatchReference(t *testing.T) {
	g := setsGraph(t, 5)
	p := setsParams
	res, err := core.Mine(context.Background(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) < 20 {
		t.Fatalf("only %d sets mined", len(res.Sets))
	}
	x := index.Build(res, g)

	t.Run("build", func(t *testing.T) {
		s, err := New(Config{Index: x, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		checkSetsAgainstReference(t, "build", s, 1, 600)
	})

	t.Run("snapshot", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "sets.scpmidx")
		if err := snapshot.Write(path, g, x); err != nil {
			t.Fatal(err)
		}
		boot, err := snapshot.Open(path, snapshot.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer boot.Close()
		s, err := New(Config{Index: boot.Index, Graph: boot.Graph})
		if err != nil {
			t.Fatal(err)
		}
		checkSetsAgainstReference(t, "snapshot", s, 2, 600)
	})

	t.Run("updates", func(t *testing.T) {
		swaps := make(chan SwapEvent, 4)
		s, err := New(Config{
			Index:  index.Build(res, g),
			Graph:  g,
			Model:  p.NewModel(g),
			Result: res,
			Params: &p,
			OnSwap: func(e SwapEvent) { swaps <- e },
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSetsAgainstReference(t, "version 1", s, 3, 300)
		// This edge keeps the set and pattern lists, so the new index
		// shares its donor's lookup structures, yet it moves ε of some
		// sets and εexp and δ of all.
		edge := `{"op":"add_edge","u":"v8","v":"v111"}` + "\n"
		// These attribute ops add and drop sets.
		var attrs strings.Builder
		a1, _ := g.AttrID("a1")
		for v, n := int32(0), 0; n < 3; v++ {
			if !slices.Contains(g.VertexAttrs(v), a1) {
				fmt.Fprintf(&attrs, `{"op":"set_attr","vertex":"v%d","attr":"a1"}`+"\n", v)
				n++
			}
		}
		attrs.WriteString(`{"op":"add_vertex","vertex":"w1","attrs":["a0","a3","a5"]}` + "\n")
		for i, batch := range []string{edge, attrs.String()} {
			before := s.gen.Load().idx
			postUpdates(t, s, batch, http.StatusAccepted)
			waitSwap(t, swaps)
			after := s.gen.Load().idx
			sameList := before.NumSets() == after.NumSets() && before.NumPatterns() == after.NumPatterns()
			for j := 0; sameList && j < after.NumSets(); j++ {
				sameList = before.SetID(j) == after.SetID(j)
			}
			if sameList != (i == 0) {
				t.Fatalf("update %d: set list kept = %v, want %v", i+1, sameList, i == 0)
			}
			moved := false
			for _, r := range []core.Ranking{core.BySupport, core.ByEpsilon, core.ByDelta} {
				moved = moved || !slices.Equal(before.Ranked(r), after.Ranked(r))
			}
			if !moved {
				t.Fatalf("update %d left every ranking in place; the test needs one that moves one", i+1)
			}
			checkSetsAgainstReference(t, fmt.Sprintf("version %d", i+2), s, int64(4+i), 300)
		}
	})
}

// TestRankedSetsColdConcurrent sends ranked requests from several
// goroutines to a server whose index has never ranked, so they race to
// build each ranked permutation.
func TestRankedSetsColdConcurrent(t *testing.T) {
	g := setsGraph(t, 7)
	res, err := core.Mine(context.Background(), g, setsParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := index.Build(res, g)
	s, err := New(Config{Index: index.Build(res, g), Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rank := range []string{"support", "epsilon", "delta"} {
				q := url.Values{"rank": {rank}, "k": {"20"}}
				got, ok := getBody(t, s, "/sets?"+q.Encode())
				if ok && !bytes.Equal(got, referenceSets(want, q)) {
					t.Errorf("rank=%s: answer differs from the reference:\n%s", rank, got)
				}
			}
		}()
	}
	wg.Wait()
}
