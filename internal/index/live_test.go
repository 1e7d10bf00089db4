package index

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// minePaper mines the worked example with the Table 1 parameters.
func minePaper(t *testing.T) (*graph.Graph, *core.Result) {
	t.Helper()
	g := graph.PaperExample()
	res, err := core.Mine(context.Background(), g,
		core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

// TestRebuildReusesInternedContent checks that Rebuild over an update
// that leaves the set and pattern lists unchanged answers identically to
// a fresh Build and shares every derived structure with its donor by
// reference, taking only the new rows.
func TestRebuildReusesInternedContent(t *testing.T) {
	g, res := minePaper(t)
	x := Build(res, g)

	// A new vertex joined to an existing one changes no mined set, only
	// εexp and δ.
	d := g.NewDelta()
	if err := d.AddVertex("loner"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("loner", g.VertexName(0)); err != nil {
		t.Fatal(err)
	}
	ng, cs, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := core.Remine(context.Background(), ng,
		core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true},
		res, cs, nil)
	if err != nil {
		t.Fatal(err)
	}

	nx := x.Rebuild(res2, ng)
	requireSameAnswers(t, "unchanged lists", nx, Build(res2, ng))
	if !x.sameContent(res2) {
		t.Fatal("the update changed the mined lists; the test needs one that does not")
	}
	shared := map[string]bool{
		"set ids":         &nx.setIDs[0] == &x.setIDs[0],
		"pattern ids":     &nx.patIDs[0] == &x.patIDs[0],
		"pattern set ids": &nx.patSetIDs[0] == &x.patSetIDs[0],
		"vertex labels":   &nx.patVerts[0] == &x.patVerts[0],
		"set id map":      &nx.byID[0] == &x.byID[0],
		"pattern id map":  &nx.patByID[0] == &x.patByID[0],
		"pattern lists":   &nx.patStart[0] == &x.patStart[0],
		"attribute posts": reflect.ValueOf(nx.attrPost).Pointer() == reflect.ValueOf(x.attrPost).Pointer(),
		"vertex posts":    reflect.ValueOf(nx.vertPost).Pointer() == reflect.ValueOf(x.vertPost).Pointer(),
		"attribute ids":   reflect.ValueOf(nx.attrIDs).Pointer() == reflect.ValueOf(x.attrIDs).Pointer(),
		"new rows":        &nx.Sets()[0] == &res2.Sets[0],
	}
	for what, ok := range shared {
		if !ok {
			t.Errorf("Rebuild with unchanged lists did not share the donor's %s", what)
		}
	}
	// The dataset shape reflects the new graph.
	v, e, a := nx.DatasetShape()
	if v != ng.NumVertices() || e != ng.NumEdges() || a != ng.NumAttributes() {
		t.Fatalf("rebuilt shape (%d,%d,%d) does not match updated graph", v, e, a)
	}
}

// randomGraph builds an attributed graph with random attributes over
// a small vocabulary and planted near-cliques, so mining it yields a
// few dozen sets and patterns.
func randomGraph(t *testing.T, seed int64) *graph.Graph {
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

// liveParams emits every frequent set up to four attributes, so updates
// add and remove sets.
var liveParams = core.Params{SigmaMin: 12, Gamma: 0.5, MinSize: 4, K: 3, MaxAttrs: 4, RecordLattice: true}

// requireSameAnswers compares two indexes on every query class, over
// every set and pattern id, every attribute and attribute pair, and
// every vertex label either index knows.
func requireSameAnswers(t *testing.T, label string, got, want *Index) {
	t.Helper()
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s\ngot:  %v\nwant: %v", label, what, g, w)
		}
	}
	check("sets", got.Sets(), want.Sets())
	check("patterns", got.Patterns(), want.Patterns())
	check("stats", got.Stats(), want.Stats())
	gv, ge, ga := got.DatasetShape()
	wv, we, wa := want.DatasetShape()
	check("shape", []int{gv, ge, ga}, []int{wv, we, wa})
	check("top sets", got.TopSets(core.ByDelta, 10), want.TopSets(core.ByDelta, 10))
	for _, r := range []core.Ranking{core.BySupport, core.ByEpsilon, core.ByDelta} {
		check("ranked "+r.String(), got.Ranked(r), want.Ranked(r))
	}
	var ids, names []string
	seen := map[string]bool{}
	for i := 0; i < want.NumSets(); i++ {
		check("set id", got.SetID(i), want.SetID(i))
		ids = append(ids, want.SetID(i))
		for _, n := range want.Sets()[i].Names {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		check("patterns by set index", got.PatternsOfSetByIndex(i), want.PatternsOfSetByIndex(i))
	}
	ids = append(ids, "missing")
	for _, id := range ids {
		check("set index by id", got.SetIndexByID(id), want.SetIndexByID(id))
		gs, gok := got.SetByID(id)
		ws, wok := want.SetByID(id)
		check("set by id", []any{gs, gok}, []any{ws, wok})
		check("patterns of set", got.PatternsOfSet(id), want.PatternsOfSet(id))
	}
	labels := map[string]bool{"missing": true}
	for i := 0; i < want.NumPatterns(); i++ {
		check("pattern id", got.PatternID(i), want.PatternID(i))
		check("pattern set id", got.PatternSetID(i), want.PatternSetID(i))
		check("pattern vertices", got.PatternVertexNames(i), want.PatternVertexNames(i))
		gp, gok := got.PatternByID(want.PatternID(i))
		wp, wok := want.PatternByID(want.PatternID(i))
		check("pattern by id", []any{gp, gok}, []any{wp, wok})
		for _, l := range want.PatternVertexNames(i) {
			labels[l] = true
		}
	}
	for l := range labels {
		check("patterns with vertex", got.PatternsWithVertex(l), want.PatternsWithVertex(l))
		check("has vertex", got.HasVertex(l), want.HasVertex(l))
	}
	names = append(names, "missing")
	queries := [][]string{nil}
	for i, a := range names {
		queries = append(queries, []string{a})
		for _, b := range names[i+1:] {
			queries = append(queries, []string{a, b}, []string{b, a})
		}
	}
	for _, q := range queries {
		check(fmt.Sprintf("exact %v", q), got.Exact(q), want.Exact(q))
		check(fmt.Sprintf("supersets %v", q), got.Supersets(q), want.Supersets(q))
		check(fmt.Sprintf("subsets %v", q), got.Subsets(q), want.Subsets(q))
	}
}

// TestRebuildAfterInsert chains updates that add and remove sets: each
// Rebuild merge-joins the changed lists and must answer every query
// exactly like a fresh Build of the same result.
func TestRebuildAfterInsert(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(t, 5)
	res, err := core.Mine(ctx, g, liveParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Build(res, g)
	rng := rand.New(rand.NewSource(6))
	changed := 0
	for step := 0; step < 12; step++ {
		d := g.NewDelta()
		v := g.VertexName(int32(rng.Intn(g.NumVertices())))
		if err := d.SetAttr(v, fmt.Sprintf("a%d", rng.Intn(8))); err != nil {
			continue // the vertex already has it
		}
		ng, cs, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		nres, err := core.Remine(ctx, ng, liveParams, res, cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(nres.Sets) != x.NumSets() {
			changed++
		}
		nx := x.Rebuild(nres, ng)
		requireSameAnswers(t, fmt.Sprintf("step %d", step), nx, Build(nres, ng))
		// Whatever the lists, a set the donor holds keeps its id string.
		for i, id := range nx.setIDs {
			if j := x.SetIndexByID(id); j >= 0 && unsafe.StringData(x.setIDs[j]) != unsafe.StringData(id) {
				t.Fatalf("step %d: set %d re-hashed its id instead of taking the donor's", step, i)
			}
		}
		g, res, x = ng, nres, nx
	}
	if changed == 0 {
		t.Fatal("no update changed the mined lists")
	}
}

// TestRebuildWhileQueried queries an index from several goroutines
// while new indexes are built from it, as the live server does; run
// with -race.
func TestRebuildWhileQueried(t *testing.T) {
	ctx := context.Background()
	g := randomGraph(t, 7)
	res, err := core.Mine(ctx, g, liveParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := Build(res, g)
	d := g.NewDelta()
	if err := d.SetAttr(g.VertexName(0), "a7"); err != nil {
		t.Fatal(err)
	}
	ng, cs, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := core.Remine(ctx, ng, liveParams, res, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Build(nres, ng)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < x.NumSets(); i++ {
					s := x.Sets()[i]
					if x.Exact(s.Names) != i || x.SetIndexByID(x.SetID(i)) != i {
						t.Errorf("set %d lost while rebuilding", i)
						return
					}
					x.Supersets(s.Names[:1])
					x.PatternsOfSetByIndex(i)
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		requireSameAnswers(t, fmt.Sprintf("rebuild %d", i), x.Rebuild(nres, ng), want)
	}
	close(stop)
	wg.Wait()
}
