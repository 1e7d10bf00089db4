package quasiclique

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// buildGraph constructs a Graph from an undirected edge list over n
// vertices.
func buildGraph(n int, edges [][2]int32) *Graph {
	adj := make([][]int32, n)
	seen := map[[2]int32]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return adj[v][i] < adj[v][j] })
	}
	return NewGraph(adj)
}

// paperGraph is the Figure-1 graph with 0-based ids (vertex i → i−1).
func paperGraph() *Graph {
	edges := [][2]int32{
		{0, 1}, {0, 2}, {1, 2},
		{2, 3}, {2, 4}, {2, 5}, {2, 6},
		{3, 4}, {3, 5}, {4, 5},
		{5, 6}, {5, 7}, {5, 10},
		{6, 7}, {6, 8},
		{7, 9},
		{8, 9}, {8, 10},
		{9, 10},
	}
	return buildGraph(11, edges)
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{0, 4}, {-0.1, 4}, {1.1, 4}, {0.5, 1}, {0.5, 0}} {
		if err := p.Validate(); err == nil {
			t.Errorf("Params %+v accepted", p)
		}
	}
	if err := (Params{0.5, 2}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestMinDegree(t *testing.T) {
	cases := []struct {
		gamma float64
		size  int
		want  int
	}{
		{0.6, 6, 3},  // 0.6·5 = 3.0000000000000004 must stay 3
		{0.6, 4, 2},  // ⌈1.8⌉ = 2
		{1.0, 4, 3},  // clique
		{0.5, 11, 5}, // ⌈5⌉
		{0.51, 11, 6},
		{0.5, 2, 1},
		{0.5, 1, 0},
	}
	for _, c := range cases {
		p := Params{Gamma: c.gamma, MinSize: 2}
		if got := p.MinDegree(c.size); got != c.want {
			t.Errorf("MinDegree(γ=%v, size=%d) = %d, want %d", c.gamma, c.size, got, c.want)
		}
	}
}

func TestMaxSizeFor(t *testing.T) {
	p := Params{Gamma: 0.6, MinSize: 2}
	// avail=3: largest s with ⌈0.6(s−1)⌉ ≤ 3 is s = 6 (0.6·5 = 3)
	if got := p.MaxSizeFor(3); got != 6 {
		t.Errorf("MaxSizeFor(3) = %d, want 6", got)
	}
	if got := p.MaxSizeFor(0); got != 1 {
		t.Errorf("MaxSizeFor(0) = %d, want 1", got)
	}
	if got := p.MaxSizeFor(-1); got != 0 {
		t.Errorf("MaxSizeFor(-1) = %d, want 0", got)
	}
	one := Params{Gamma: 1, MinSize: 2}
	if got := one.MaxSizeFor(4); got != 5 {
		t.Errorf("clique MaxSizeFor(4) = %d, want 5", got)
	}
}

func TestPeel(t *testing.T) {
	// path 0-1-2-3 plus triangle 4-5-6
	g := buildGraph(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}})
	e := newEngine(g, Params{Gamma: 1, MinSize: 3}, Options{})
	defer e.release()
	want := []int32{4, 5, 6} // the path peels away entirely
	if got := e.alive.Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("peel at reset = %v, want %v", got, want)
	}
	e.peel(2)
	if got := e.alive.Slice(); !reflect.DeepEqual(got, want) {
		t.Fatalf("peel(2) = %v, want %v", got, want)
	}
	e.peel(0)
	if got := e.alive.Count(); got != 7 {
		t.Fatalf("peel(0) removed vertices: %d", got)
	}
}

func vertexSets(ps []Pattern) [][]int32 {
	out := make([][]int32, len(ps))
	for i, p := range ps {
		out[i] = p.Vertices
	}
	return out
}

func TestPaperExampleMaximal(t *testing.T) {
	g := paperGraph()
	p := Params{Gamma: 0.6, MinSize: 4}
	got, err := EnumerateMaximal(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{
		{5, 6, 7, 8, 9, 10}, // {6,…,11}
		{2, 3, 4, 5},        // {3,4,5,6} the clique
		{2, 3, 5, 6},        // {3,4,6,7}
		{2, 4, 5, 6},        // {3,5,6,7}
		{2, 5, 6, 7},        // {3,6,7,8}
	}
	if !reflect.DeepEqual(vertexSets(got), want) {
		t.Fatalf("maximal = %v, want %v", vertexSets(got), want)
	}
	// density/γ column of Table 1
	if d := got[0].Density(); d < 0.599 || d > 0.601 {
		t.Errorf("6-set density = %v, want 0.6", d)
	}
	if d := got[1].Density(); d != 1 {
		t.Errorf("clique density = %v, want 1", d)
	}
	if d := got[2].Density(); d < 0.66 || d > 0.67 {
		t.Errorf("{3,4,6,7} density = %v, want 2/3", d)
	}
}

func TestPaperExampleCoverage(t *testing.T) {
	g := paperGraph()
	p := Params{Gamma: 0.6, MinSize: 4}
	for _, order := range []SearchOrder{DFS, BFS} {
		res, err := Coverage(g, p, Options{Order: order})
		if err != nil {
			t.Fatal(err)
		}
		want := []int32{2, 3, 4, 5, 6, 7, 8, 9, 10} // vertices 3..11
		if !reflect.DeepEqual(res.Covered.Slice(), want) {
			t.Fatalf("[%v] covered = %v, want %v", order, res.Covered.Slice(), want)
		}
	}
}

func TestPaperExampleTopK(t *testing.T) {
	g := paperGraph()
	p := Params{Gamma: 0.6, MinSize: 4}
	top, err := TopK(g, p, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d patterns", len(top))
	}
	if !reflect.DeepEqual(top[0].Vertices, []int32{5, 6, 7, 8, 9, 10}) {
		t.Fatalf("top1 = %v", top[0].Vertices)
	}
	// second best: size 4, density 1 beats the 0.67 ones
	if !reflect.DeepEqual(top[1].Vertices, []int32{2, 3, 4, 5}) {
		t.Fatalf("top2 = %v", top[1].Vertices)
	}
}

func TestTopKMoreThanAvailable(t *testing.T) {
	g := paperGraph()
	p := Params{Gamma: 0.6, MinSize: 4}
	top, err := TopK(g, p, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d patterns, want all 5", len(top))
	}
	if _, err := TopK(g, p, 0, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	p := Params{Gamma: 0.5, MinSize: 3}
	g := buildGraph(0, nil)
	got, err := EnumerateMaximal(g, p, Options{})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty graph: %v %v", got, err)
	}
	g = buildGraph(2, [][2]int32{{0, 1}})
	res, err := Coverage(g, p, Options{})
	if err != nil || res.Covered.Count() != 0 {
		t.Fatalf("tiny graph coverage: %v %v", res.Covered, err)
	}
}

func TestCliqueOfFive(t *testing.T) {
	var edges [][2]int32
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := buildGraph(5, edges)
	got, err := EnumerateMaximal(g, Params{Gamma: 1, MinSize: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Size() != 5 || got[0].Density() != 1 {
		t.Fatalf("clique: %v", got)
	}
	if got[0].EdgeDensity() != 1 || got[0].Edges != 10 {
		t.Fatalf("clique metrics: %+v", got[0])
	}
}

func TestMaxNodesBudget(t *testing.T) {
	g := paperGraph()
	p := Params{Gamma: 0.6, MinSize: 4}
	_, err := EnumerateMaximal(g, p, Options{MaxNodes: 2})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// randomTestGraph builds a small random graph for the property tests.
func randomTestGraph(rng *rand.Rand) *Graph {
	n := 5 + rng.Intn(8) // 5..12
	var edges [][2]int32
	p := 0.2 + rng.Float64()*0.5
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			if rng.Float64() < p {
				edges = append(edges, [2]int32{i, j})
			}
		}
	}
	return buildGraph(n, edges)
}

func randomParams(rng *rand.Rand) Params {
	gammas := []float64{0.4, 0.5, 0.6, 0.7, 1.0}
	return Params{
		Gamma:   gammas[rng.Intn(len(gammas))],
		MinSize: 3 + rng.Intn(2),
	}
}

func patternsEqual(a, b []Pattern) bool {
	return reflect.DeepEqual(vertexSets(a), vertexSets(b))
}

func TestQuickEnumerateMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(rng)
		p := randomParams(rng)
		want, err := BruteMaximal(g, p)
		if err != nil {
			return false
		}
		for _, opts := range []Options{
			{},
			{Order: BFS},
			{DisableLookahead: true},
			{DisableDiameterPruning: true},
			{DisableJumps: true},
			{Order: BFS, DisableLookahead: true, DisableDiameterPruning: true, DisableJumps: true},
		} {
			got, err := EnumerateMaximal(g, p, opts)
			if err != nil || !patternsEqual(got, want) {
				t.Logf("seed=%d opts=%+v params=%+v\n got=%v\nwant=%v",
					seed, opts, p, vertexSets(got), vertexSets(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCoverageMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(rng)
		p := randomParams(rng)
		want, err := BruteCoverage(g, p)
		if err != nil {
			return false
		}
		for _, opts := range []Options{
			{}, {Order: BFS}, {DisableJumps: true}, {DisableDiameterPruning: true},
		} {
			res, err := Coverage(g, p, opts)
			if err != nil || !res.Covered.Equal(want) {
				t.Logf("seed=%d opts=%+v params=%+v\n got=%v\nwant=%v",
					seed, opts, p, res.Covered, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTopKMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(rng)
		p := randomParams(rng)
		all, err := BruteMaximal(g, p)
		if err != nil {
			return false
		}
		for _, k := range []int{1, 2, 5} {
			want := all
			if len(want) > k {
				want = want[:k]
			}
			got, err := TopK(g, p, k, Options{DisableJumps: seed%2 == 0})
			if err != nil || !patternsEqual(got, want) {
				t.Logf("seed=%d k=%d params=%+v\n got=%v\nwant=%v",
					seed, k, p, vertexSets(got), vertexSets(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEveryPatternIsValidQuasiClique(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTestGraph(rng)
		p := randomParams(rng)
		got, err := EnumerateMaximal(g, p, Options{})
		if err != nil {
			return false
		}
		for _, pat := range got {
			if pat.Size() < p.MinSize {
				return false
			}
			need := p.MinDegree(pat.Size())
			if pat.MinDeg < need {
				return false
			}
			// recompute min degree independently
			min := g.n
			for _, v := range pat.Vertices {
				d := 0
				for _, u := range g.Neighbors(v) {
					for _, w := range pat.Vertices {
						if w == u {
							d++
							break
						}
					}
				}
				if d < min {
					min = d
				}
			}
			if min != pat.MinDeg {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestComponents(t *testing.T) {
	// two triangles and an isolated edge
	g := buildGraph(8, [][2]int32{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{6, 7},
	})
	// min_size 2 peels at degree 1, so every vertex survives.
	e := newEngine(g, Params{Gamma: 0.5, MinSize: 2}, Options{})
	defer e.release()
	want := [][]int32{{0, 1, 2}, {3, 4, 5}, {6, 7}}
	if got := e.components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("components = %v, want %v", got, want)
	}
	// A dead vertex hides its edges: {3,5} stay connected through the
	// 3-5 edge.
	e.alive.Remove(4)
	want = [][]int32{{0, 1, 2}, {3, 5}, {6, 7}}
	if got := e.components(); !reflect.DeepEqual(got, want) {
		t.Fatalf("components after removing 4 = %v, want %v", got, want)
	}
}

func TestCoverageAcrossComponents(t *testing.T) {
	// two disjoint 4-cliques: both must be covered with component
	// splitting (γ ≥ 0.5) and without it (γ < 0.5, where the union of
	// both cliques is itself a 0.4-quasi-clique)
	var edges [][2]int32
	for base := int32(0); base <= 4; base += 4 {
		for i := base; i < base+4; i++ {
			for j := i + 1; j < base+4; j++ {
				edges = append(edges, [2]int32{i, j})
			}
		}
	}
	g := buildGraph(8, edges)
	for _, gamma := range []float64{1, 0.4} {
		res, err := Coverage(g, Params{Gamma: gamma, MinSize: 4}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Covered.Count() != 8 {
			t.Fatalf("γ=%v: covered = %v", gamma, res.Covered)
		}
	}
}

func TestComparePatterns(t *testing.T) {
	a := Pattern{Vertices: []int32{0, 1, 2, 3, 4, 5}, MinDeg: 3}
	b := Pattern{Vertices: []int32{0, 1, 2, 3}, MinDeg: 3}
	c := Pattern{Vertices: []int32{0, 1, 2, 3}, MinDeg: 2}
	d := Pattern{Vertices: []int32{0, 1, 2, 4}, MinDeg: 2}
	if ComparePatterns(a, b) >= 0 {
		t.Error("larger should rank first")
	}
	if ComparePatterns(b, c) >= 0 {
		t.Error("denser should rank first at equal size")
	}
	if ComparePatterns(c, d) >= 0 {
		t.Error("lexicographic tie-break broken")
	}
	if ComparePatterns(a, a) != 0 {
		t.Error("self comparison should be 0")
	}
}

func TestFilterContained(t *testing.T) {
	sets := [][]int32{
		{0, 1, 2},
		{0, 1, 2, 3},
		{4, 5},
		{0, 1, 2}, // duplicate
	}
	got := filterContained(6, sets)
	want := [][]int32{{0, 1, 2, 3}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestLowGammaDisconnectedQuasiClique pins the γ < 0.5 case where a
// maximal quasi-clique spans two connected components: two disjoint
// triangles form a valid 0.4-quasi-clique of size 6 (every vertex has
// internal degree 2 ≥ ⌈0.4·5⌉), so the component decomposition must
// not be applied. Regression test for a miss found by TestQuick
// EnumerateMatchesBrute at seed -8885235820416132356.
func TestLowGammaDisconnectedQuasiClique(t *testing.T) {
	// vertices 0-2 and 3-5: two disjoint triangles
	g := buildGraph(6, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}})
	p := Params{Gamma: 0.4, MinSize: 3}
	want, err := BruteMaximal(g, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EnumerateMaximal(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !patternsEqual(got, want) {
		t.Fatalf("got %v, want %v", vertexSets(got), vertexSets(want))
	}
	if len(got) != 1 || len(got[0].Vertices) != 6 {
		t.Fatalf("expected the single spanning 6-vertex quasi-clique, got %v", vertexSets(got))
	}
}

// Regression: with a BFS frontier, the collector can briefly believe
// the k-th best size is larger than it finally is — here two size-4
// patterns enter the buffer, evict every size-3 candidate and raise
// the prune threshold to 4, and are later both subsumed by the one
// size-5 maximal pattern. TopK must detect that suppression and fall
// back to full enumeration instead of returning an arbitrary size-3
// survivor.
func TestTopKSubsumedThresholdFallback(t *testing.T) {
	g := buildGraph(7, [][2]int32{
		{0, 4}, {0, 6}, {1, 4}, {1, 5}, {1, 6}, {2, 6}, {3, 4}, {3, 6},
	})
	p := Params{Gamma: 0.5, MinSize: 3}
	want, err := EnumerateMaximal(g, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []SearchOrder{DFS, BFS} {
		top, err := TopK(g, p, 2, Options{Order: o})
		if err != nil {
			t.Fatal(err)
		}
		if len(top) != 2 {
			t.Fatalf("%v: got %d patterns, want 2", o, len(top))
		}
		for i := range top {
			if ComparePatterns(top[i], want[i]) != 0 {
				t.Errorf("%v: top[%d] = %v, want %v", o, i, top[i], want[i])
			}
		}
	}
}

// TestNewGraphCSREquivalence pins that the zero-copy CSR constructor
// and the flattening slice constructor describe the same graph and
// mine identical patterns.
func TestNewGraphCSREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(16)
		var edges [][2]int32
		for i := 0; i < n*3; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				edges = append(edges, [2]int32{u, v})
			}
		}
		g := buildGraph(n, edges)
		// rebuild per-vertex slices from the CSR graph, then round-trip
		adj := make([][]int32, n)
		for v := int32(0); v < int32(n); v++ {
			adj[v] = append([]int32(nil), g.Neighbors(v)...)
		}
		off := make([]int64, n+1)
		for v, a := range adj {
			off[v+1] = off[v] + int64(len(a))
		}
		nbrs := make([]int32, 0, off[n])
		for _, a := range adj {
			nbrs = append(nbrs, a...)
		}
		csr := NewGraphCSR(off, nbrs)
		if csr.NumVertices() != g.NumVertices() || csr.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: size mismatch", trial)
		}
		for v := int32(0); v < int32(n); v++ {
			if csr.Degree(v) != g.Degree(v) {
				t.Fatalf("trial %d: degree(%d) mismatch", trial, v)
			}
			for u := int32(0); u < int32(n); u++ {
				if csr.HasEdge(v, u) != g.HasEdge(v, u) {
					t.Fatalf("trial %d: HasEdge(%d,%d) mismatch", trial, v, u)
				}
			}
		}
		p := Params{Gamma: 0.5, MinSize: 3}
		a, err := EnumerateMaximal(g, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := EnumerateMaximal(csr, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: patterns differ:\n%v\n%v", trial, a, b)
		}
	}
}
