package core

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"

	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/nullmodel"
	"github.com/scpm/scpm/internal/quasiclique"
)

// paperParams are the worked-example parameters of §2.1.2 (Table 1).
func paperParams() Params {
	return Params{
		SigmaMin: 3,
		Gamma:    0.6,
		MinSize:  4,
		EpsMin:   0.5,
		K:        10,
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{SigmaMin: 0, Gamma: 0.5, MinSize: 4},
		{SigmaMin: 1, Gamma: 0, MinSize: 4},
		{SigmaMin: 1, Gamma: 0.5, MinSize: 1},
		{SigmaMin: 1, Gamma: 0.5, MinSize: 4, EpsMin: -0.1},
		{SigmaMin: 1, Gamma: 0.5, MinSize: 4, EpsMin: 1.1},
		{SigmaMin: 1, Gamma: 0.5, MinSize: 4, DeltaMin: -1},
		{SigmaMin: 1, Gamma: 0.5, MinSize: 4, K: -1},
		{SigmaMin: 1, Gamma: 0.5, MinSize: 4, MinAttrs: 3, MaxAttrs: 2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
	if err := paperParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

// TestTable1 reproduces Table 1 of the paper exactly.
func TestTable1(t *testing.T) {
	g := graph.PaperExample()
	res, err := mineBatch(g, paperParams())
	if err != nil {
		t.Fatal(err)
	}

	// Attribute sets: {A} ε=0.82, {B} ε=1, {A,B} ε=1.
	if len(res.Sets) != 3 {
		t.Fatalf("got %d sets, want 3: %v", len(res.Sets), res.Sets)
	}
	checkSet := func(names []string, sigma int, eps float64) {
		t.Helper()
		s := res.SetByNames(names...)
		if s == nil {
			t.Fatalf("set %v missing", names)
		}
		if s.Support != sigma {
			t.Errorf("σ(%v) = %d, want %d", names, s.Support, sigma)
		}
		if math.Abs(s.Epsilon-eps) > 1e-9 {
			t.Errorf("ε(%v) = %v, want %v", names, s.Epsilon, eps)
		}
	}
	checkSet([]string{"A"}, 11, 9.0/11)
	checkSet([]string{"B"}, 6, 1)
	checkSet([]string{"A", "B"}, 6, 1)

	// Patterns: exactly the 7 rows of Table 1.
	if len(res.Patterns) != 7 {
		t.Fatalf("got %d patterns, want 7: %v", len(res.Patterns), res.Patterns)
	}
	type row struct {
		attrs    string
		vertices []string
		size     int
		density  float64
	}
	wantRows := []row{
		{"A", []string{"6", "7", "8", "9", "10", "11"}, 6, 0.60},
		{"A", []string{"3", "4", "5", "6"}, 4, 1},
		{"A", []string{"3", "4", "6", "7"}, 4, 2.0 / 3},
		{"A", []string{"3", "5", "6", "7"}, 4, 2.0 / 3},
		{"A", []string{"3", "6", "7", "8"}, 4, 2.0 / 3},
		{"B", []string{"6", "7", "8", "9", "10", "11"}, 6, 0.60},
		{"A,B", []string{"6", "7", "8", "9", "10", "11"}, 6, 0.60},
	}
	got := map[string]bool{}
	for _, p := range res.Patterns {
		key := keyAttrs(p.Names) + "|" + keyNames(p.VertexNames(g))
		got[key] = true
	}
	for _, w := range wantRows {
		key := w.attrs + "|" + keyNames(w.vertices)
		if !got[key] {
			t.Errorf("missing pattern %v", w)
		}
	}
	// spot-check the density column
	for _, p := range res.Patterns {
		if p.Size() == 6 && math.Abs(p.Density()-0.6) > 1e-9 {
			t.Errorf("6-set density = %v", p.Density())
		}
	}
	if res.Stats.SetsEmitted != 3 || res.Stats.PatternsEmitted != 7 {
		t.Errorf("stats: %+v", res.Stats)
	}
}

func keyAttrs(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ","
		}
		out += n
	}
	return out
}

func keyNames(names []string) string {
	out := ""
	for _, n := range names {
		out += n + ";"
	}
	return out
}

// TestTable1Naive checks the naive baseline produces the same output.
func TestTable1Naive(t *testing.T) {
	g := graph.PaperExample()
	want, err := mineBatch(g, paperParams())
	if err != nil {
		t.Fatal(err)
	}
	got, err := mineNaiveBatch(g, paperParams())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
}

func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Sets) != len(want.Sets) {
		t.Fatalf("set count %d vs %d\ngot: %v\nwant: %v",
			len(got.Sets), len(want.Sets), got.Sets, want.Sets)
	}
	for i := range want.Sets {
		a, b := got.Sets[i], want.Sets[i]
		if !reflect.DeepEqual(a.Attrs, b.Attrs) || a.Support != b.Support ||
			a.Covered != b.Covered || math.Abs(a.Epsilon-b.Epsilon) > 1e-12 {
			t.Fatalf("set %d differs: %+v vs %+v", i, a, b)
		}
		if !(math.IsInf(a.Delta, 1) && math.IsInf(b.Delta, 1)) &&
			math.Abs(a.Delta-b.Delta) > 1e-9*(1+math.Abs(b.Delta)) {
			t.Fatalf("set %d delta differs: %v vs %v", i, a.Delta, b.Delta)
		}
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("pattern count %d vs %d\ngot: %v\nwant: %v",
			len(got.Patterns), len(want.Patterns), got.Patterns, want.Patterns)
	}
	for i := range want.Patterns {
		a, b := got.Patterns[i], want.Patterns[i]
		if !reflect.DeepEqual(a.Attrs, b.Attrs) || !reflect.DeepEqual(a.Vertices, b.Vertices) ||
			a.MinDeg != b.MinDeg || a.Edges != b.Edges {
			t.Fatalf("pattern %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// randomAttributedGraph builds a deterministic attributed graph with a
// handful of attributes and ER edges.
func randomAttributedGraph(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	attrNames := []string{"p", "q", "r", "s"}
	for i := 0; i < n; i++ {
		var attrs []string
		for _, a := range attrNames {
			if rng.Float64() < 0.45 {
				attrs = append(attrs, a)
			}
		}
		if _, err := b.AddVertex("v"+strconv.Itoa(i), attrs...); err != nil {
			panic(err)
		}
	}
	p := 0.25 + rng.Float64()*0.3
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			if rng.Float64() < p {
				if err := b.AddEdge(i, j); err != nil {
					panic(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestQuickSCPMMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAttributedGraph(seed, 10+rng.Intn(8))
		p := Params{
			SigmaMin: 2 + rng.Intn(3),
			Gamma:    []float64{0.5, 0.6, 0.8}[rng.Intn(3)],
			MinSize:  3,
			EpsMin:   []float64{0, 0.2, 0.5}[rng.Intn(3)],
			DeltaMin: []float64{0, 0.5}[rng.Intn(2)],
			K:        1 + rng.Intn(4),
		}
		want, err := mineNaiveBatch(g, p)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, variant := range []Params{
			p,
			withOrder(p, quasiclique.BFS),
			withParallel(p, 4),
			withFlag(p, "novertex"),
			withFlag(p, "noset"),
			withFlag(p, "nolookahead"),
			withFlag(p, "nodiameter"),
			withFlag(p, "nojumps"),
		} {
			got, err := mineBatch(g, variant)
			if err != nil {
				t.Log(err)
				return false
			}
			if !sameResult(got, want) {
				t.Logf("seed=%d params=%+v variant=%+v", seed, p, variant)
				t.Logf("got sets: %v", got.Sets)
				t.Logf("want sets: %v", want.Sets)
				t.Logf("got pats: %v", got.Patterns)
				t.Logf("want pats: %v", want.Patterns)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func withOrder(p Params, o quasiclique.SearchOrder) Params { p.Order = o; return p }
func withParallel(p Params, n int) Params                  { p.Parallelism = n; return p }
func withFlag(p Params, f string) Params {
	switch f {
	case "novertex":
		p.DisableVertexPruning = true
	case "noset":
		p.DisableSetPruning = true
	case "nolookahead":
		p.DisableLookahead = true
	case "nodiameter":
		p.DisableDiameterPruning = true
	case "nojumps":
		p.DisableJumps = true
	}
	return p
}

func sameResult(a, b *Result) bool {
	if len(a.Sets) != len(b.Sets) || len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for i := range a.Sets {
		x, y := a.Sets[i], b.Sets[i]
		if !reflect.DeepEqual(x.Attrs, y.Attrs) || x.Support != y.Support || x.Covered != y.Covered {
			return false
		}
	}
	for i := range a.Patterns {
		x, y := a.Patterns[i], b.Patterns[i]
		if !reflect.DeepEqual(x.Attrs, y.Attrs) || !reflect.DeepEqual(x.Vertices, y.Vertices) {
			return false
		}
	}
	return true
}

func TestParallelDeterminism(t *testing.T) {
	g := randomAttributedGraph(411, 16)
	p := Params{SigmaMin: 2, Gamma: 0.5, MinSize: 3, K: 3, Parallelism: 8}
	first, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := mineBatch(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(first, again) {
			t.Fatalf("run %d differed", i)
		}
	}
}

func TestMinAttrsFilter(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.MinAttrs = 2
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 1 || res.Sets[0].Key() != "A,B" {
		t.Fatalf("sets = %v", res.Sets)
	}
}

func TestMaxAttrsBound(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.MaxAttrs = 1
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sets {
		if len(s.Attrs) > 1 {
			t.Fatalf("set %v exceeds MaxAttrs", s.Names)
		}
	}
	naive, err := mineNaiveBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, res, naive)
}

func TestDeltaMinFilters(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.DeltaMin = 1e18 // absurd: nothing passes
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 0 || len(res.Patterns) != 0 {
		t.Fatalf("got %v", res.Sets)
	}
}

func TestEpsMinFilters(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.EpsMin = 0.9 // only {B} and {A,B} (ε = 1) pass
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 2 {
		t.Fatalf("sets = %v", res.Sets)
	}
	for _, s := range res.Sets {
		if s.Epsilon < 0.9 {
			t.Fatalf("set %v below EpsMin", s)
		}
	}
}

func TestKZeroSkipsPatterns(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.K = 0
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 0 || len(res.Sets) != 3 {
		t.Fatalf("K=0: %d patterns, %d sets", len(res.Patterns), len(res.Sets))
	}
}

func TestKLimitsPatterns(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.K = 1
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// one pattern per qualifying set
	if len(res.Patterns) != 3 {
		t.Fatalf("K=1: %d patterns", len(res.Patterns))
	}
	for _, pat := range res.Patterns {
		if pat.Size() != 6 {
			t.Fatalf("top-1 should be the 6-set, got %v", pat)
		}
	}
}

func TestSimulationModelPlugsIn(t *testing.T) {
	g := graph.PaperExample()
	p := paperParams()
	p.Model = nullmodel.NewSimulation(g, p.QuasiCliqueParams(), 10, 5)
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 3 {
		t.Fatalf("sets = %v", res.Sets)
	}
	for _, s := range res.Sets {
		if s.Delta < 0 {
			t.Fatalf("negative delta: %v", s)
		}
	}
}

func TestTopSetsRanking(t *testing.T) {
	sets := []AttributeSet{
		{Attrs: []int32{0}, Names: []string{"a"}, Support: 10, Epsilon: 0.1, Delta: 5},
		{Attrs: []int32{1}, Names: []string{"b"}, Support: 5, Epsilon: 0.9, Delta: 2},
		{Attrs: []int32{2}, Names: []string{"c"}, Support: 7, Epsilon: 0.5, Delta: math.Inf(1)},
	}
	if got := TopSets(sets, BySupport, 1); got[0].Names[0] != "a" {
		t.Errorf("BySupport top = %v", got[0])
	}
	if got := TopSets(sets, ByEpsilon, 1); got[0].Names[0] != "b" {
		t.Errorf("ByEpsilon top = %v", got[0])
	}
	if got := TopSets(sets, ByDelta, 2); got[0].Names[0] != "c" || got[1].Names[0] != "a" {
		t.Errorf("ByDelta top = %v", got)
	}
	if got := TopSets(sets, ByDelta, 10); len(got) != 3 {
		t.Errorf("n beyond len = %v", got)
	}
	if BySupport.String() != "σ" || ByEpsilon.String() != "ε" || ByDelta.String() != "δ" {
		t.Error("ranking names")
	}
}

// TestRankingRule pins the shared σ/ε/δ rule beyond TopSets: parsing
// of the rank parameter, the support tie-break, TopSets' canonical
// tie-break, and the string round trip of δ that ranked gateway merges
// rely on.
func TestRankingRule(t *testing.T) {
	for in, want := range map[string]Ranking{
		"support": BySupport, "SIGMA": BySupport, "eps": ByEpsilon, "Epsilon": ByEpsilon, "delta": ByDelta,
	} {
		if got, ok := ParseRanking(in); !ok || got != want {
			t.Errorf("ParseRanking(%q) = %v, %v; want %v", in, got, ok, want)
		}
	}
	for _, in := range []string{"", "bogus"} {
		if _, ok := ParseRanking(in); ok {
			t.Errorf("ParseRanking(%q) accepted", in)
		}
	}
	sets := []AttributeSet{
		{Attrs: []int32{1, 2}, Names: []string{"b", "c"}, Support: 5, Epsilon: 0.5},
		{Attrs: []int32{3}, Names: []string{"d"}, Support: 5, Epsilon: 0.5},
		{Attrs: []int32{4}, Names: []string{"e"}, Support: 6, Epsilon: 0.5},
	}
	if ByEpsilon.Compare(&sets[2], &sets[1]) >= 0 || ByEpsilon.Compare(&sets[0], &sets[1]) != 0 {
		t.Error("equal ε must rank by support, and tie on equal support")
	}
	if got := TopSets(sets, ByEpsilon, 3); got[0].Names[0] != "e" || got[1].Names[0] != "d" || got[2].Names[0] != "b" {
		t.Errorf("TopSets must break full ties canonically (size first): %v", got)
	}
	for _, d := range []float64{math.Inf(1), 0, 1.25, 0.1} {
		if got, err := ParseDelta(FormatDelta(d)); err != nil || got != d {
			t.Errorf("ParseDelta(FormatDelta(%v)) = %v, %v", d, got, err)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	g := graph.PaperExample()
	res, err := mineBatch(g, paperParams())
	if err != nil {
		t.Fatal(err)
	}
	ab := res.SetByNames("B", "A") // order must not matter
	if ab == nil || ab.Support != 6 {
		t.Fatalf("SetByNames failed: %v", ab)
	}
	if res.SetByNames("A", "Z") != nil {
		t.Fatal("nonexistent set found")
	}
	pats := res.PatternsOf(ab.Attrs)
	if len(pats) != 1 || pats[0].Size() != 6 {
		t.Fatalf("PatternsOf({A,B}) = %v", pats)
	}
	if res.Sets[0].String() == "" || res.Patterns[0].String() == "" {
		t.Fatal("stringers empty")
	}
}

func TestSearchBudgetPropagates(t *testing.T) {
	g := randomAttributedGraph(7, 18)
	p := Params{SigmaMin: 1, Gamma: 0.5, MinSize: 3, K: 2, SearchBudget: 1}
	if _, err := mineBatch(g, p); err == nil {
		t.Fatal("expected budget error")
	}
	if _, err := mineNaiveBatch(g, p); err == nil {
		t.Fatal("expected budget error (naive)")
	}
}

func TestNormalizeDelta(t *testing.T) {
	if NormalizeDelta(0.5, 0.1) != 5 {
		t.Error("plain division")
	}
	if !math.IsInf(NormalizeDelta(0.5, 0), 1) {
		t.Error("ε>0, exp=0 should be +Inf")
	}
	if NormalizeDelta(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
}
