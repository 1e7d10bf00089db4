package index

import (
	"context"
	"reflect"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// buildExample mines the paper's worked example (Figure 1 / Table 1:
// sets {A}, {B}, {A,B}; 7 patterns) and indexes it.
func buildExample(t *testing.T) (*graph.Graph, *core.Result, *Index) {
	t.Helper()
	g := graph.PaperExample()
	res, err := core.Mine(context.Background(), g, core.Params{
		SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) != 3 || len(res.Patterns) != 7 {
		t.Fatalf("example mined %d sets / %d patterns", len(res.Sets), len(res.Patterns))
	}
	return g, res, Build(res, g)
}

func setNames(x *Index, idxs []int) [][]string {
	out := make([][]string, len(idxs))
	for i, si := range idxs {
		out[i] = x.Sets()[si].Names
	}
	return out
}

func TestBuildShape(t *testing.T) {
	_, res, x := buildExample(t)
	if x.NumSets() != 3 || x.NumPatterns() != 7 {
		t.Fatalf("index holds %d sets / %d patterns", x.NumSets(), x.NumPatterns())
	}
	st := x.Stats()
	if st.Sets != 3 || st.Patterns != 7 || st.Attributes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mining.SetsEmitted != res.Stats.SetsEmitted {
		t.Fatalf("mining stats not carried: %+v", st.Mining)
	}
	// Table 1 patterns cover vertices 3..11 → 9 distinct labels.
	if st.PatternVertices != 9 {
		t.Fatalf("pattern vertices = %d", st.PatternVertices)
	}
}

func TestSetAndPatternByID(t *testing.T) {
	_, res, x := buildExample(t)
	for i, s := range res.Sets {
		got, ok := x.SetByID(s.ID())
		if !ok || !reflect.DeepEqual(got, s) {
			t.Fatalf("SetByID(%s) = %+v, %v", s.ID(), got, ok)
		}
		if x.SetID(i) != s.ID() {
			t.Fatalf("SetID(%d) mismatch", i)
		}
	}
	for i, p := range res.Patterns {
		got, ok := x.PatternByID(p.ID())
		if !ok || !reflect.DeepEqual(got, p) {
			t.Fatalf("PatternByID(%s) failed", p.ID())
		}
		if x.PatternID(i) != p.ID() {
			t.Fatalf("PatternID(%d) mismatch", i)
		}
	}
	if _, ok := x.SetByID("no-such-id"); ok {
		t.Fatal("unknown set id must miss")
	}
	if _, ok := x.PatternByID("no-such-id"); ok {
		t.Fatal("unknown pattern id must miss")
	}
}

func TestPatternsOfSetGrouping(t *testing.T) {
	_, res, x := buildExample(t)
	total := 0
	for _, s := range res.Sets {
		pats := x.PatternsOfSet(s.ID())
		total += len(pats)
		for _, pi := range pats {
			if x.Patterns()[pi].SetID() != s.ID() {
				t.Fatalf("pattern %d grouped under wrong set", pi)
			}
		}
	}
	if total != len(res.Patterns) {
		t.Fatalf("grouped %d of %d patterns", total, len(res.Patterns))
	}
	if x.PatternsOfSet("missing") != nil {
		t.Fatal("unknown set id must yield nil")
	}
}

func TestExactLookup(t *testing.T) {
	_, res, x := buildExample(t)
	for i, s := range res.Sets {
		if got := x.Exact(s.Names); got != i {
			t.Fatalf("Exact(%v) = %d, want %d", s.Names, got, i)
		}
	}
	// Order independence: {A,B} must be found as {B,A} too.
	if got := x.Exact([]string{"B", "A"}); got < 0 || x.Sets()[got].Support != 6 {
		t.Fatalf("Exact(B,A) = %d", got)
	}
	if x.Exact([]string{"A", "C"}) != -1 {
		t.Fatal("unindexed set must miss")
	}
	if x.Exact([]string{"nope"}) != -1 {
		t.Fatal("unknown attribute must miss")
	}
}

func TestSupersetsSubsetsContainment(t *testing.T) {
	_, _, x := buildExample(t)
	// Supersets of {A}: {A} and {A,B}.
	if got := setNames(x, x.Supersets([]string{"A"})); !reflect.DeepEqual(got, [][]string{{"A"}, {"A", "B"}}) {
		t.Fatalf("Supersets(A) = %v", got)
	}
	// Supersets of {} = every set.
	if got := x.Supersets(nil); len(got) != 3 {
		t.Fatalf("Supersets({}) = %v", got)
	}
	// Supersets of an unknown attribute: none.
	if got := x.Supersets([]string{"Z"}); got != nil {
		t.Fatalf("Supersets(Z) = %v", got)
	}
	// Subsets of {A,B}: all three sets.
	if got := x.Subsets([]string{"A", "B"}); len(got) != 3 {
		t.Fatalf("Subsets(A,B) = %v", got)
	}
	// Subsets of {B}: just {B}.
	if got := setNames(x, x.Subsets([]string{"B"})); !reflect.DeepEqual(got, [][]string{{"B"}}) {
		t.Fatalf("Subsets(B) = %v", got)
	}
	// Unknown names in a subset query are ignored, not fatal.
	if got := setNames(x, x.Subsets([]string{"B", "Z"})); !reflect.DeepEqual(got, [][]string{{"B"}}) {
		t.Fatalf("Subsets(B,Z) = %v", got)
	}
}

func TestVertexPostings(t *testing.T) {
	g, res, x := buildExample(t)
	// Vertex "6" sits in the large {6..11} quasi-cliques of all three
	// sets plus the {3,4,6,7} / {6,7,10,11}-style 4-sets; count against
	// a direct scan.
	for _, label := range []string{"1", "3", "6", "11"} {
		var want []int
		for i, p := range res.Patterns {
			for _, v := range p.Vertices {
				if g.VertexName(v) == label {
					want = append(want, i)
					break
				}
			}
		}
		got := x.PatternsWithVertex(label)
		if len(want) == 0 {
			if got != nil || x.HasVertex(label) {
				t.Fatalf("vertex %s should be absent", label)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("PatternsWithVertex(%s) = %v, want %v", label, got, want)
		}
		if !x.HasVertex(label) {
			t.Fatalf("HasVertex(%s) = false", label)
		}
	}
}

func TestTopSetsRanking(t *testing.T) {
	_, res, x := buildExample(t)
	top := x.TopSets(core.BySupport, 2)
	if len(top) != 2 {
		t.Fatalf("top-2 returned %d", len(top))
	}
	if top[0].Support < top[1].Support {
		t.Fatal("not ranked by support")
	}
	if got := x.TopSets(core.ByEpsilon, 100); len(got) != len(res.Sets) {
		t.Fatal("overlong top-k must return all sets")
	}
}

// TestBuildSharesResultTables: Build takes the result's row tables by
// reference, as Rebuild does, so a served result and its index hold one
// copy of the sets and patterns.
func TestBuildSharesResultTables(t *testing.T) {
	_, res, x := buildExample(t)
	if &x.Sets()[0] != &res.Sets[0] || &x.Patterns()[0] != &res.Patterns[0] {
		t.Fatal("Build copied the result's row tables")
	}
}

// TestBuildEmptyResult indexes a run that emits nothing: every query
// answers empty, and Rebuild goes from the empty index to a full one
// and back exactly like a fresh Build.
func TestBuildEmptyResult(t *testing.T) {
	g, res, full := buildExample(t)
	none, err := core.Mine(context.Background(), g, core.Params{SigmaMin: 100, Gamma: 0.6, MinSize: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Sets) != 0 || len(none.Patterns) != 0 {
		t.Fatalf("σmin 100 mined %d sets / %d patterns", len(none.Sets), len(none.Patterns))
	}
	x := Build(none, g)
	if x.NumSets() != 0 || x.NumPatterns() != 0 || len(x.Sets()) != 0 || len(x.Patterns()) != 0 {
		t.Fatalf("empty index holds %d sets / %d patterns", x.NumSets(), x.NumPatterns())
	}
	if st := x.Stats(); st.Sets != 0 || st.Patterns != 0 || st.Attributes != 0 || st.PatternVertices != 0 || st.Mining != none.Stats {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := x.SetByID(res.Sets[0].ID()); ok || x.SetIndexByID(res.Sets[0].ID()) != -1 {
		t.Fatal("empty index finds a set")
	}
	if _, ok := x.PatternByID(res.Patterns[0].ID()); ok || x.PatternsOfSet(res.Sets[0].ID()) != nil {
		t.Fatal("empty index finds a pattern")
	}
	if x.Exact([]string{"A"}) != -1 || len(x.Supersets([]string{"A"})) != 0 || len(x.Supersets(nil)) != 0 ||
		len(x.Subsets([]string{"A", "B"})) != 0 {
		t.Fatal("empty index answers a set query")
	}
	if len(x.PatternsWithVertex("3")) != 0 || x.HasVertex("3") {
		t.Fatal("empty index knows a vertex")
	}
	for _, r := range []core.Ranking{core.BySupport, core.ByEpsilon, core.ByDelta} {
		if len(x.Ranked(r)) != 0 || len(x.TopSets(r, 5)) != 0 {
			t.Fatalf("empty index ranks sets by %v", r)
		}
	}
	requireSameAnswers(t, "empty to full", x.Rebuild(res, g), full)
	requireSameAnswers(t, "full to empty", full.Rebuild(none, g), x)
}
