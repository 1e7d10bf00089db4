package index

import (
	"context"
	"testing"

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
// answers identically to a fresh Build, and that ids and resolved
// vertex labels of unchanged content are carried over by reference,
// not re-derived.
func TestRebuildReusesInternedContent(t *testing.T) {
	g, res := minePaper(t)
	x := Build(res, g)

	// An edge between two attribute-disjoint vertices leaves every
	// mined set untouched.
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
	fresh := Build(res2, ng)
	if nx.NumSets() != fresh.NumSets() || nx.NumPatterns() != fresh.NumPatterns() {
		t.Fatalf("rebuild shape %d/%d, fresh %d/%d", nx.NumSets(), nx.NumPatterns(), fresh.NumSets(), fresh.NumPatterns())
	}
	for i := 0; i < fresh.NumSets(); i++ {
		if nx.SetID(i) != fresh.SetID(i) {
			t.Fatalf("set %d id %q vs fresh %q", i, nx.SetID(i), fresh.SetID(i))
		}
		// Unchanged content keeps the donor's interned string.
		if j := x.SetIndexByID(nx.SetID(i)); j >= 0 {
			if &nx.setIDs[i] == &x.setIDs[j] {
				continue // same backing — cannot happen for distinct slices, but cheap to allow
			}
		}
	}
	for i := 0; i < fresh.NumPatterns(); i++ {
		if nx.PatternID(i) != fresh.PatternID(i) {
			t.Fatalf("pattern %d id mismatch", i)
		}
	}
	// The real interning assertion: pattern vertex-label slices of
	// unchanged patterns are shared with the donor index.
	shared := 0
	for i := 0; i < nx.NumPatterns(); i++ {
		if donor, ok := x.PatternByID(nx.PatternID(i)); ok {
			_ = donor
			di := -1
			for j := 0; j < x.NumPatterns(); j++ {
				if x.PatternID(j) == nx.PatternID(i) {
					di = j
					break
				}
			}
			if di >= 0 && len(nx.patVerts[i]) > 0 && &nx.patVerts[i][0] == &x.patVerts[di][0] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("Rebuild resolved every pattern's vertex labels from scratch; expected donor reuse")
	}
	// The dataset shape reflects the new graph.
	v, e, a := nx.DatasetShape()
	if v != ng.NumVertices() || e != ng.NumEdges() || a != ng.NumAttributes() {
		t.Fatalf("rebuilt shape (%d,%d,%d) does not match updated graph", v, e, a)
	}
}
