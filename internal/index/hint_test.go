package index

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"weak"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// paperUpdates are single-op updates of the worked example under the
// Table 1 parameters. A vertex joined to vertex 1 dirties no mined set;
// an edge between vertices 8 and 9 dirties {A, B}, whose re-evaluation
// finds the same patterns; removing the edge between 9 and 10 changes
// the patterns.
var paperUpdates = map[string]func(d *graph.Delta) error{
	"unchanged lists": func(d *graph.Delta) error {
		if err := d.AddVertex("loner"); err != nil {
			return err
		}
		return d.AddEdge("loner", "1")
	},
	"unchanged lists, dirty sets": func(d *graph.Delta) error { return d.AddEdge("8", "9") },
	"changed lists":               func(d *graph.Delta) error { return d.RemoveEdge("9", "10") },
}

// paperParams are the Table 1 parameters minePaper mines with.
var paperParams = core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true}

// remineOnce applies one update to g and remines res across it.
func remineOnce(t *testing.T, g *graph.Graph, res *core.Result, op func(*graph.Delta) error) (*graph.Graph, *core.Result) {
	t.Helper()
	d := g.NewDelta()
	if err := op(d); err != nil {
		t.Fatal(err)
	}
	ng, cs, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := core.Remine(context.Background(), ng, paperParams, res, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ng, nres
}

// TestListIDSharesWithoutCompare checks the list-id hint: a Remine
// that changes neither list keeps its predecessor's core.ListID, and
// Rebuild of the predecessor's index then shares the derived
// structures on the ids alone. It does not look at the lists: rows
// renamed behind its back (which the Rebuild contract forbids) are not
// noticed. An index of a result the new one was not remined from has
// another list id, so the lists are compared and still shared when
// equal.
func TestListIDSharesWithoutCompare(t *testing.T) {
	g, res := minePaper(t)
	x := Build(res, g)
	if x.list == 0 || x.list != core.ListID(res) {
		t.Fatalf("Build recorded list id %d, the result has %d", x.list, core.ListID(res))
	}
	for name, op := range paperUpdates {
		_, nres := remineOnce(t, g, res, op)
		want := strings.HasPrefix(name, "unchanged")
		if x.sameContent(nres) != want {
			t.Fatalf("%s: the update changed the lists: %v; the test needs %v", name, !x.sameContent(nres), !want)
		}
		if kept := core.ListID(nres) == core.ListID(res); kept != want {
			t.Fatalf("%s: Remine kept the list id: %v, want %v", name, kept, want)
		}
	}
	ng, same := remineOnce(t, g, res, paperUpdates["unchanged lists"])

	renamed := *same
	renamed.Sets = append([]core.AttributeSet(nil), same.Sets...)
	renamed.Sets[0].Names = []string{"renamed"}
	if nx := x.Rebuild(&renamed, ng); &nx.setIDs[0] != &x.setIDs[0] {
		t.Fatal("Rebuild with the donor's list id did not share its derived structures")
	}

	fresh, err := core.Mine(context.Background(), ng, paperParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if core.ListID(fresh) == core.ListID(same) {
		t.Fatal("two mining runs share a list id")
	}
	y := Build(fresh, ng)
	if nx := y.Rebuild(&renamed, ng); &nx.setIDs[0] == &y.setIDs[0] {
		t.Fatal("Rebuild against an index of another run shared structures with lists that differ")
	}
	nx := y.Rebuild(same, ng)
	if &nx.setIDs[0] != &y.setIDs[0] {
		t.Fatal("Rebuild against an index of another run did not share equal lists")
	}
	requireSameAnswers(t, "compared lists", nx, Build(same, ng))
}

// TestGenerationReleasesPredecessor checks that a new generation keeps
// nothing of the old one's set table alive: after Remine and Rebuild,
// dropping the previous Result and Index lets their Sets backing array
// and their ids (here those of {A, B}, which the first two updates
// carry) be collected, whether or not the update changed the lists.
func TestGenerationReleasesPredecessor(t *testing.T) {
	for name, op := range paperUpdates {
		t.Run(name, func(t *testing.T) {
			g, res := minePaper(t)
			x := Build(res, g)
			ng, nres := remineOnce(t, g, res, op)
			nx := x.Rebuild(nres, ng)
			old := weak.Make(&res.Sets[0])
			ids := weak.Make(&res.Sets[len(res.Sets)-1].Attrs[0])
			res, x = nil, nil
			runtime.GC()
			runtime.GC()
			if old.Value() != nil {
				t.Fatal("the new generation keeps the previous result's Sets alive")
			}
			if ids.Value() != nil {
				t.Fatal("the new generation keeps the previous result's ids alive")
			}
			requireSameAnswers(t, name, nx, Build(nres, ng))
			runtime.KeepAlive(nres)
		})
	}
}
