package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/nullmodel"
)

// countingModel wraps a null model and counts its calls per support.
type countingModel struct {
	inner nullmodel.Model
	mu    sync.Mutex
	calls map[int]int
}

func newCountingModel(g *graph.Graph, p Params) *countingModel {
	return &countingModel{inner: nullmodel.NewAnalytical(g, p.QuasiCliqueParams()), calls: make(map[int]int)}
}

func (c *countingModel) Exp(sigma int) float64 {
	c.mu.Lock()
	c.calls[sigma]++
	c.mu.Unlock()
	return c.inner.Exp(sigma)
}

func (c *countingModel) Name() string { return c.inner.Name() }

// check fails unless the run that used c consulted it at most once per
// support, and at most |V|+1 times in all.
func (c *countingModel) check(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	total := 0
	for sigma, n := range c.calls {
		if n > 1 {
			t.Fatalf("%s: null model asked %d times for σ=%d", label, n, sigma)
		}
		total += n
	}
	if total > g.NumVertices()+1 {
		t.Fatalf("%s: %d null-model calls, more than |V|+1 = %d", label, total, g.NumVertices()+1)
	}
}

// checkSetShapes fails unless every set of res names each of its ids as
// g does, lists its ids strictly ascending, and has Attrs and Names at
// their length's capacity, so appending to one never writes into a set
// that shares its backing array.
func checkSetShapes(t *testing.T, label string, res *Result, g *graph.Graph) {
	t.Helper()
	for i, s := range res.Sets {
		if len(s.Names) != len(s.Attrs) || cap(s.Attrs) != len(s.Attrs) || cap(s.Names) != len(s.Names) {
			t.Fatalf("%s: set %d has len/cap Attrs %d/%d, Names %d/%d", label, i,
				len(s.Attrs), cap(s.Attrs), len(s.Names), cap(s.Names))
		}
		for k, a := range s.Attrs {
			if k > 0 && s.Attrs[k-1] >= a {
				t.Fatalf("%s: set %d ids %v not ascending", label, i, s.Attrs)
			}
			if s.Names[k] != g.AttrName(a) {
				t.Fatalf("%s: set %d names %v, id %d is %q", label, i, s.Names, a, g.AttrName(a))
			}
		}
	}
}

// dblpDelta draws one update of g: an edge added or removed, or an
// attribute the graph already has set on or unset from a vertex.
func dblpDelta(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Delta {
	t.Helper()
	d := g.NewDelta()
	n := int32(g.NumVertices())
	for d.Empty() {
		u, v := rng.Int31n(n), rng.Int31n(n)
		a := rng.Int31n(int32(g.NumAttributes()))
		un, vn, an := g.VertexName(u), g.VertexName(v), g.AttrName(a)
		switch rng.Intn(4) {
		case 0:
			d.AddEdge(un, vn) //nolint:errcheck // an invalid draw is retried
		case 1:
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				d.RemoveEdge(un, g.VertexName(nbrs[rng.Intn(len(nbrs))])) //nolint:errcheck
			}
		case 2:
			d.SetAttr(un, an) //nolint:errcheck
		case 3:
			if attrs := g.VertexAttrs(u); len(attrs) > 0 {
				d.UnsetAttr(un, g.AttrName(attrs[rng.Intn(len(attrs))])) //nolint:errcheck
			}
		}
	}
	return d
}

// TestMinedSetsWellFormed mines SynthDBLP@0.1 and follows it with a
// 20-op Remine chain, at Parallelism 1 and 4. Every result's sets must
// be well formed (checkSetShapes), every run must consult its null
// model at most once per support, and both parallelisms must give the
// same answers, equal to a fresh Mine of the updated graph.
func TestMinedSetsWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("mines SynthDBLP@0.1 21 times at two parallelisms")
	}
	ctx := context.Background()
	prof := datagen.SynthDBLP(0.1)
	g, _, err := datagen.Generate(prof.Config)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		SigmaMin: prof.SigmaMin, Gamma: prof.Gamma, MinSize: prof.MinSize,
		MinAttrs: prof.MinAttrs, EpsMin: prof.EpsMin, DeltaMin: prof.DeltaMin,
		K: 5, RecordLattice: true,
	}
	run := func(label string, g *graph.Graph, par int, old *Result, cs *graph.ChangeSet) *Result {
		t.Helper()
		q := p
		q.Parallelism = par
		model := newCountingModel(g, q)
		q.Model = model
		res, err := Remine(ctx, g, q, old, cs, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		model.check(t, label, g)
		checkSetShapes(t, label, res, g)
		return res
	}
	same := func(label string, a, b *Result) {
		t.Helper()
		if !reflect.DeepEqual(a.Sets, b.Sets) || !reflect.DeepEqual(a.Patterns, b.Patterns) {
			t.Fatalf("%s: results differ (%d vs %d sets)", label, len(a.Sets), len(b.Sets))
		}
	}
	seq := run("mine P=1", g, 1, nil, nil)
	par := run("mine P=4", g, 4, nil, nil)
	same("mine", seq, par)
	if len(seq.Sets) < 1000 {
		t.Fatalf("only %d sets mined", len(seq.Sets))
	}
	rng := rand.New(rand.NewSource(23))
	reused := int64(0)
	for op := 1; op <= 20; op++ {
		ng, cs, err := g.Apply(dblpDelta(t, g, rng))
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("op %d", op)
		seq = run(label+" remine P=1", ng, 1, seq, cs)
		par = run(label+" remine P=4", ng, 4, par, cs)
		same(label+" remine", seq, par)
		reused += seq.Stats.ReusedSets
		if op%5 == 0 {
			same(label+" remine vs mine", seq, run(label+" mine", ng, 1, nil, nil))
		}
		g = ng
	}
	if reused == 0 {
		t.Fatal("the chain carried no set")
	}
	if !slices.IsSortedFunc(seq.Sets, func(a, b AttributeSet) int { return CompareAttrs(a.Attrs, b.Attrs) }) {
		t.Fatal("sets not in canonical order")
	}
}

// TestExpTableConcurrent races 8 goroutines over every support of one
// table: each must read the model's value, and the model must be asked
// once per support.
func TestExpTableConcurrent(t *testing.T) {
	g := randomAttributedGraph(5, 60)
	p := paperParams()
	model := newCountingModel(g, p)
	table := newExpTable(model, g.NumVertices())
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range g.NumVertices() + 3 {
				sigma := (i + 7*w) % (g.NumVertices() + 3)
				if got, want := table.at(sigma), model.inner.Exp(sigma); got != want {
					t.Errorf("at(%d) = %v, want %v", sigma, got, want)
				}
			}
		}()
	}
	wg.Wait()
	for sigma := range g.NumVertices() + 1 {
		if n := model.calls[sigma]; n != 1 {
			t.Fatalf("σ=%d asked %d times", sigma, n)
		}
	}
}
