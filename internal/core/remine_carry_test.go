package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
)

// requireRemineStats checks the counter contract of a Remine against a
// full Mine of the same graph: every set the Mine evaluates is either
// reused or recomputed, and the same sets and patterns are emitted.
func requireRemineStats(t *testing.T, label string, inc, scratch *Result) {
	t.Helper()
	is, ws := inc.Stats, scratch.Stats
	if got := is.ReusedSets + is.RecomputedSets; got != ws.SetsEvaluated {
		t.Fatalf("%s: reused %d + recomputed %d = %d, full Mine evaluated %d",
			label, is.ReusedSets, is.RecomputedSets, got, ws.SetsEvaluated)
	}
	if is.SetsEmitted != ws.SetsEmitted || is.PatternsEmitted != ws.PatternsEmitted {
		t.Fatalf("%s: emitted %d sets / %d patterns, full Mine %d / %d",
			label, is.SetsEmitted, is.PatternsEmitted, ws.SetsEmitted, ws.PatternsEmitted)
	}
}

// flipParams returns the equivalence-test parameter blocks with δmin
// set to the median δ of g's multi-attribute sets, so a move of εexp
// can push clean sets across the emission and survival thresholds.
func flipParams(t *testing.T, g *graph.Graph) map[string]Params {
	t.Helper()
	out := remineParams()
	for mode, p := range out {
		res, err := Mine(context.Background(), g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		var deltas []float64
		for _, s := range res.Sets {
			if len(s.Attrs) > 1 {
				deltas = append(deltas, s.Delta)
			}
		}
		if len(deltas) == 0 {
			t.Fatalf("%s: no multi-attribute set to place δmin among", mode)
		}
		sort.Float64s(deltas)
		p.DeltaMin = deltas[len(deltas)/2]
		out[mode] = p
	}
	return out
}

// edgeDelta adds k edges between random non-adjacent vertex pairs.
func edgeDelta(t *testing.T, g *graph.Graph, rng *rand.Rand, k int) *graph.Delta {
	t.Helper()
	d := g.NewDelta()
	for added := 0; added < k; {
		u, v := int32(rng.Intn(g.NumVertices())), int32(rng.Intn(g.NumVertices()))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := d.AddEdge(g.VertexName(u), g.VertexName(v)); err != nil {
			continue // the pair is already in this delta
		}
		added++
	}
	return d
}

// attrDelta grants one of attrs to a random vertex that lacks it.
func attrDelta(t *testing.T, g *graph.Graph, rng *rand.Rand, attrs []int32) *graph.Delta {
	t.Helper()
	d := g.NewDelta()
	for {
		v, a := int32(rng.Intn(g.NumVertices())), attrs[rng.Intn(len(attrs))]
		if !slices.Contains(g.VertexAttrs(v), a) {
			if err := d.SetAttr(g.VertexName(v), g.AttrName(a)); err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
}

// frequentAttrs returns g's attributes with support ≥ sigmaMin.
func frequentAttrs(g *graph.Graph, sigmaMin int) []int32 {
	var out []int32
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		if g.AttrSupport(a) >= sigmaMin {
			out = append(out, a)
		}
	}
	return out
}

// emittedKeys returns the keys of res's sets.
func emittedKeys(res *Result) map[string]bool {
	out := make(map[string]bool, len(res.Sets))
	for _, s := range res.Sets {
		out[s.Key()] = true
	}
	return out
}

// TestRemineDeltaMinEdgeUpdates covers δmin > 0 across edge updates:
// an edge moves the degree distribution and with it εexp(σ) and
// εexp(σmin), so a clean set's emission or survival can flip although
// its ε did not change. A single edge op and a chain of them, exact
// and sampled, must still equal a full Mine, and some clean set must
// actually flip along the way. The chain interleaves attribute grants,
// which leave εexp where it was.
func TestRemineDeltaMinEdgeUpdates(t *testing.T) {
	ctx := context.Background()
	g0 := remineGraph(t, 41)
	for mode, p := range flipParams(t, g0) {
		t.Run(mode, func(t *testing.T) {
			flips := 0
			for _, steps := range []int{1, 4} {
				g := g0
				res, err := Mine(ctx, g, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(600 + steps)))
				for step := 0; step < steps; step++ {
					label := fmt.Sprintf("%s %d-step chain, step %d", mode, steps, step)
					d := edgeDelta(t, g, rng, 1+step%3)
					if step%2 == 1 {
						d = attrDelta(t, g, rng, frequentAttrs(g, p.SigmaMin))
					}
					ng, cs, err := g.Apply(d)
					if err != nil {
						t.Fatal(err)
					}
					scratch, err := Mine(ctx, ng, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					before := emittedKeys(res)
					after := emittedKeys(scratch)
					for _, s := range append(slices.Clone(res.Sets), scratch.Sets...) {
						if before[s.Key()] != after[s.Key()] && !cs.Touches(s.Attrs) {
							flips++
						}
					}
					res, err = Remine(ctx, ng, p, res, cs, nil)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualResults(t, label, res, scratch)
					requireRemineStats(t, label, res, scratch)
					requireSameLattice(t, label, res.lattice, scratch.lattice)
					g = ng
				}
			}
			if flips == 0 {
				t.Fatal("no clean set crossed δmin: the test does not exercise a flip")
			}
			t.Logf("%s: %d clean-set emission flips", mode, flips)
		})
	}
}

// movingOwner is a 2-shard ownership rule re-derived per graph
// version, like shard.Owner: roots split by parity, except that root
// moved changes sides from graph version at on.
func movingOwner(k int, moved int32, at uint64) func(*graph.Graph, int32) bool {
	return func(g *graph.Graph, root int32) bool {
		side := int(root) % 2
		if root == moved && g.Version() >= at {
			side = 1 - side
		}
		return side == k
	}
}

// TestRemineShardOwnershipMoves remines 2 shards across a set_attr
// after which a clean root belongs to the other shard. The new owner
// must mine the root's subtree, the old owner must drop it — carried
// rows must not stay with the old owner — and each shard must equal a
// shard Mine of the new graph.
func TestRemineShardOwnershipMoves(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			g := remineGraph(t, 51)
			full, err := Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The root with the most rows below it moves; the toggled
			// attribute is the rarest other frequent single, so it comes
			// first in the Eclat order and the moved subtree is clean.
			rows := map[int32]int{}
			for _, s := range full.Sets {
				if len(s.Attrs) > 1 {
					rows[eclatRoot(g, s.Attrs)]++
				}
			}
			moved, dirty := int32(-1), int32(-1)
			for a := int32(0); a < int32(g.NumAttributes()); a++ {
				if rows[a] > 0 && (moved < 0 || rows[a] > rows[moved]) {
					moved = a
				}
			}
			for a := int32(0); a < int32(g.NumAttributes()); a++ {
				if a != moved && g.AttrSupport(a) >= p.SigmaMin && (dirty < 0 || g.AttrSupport(a) < g.AttrSupport(dirty)) {
					dirty = a
				}
			}
			if moved < 0 || dirty < 0 {
				t.Fatal("test graph has no subtree to move")
			}
			d := g.NewDelta()
			for v := int32(0); v < int32(g.NumVertices()); v++ {
				if !slices.Contains(g.VertexAttrs(v), dirty) {
					if err := d.SetAttr(g.VertexName(v), g.AttrName(dirty)); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			ng, cs, err := g.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Touches([]int32{moved}) {
				t.Fatalf("moved root %d is dirty", moved)
			}

			parts := make([]*Result, 2)
			for k := range parts {
				sp := p
				sp.ShardOwner = movingOwner(k, moved, ng.Version())
				old, err := Mine(ctx, g, sp, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Mine(ctx, ng, sp, nil)
				if err != nil {
					t.Fatal(err)
				}
				if parts[k], err = Remine(ctx, ng, sp, old, cs, nil); err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, fmt.Sprintf("%s shard %d", mode, k), parts[k], want)
				requireRemineStats(t, fmt.Sprintf("%s shard %d", mode, k), parts[k], want)
				requireSameLattice(t, fmt.Sprintf("%s shard %d", mode, k), parts[k].lattice, want.lattice)
				for _, s := range parts[k].Sets {
					if len(s.Attrs) > 1 && eclatRoot(ng, s.Attrs) == moved && !sp.ShardOwner(ng, moved) {
						t.Fatalf("%s: shard %d kept %v under the root it gave away", mode, k, s.Names)
					}
				}
			}
			merged, err := MergeResults(parts...)
			if err != nil {
				t.Fatal(err)
			}
			scratch, err := Mine(ctx, ng, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, mode+" merged", merged, scratch)
		})
	}
}

// eclatRoot returns the first attribute of attrs in the Eclat order:
// the lowest support, ties to the lower id.
func eclatRoot(g *graph.Graph, attrs []int32) int32 {
	root := attrs[0]
	for _, a := range attrs[1:] {
		if g.AttrSupport(a) < g.AttrSupport(root) || g.AttrSupport(a) == g.AttrSupport(root) && a < root {
			root = a
		}
	}
	return root
}

// recordingSink counts the sets and patterns a run streams.
type recordingSink struct {
	sets     map[string]int
	patterns int
}

func (s *recordingSink) OnAttributeSet(a AttributeSet) { s.sets[a.Key()]++ }
func (s *recordingSink) OnPattern(Pattern)             { s.patterns++ }
func (s *recordingSink) OnProgress(Stats)              {}

// TestRemineSinkSeesEverySet pins the sink contract of Remine: every
// emitted set, carried ones included, is delivered exactly once, with
// all of its patterns.
func TestRemineSinkSeesEverySet(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			g := remineGraph(t, 61)
			res, err := Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(62))
			for step := 0; step < 3; step++ {
				ng, cs, err := g.Apply(randomRemineDelta(t, g, rng))
				if err != nil {
					t.Fatal(err)
				}
				sink := &recordingSink{sets: map[string]int{}}
				if res, err = Remine(ctx, ng, p, res, cs, sink); err != nil {
					t.Fatal(err)
				}
				if len(sink.sets) != len(res.Sets) || sink.patterns != len(res.Patterns) {
					t.Fatalf("step %d: sink saw %d sets / %d patterns, result holds %d / %d",
						step, len(sink.sets), sink.patterns, len(res.Sets), len(res.Patterns))
				}
				for _, s := range res.Sets {
					if n := sink.sets[s.Key()]; n != 1 {
						t.Fatalf("step %d: set %s delivered %d times", step, s.Key(), n)
					}
				}
				g = ng
			}
		})
	}
}

// TestProgressOnlySink checks that a SinkFuncs with only a Progress
// func is handed no set, and that skipping per-set delivery changes
// nothing it sees: a Mine and a chain of Remines report the same
// progress snapshots, and return the same results, as with a sink that
// takes every set and pattern.
func TestProgressOnlySink(t *testing.T) {
	if newEmitter(SinkFuncs{Progress: func(Stats) {}}, 0, time.Now()).streams {
		t.Fatal("a progress-only SinkFuncs is streamed sets")
	}
	ctx := context.Background()
	p := remineParams()["exact"]
	p.ProgressEvery = 7
	// run mines (old == nil) or remines with a progress-only sink and a
	// full one, requires equal results and snapshots, and returns the
	// first result.
	run := func(label string, g *graph.Graph, old *Result, cs *graph.ChangeSet) *Result {
		t.Helper()
		var only, full []Stats
		var sets int
		sinks := []Sink{
			SinkFuncs{Progress: func(st Stats) { only = append(only, st) }},
			SinkFuncs{
				AttributeSet: func(AttributeSet) { sets++ },
				Pattern:      func(Pattern) {},
				Progress:     func(st Stats) { full = append(full, st) },
			},
		}
		var res [2]*Result
		for i, sink := range sinks {
			var err error
			if old == nil {
				res[i], err = Mine(ctx, g, p, sink)
			} else {
				res[i], err = Remine(ctx, g, p, old, cs, sink)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		requireEqualResults(t, label, res[0], res[1])
		if sets != len(res[1].Sets) {
			t.Fatalf("%s: the full sink saw %d sets of %d", label, sets, len(res[1].Sets))
		}
		if len(only) != len(full) || len(only) < 2 {
			t.Fatalf("%s: %d progress snapshots, want %d (at least 2)", label, len(only), len(full))
		}
		for i := range only {
			only[i].Duration, full[i].Duration = 0, 0
			if only[i] != full[i] {
				t.Fatalf("%s: snapshot %d\nprogress only: %+v\nfull sink:     %+v", label, i, only[i], full[i])
			}
		}
		return res[0]
	}
	g := remineGraph(t, 71)
	res := run("mine", g, nil, nil)
	rng := rand.New(rand.NewSource(72))
	for step := 0; step < 4; step++ {
		ng, cs, err := g.Apply(randomRemineDelta(t, g, rng))
		if err != nil {
			t.Fatal(err)
		}
		res = run(fmt.Sprintf("remine %d", step), ng, res, cs)
		g = ng
	}
}

// TestRemineVocabularyChain runs a chain of single-op updates — edges
// between random vertices and frequent attributes granted to vertices
// that lack them, as a live server sees them — on a large-vocabulary
// graph, where most subtrees are carried whole and a dirty frequent
// single makes the walk visit the clean subtrees before it. Every step
// must equal a full Mine, and so must its counters.
func TestRemineVocabularyChain(t *testing.T) {
	ctx := context.Background()
	prof := datagen.SynthDBLP(0.1)
	g, _, err := datagen.Generate(prof.Config)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{SigmaMin: prof.SigmaMin, Gamma: prof.Gamma, MinSize: prof.MinSize, MinAttrs: prof.MinAttrs,
		K: 5, Parallelism: 2, RecordLattice: true}
	res, err := Mine(ctx, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	frequent := frequentAttrs(g, p.SigmaMin)
	walked := false
	for step := 0; step < 8; step++ {
		d := edgeDelta(t, g, rng, 1)
		if step%2 == 1 {
			d = attrDelta(t, g, rng, frequent)
		}
		ng, cs, err := g.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Mine(ctx, ng, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = Remine(ctx, ng, p, res, cs, nil); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("step %d (%s)", step, cs)
		requireEqualResults(t, label, res, scratch)
		requireRemineStats(t, label, res, scratch)
		requireSameLattice(t, label, res.lattice, scratch.lattice)
		walked = walked || res.Stats.RecomputedSets > int64(cs.DirtyAttrs.Count())
		g = ng
	}
	if !walked {
		t.Fatal("no update reached below level 1")
	}
}

// TestRemineDeltaMinSurvivalFlips places δmin just above the Theorem-5
// survival bound of one set, then removes edges between vertices that
// share no attribute: nothing is dirty, but εexp(σmin) falls, so the
// set starts to survive and its children, clean and never evaluated
// before, must be evaluated now. Remine must equal a full Mine, and
// the test must see such a child.
func TestRemineDeltaMinSurvivalFlips(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			g0 := remineGraph(t, 81)
			base, err := Mine(ctx, g0, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			bound := p.NewModel(g0).Exp(p.SigmaMin) * float64(p.SigmaMin)
			var ratios []float64
			for _, tr := range base.lattice.trees {
				if tr != nil {
					for _, nd := range tr.nodes[1:] {
						if nd.nkids == 0 && nd.kmass > 0 {
							ratios = append(ratios, nd.kmass/bound)
						}
					}
				}
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(ratios)))
			flips := 0
			for _, r := range ratios[:min(8, len(ratios))] {
				q := p
				q.DeltaMin = r * (1 + 1e-9)
				g := g0
				res, err := Mine(ctx, g, q, nil)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(82))
				for step := 0; step < 3; step++ {
					d := g.NewDelta()
					for removed := 0; removed < 4; {
						u := int32(rng.Intn(g.NumVertices()))
						nbrs := g.Neighbors(u)
						if len(nbrs) == 0 {
							continue
						}
						v := nbrs[rng.Intn(len(nbrs))]
						if sharedAttrs(g.VertexAttrs(u), g.VertexAttrs(v)) > 0 {
							continue
						}
						if d.RemoveEdge(g.VertexName(u), g.VertexName(v)) == nil {
							removed++
						}
					}
					ng, cs, err := g.Apply(d)
					if err != nil {
						t.Fatal(err)
					}
					scratch, err := Mine(ctx, ng, q, nil)
					if err != nil {
						t.Fatal(err)
					}
					before := map[string]bool{}
					for _, s := range latticeSets(res.lattice) {
						before[fmt.Sprint(s)] = true
					}
					for _, s := range latticeSets(scratch.lattice) {
						if !before[fmt.Sprint(s)] && !cs.Touches(s) {
							flips++
						}
					}
					label := fmt.Sprintf("%s δmin=%.6g step %d", mode, q.DeltaMin, step)
					if res, err = Remine(ctx, ng, q, res, cs, nil); err != nil {
						t.Fatal(err)
					}
					requireEqualResults(t, label, res, scratch)
					requireRemineStats(t, label, res, scratch)
					requireSameLattice(t, label, res.lattice, scratch.lattice)
					g = ng
				}
			}
			if flips == 0 {
				t.Fatal("no clean set became newly evaluated: the test does not exercise a survival flip")
			}
			t.Logf("%s: %d clean sets newly evaluated", mode, flips)
		})
	}
}

// TestRemineDirtySingleMovesEarlier unsets the most frequent attribute
// on vertices until it moves before every other single in the Eclat
// order, and until it is no longer frequent at all. Either way the sets
// that held it sat in the subtrees of clean roots before it, which no
// dirty single now follows: those subtrees must still drop them, from
// the lattice as from the rows.
func TestRemineDirtySingleMovesEarlier(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		for _, floor := range []int{p.SigmaMin, p.SigmaMin - 1} {
			g := remineGraph(t, 91)
			old, err := Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			top := int32(0)
			for a := int32(1); a < int32(g.NumAttributes()); a++ {
				if g.AttrSupport(a) > g.AttrSupport(top) {
					top = a
				}
			}
			d := g.NewDelta()
			for v, left := int32(0), g.AttrSupport(top); left > floor; v++ {
				if slices.Contains(g.VertexAttrs(v), top) {
					if err := d.UnsetAttr(g.VertexName(v), g.AttrName(top)); err != nil {
						t.Fatal(err)
					}
					left--
				}
			}
			ng, cs, err := g.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s support of %s down to %d", mode, g.AttrName(top), floor)
			scratch, err := Mine(ctx, ng, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := Remine(ctx, ng, p, old, cs, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, label, inc, scratch)
			requireRemineStats(t, label, inc, scratch)
			requireSameLattice(t, label, inc.lattice, scratch.lattice)
		}
	}
}
