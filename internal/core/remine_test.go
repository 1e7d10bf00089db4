package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/scpm/scpm/internal/graph"
)

// remineGraph builds a randomized attributed graph with planted
// attribute-correlated cliques, large enough that the sampled ε path
// engages (supports beyond 2·m for the test's Hoeffding sample size).
func remineGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 160
	const numAttrs = 6
	b := graph.NewBuilder()
	for v := 0; v < n; v++ {
		var attrs []string
		for a := 0; a < numAttrs; a++ {
			if rng.Float64() < 0.55 {
				attrs = append(attrs, fmt.Sprintf("a%d", a))
			}
		}
		if _, err := b.AddVertex(fmt.Sprintf("v%d", v), attrs...); err != nil {
			t.Fatal(err)
		}
	}
	// Background edges.
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if err := b.AddEdge(int32(u), int32(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Planted near-cliques among random vertex groups, so coverage
	// searches actually find quasi-cliques.
	for c := 0; c < 10; c++ {
		var group []int32
		for len(group) < 6 {
			group = append(group, int32(rng.Intn(n)))
		}
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if group[i] != group[j] && rng.Float64() < 0.9 {
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

// randomRemineDelta records 1–10 random operations against g, touching
// existing attributes, occasionally new vocabulary and new vertices.
func randomRemineDelta(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Delta {
	t.Helper()
	d := g.NewDelta()
	n := g.NumVertices()
	name := func(v int) string { return g.VertexName(int32(v)) }
	ops := 1 + rng.Intn(10)
	for i := 0; i < ops; i++ {
		switch rng.Intn(6) {
		case 0:
			attrs := []string{fmt.Sprintf("a%d", rng.Intn(7))}
			d.AddVertex(fmt.Sprintf("new%d", i), attrs...) //nolint:errcheck // duplicates skipped
		case 1, 2:
			d.AddEdge(name(rng.Intn(n)), name(rng.Intn(n))) //nolint:errcheck
		case 3:
			u := int32(rng.Intn(n))
			if nbrs := g.Neighbors(u); len(nbrs) > 0 {
				d.RemoveEdge(name(int(u)), name(int(nbrs[rng.Intn(len(nbrs))]))) //nolint:errcheck
			}
		case 4:
			d.SetAttr(name(rng.Intn(n)), fmt.Sprintf("a%d", rng.Intn(7))) //nolint:errcheck
		case 5:
			d.UnsetAttr(name(rng.Intn(n)), fmt.Sprintf("a%d", rng.Intn(6))) //nolint:errcheck
		}
	}
	if d.Empty() {
		if err := d.SetAttr(name(0), "a0"); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// sharedAttrs counts the common elements of two sorted id lists.
func sharedAttrs(a, b []int32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// remineParams returns the two parameter blocks (exact and sampled)
// the equivalence tests run under.
func remineParams() map[string]Params {
	base := Params{
		SigmaMin:      20,
		Gamma:         0.5,
		MinSize:       4,
		EpsMin:        0.05,
		K:             3,
		MaxAttrs:      3,
		RecordLattice: true,
	}
	sampled := base
	sampled.EpsilonMode = EpsilonSampled
	sampled.SampleEps = 0.2
	sampled.SampleDelta = 0.1
	sampled.Seed = 42
	return map[string]Params{"exact": base, "sampled": sampled}
}

// setFingerprints renders every field of every set, including the
// stable id, so equivalence checks catch any drift.
func setFingerprints(res *Result) []string {
	out := make([]string, len(res.Sets))
	for i, s := range res.Sets {
		out[i] = fmt.Sprintf("%s|%s|σ=%d|ε=%.9f|εexp=%.9f|δ=%.9g|cov=%d|est=%v|err=%.9f|samp=%d",
			s.ID(), s.Key(), s.Support, s.Epsilon, s.ExpEps, s.Delta, s.Covered,
			s.Estimated, s.EpsilonErr, s.SampledVertices)
	}
	return out
}

func patternFingerprints(res *Result) []string {
	out := make([]string, len(res.Patterns))
	for i, p := range res.Patterns {
		out[i] = fmt.Sprintf("%s|%s|%v|deg=%d|e=%d", p.ID(), p.SetID(), p.Vertices, p.MinDeg, p.Edges)
	}
	return out
}

func requireEqualResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gs, ws := setFingerprints(got), setFingerprints(want)
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d sets, want %d\ngot:  %v\nwant: %v", label, len(gs), len(ws), gs, ws)
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("%s: set[%d]\ngot:  %s\nwant: %s", label, i, gs[i], ws[i])
		}
	}
	gp, wp := patternFingerprints(got), patternFingerprints(want)
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d patterns, want %d", label, len(gp), len(wp))
	}
	for i := range gp {
		if gp[i] != wp[i] {
			t.Fatalf("%s: pattern[%d]\ngot:  %s\nwant: %s", label, i, gp[i], wp[i])
		}
	}
}

// TestRemineEquivalence is the incremental-mining equivalence property
// test: for randomized graphs and random deltas, Remine over the old
// result must produce output identical to mining the updated graph
// from scratch — sets, ε, δ, patterns and stable ids — in both exact
// and sampled ε modes.
func TestRemineEquivalence(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			var totalReused, totalRecomputed int64
			for trial := 0; trial < 6; trial++ {
				g := remineGraph(t, int64(500+trial))
				old, err := Mine(ctx, g, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !old.HasLattice() {
					t.Fatal("RecordLattice run did not record a lattice")
				}
				rng := rand.New(rand.NewSource(int64(900 + trial)))
				d := randomRemineDelta(t, g, rng)
				ng, cs, err := g.Apply(d)
				if err != nil {
					t.Fatal(err)
				}

				scratch, err := Mine(ctx, ng, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := Remine(ctx, ng, p, old, cs, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, fmt.Sprintf("%s trial %d (%s)", mode, trial, cs), inc, scratch)
				requireRemineStats(t, fmt.Sprintf("%s trial %d", mode, trial), inc, scratch)
				requireSameLattice(t, fmt.Sprintf("%s trial %d", mode, trial), inc.lattice, scratch.lattice)
				totalReused += inc.Stats.ReusedSets
				totalRecomputed += inc.Stats.RecomputedSets
				if inc.Stats.ReusedSets+inc.Stats.RecomputedSets == 0 && len(scratch.Sets) > 0 {
					t.Fatalf("trial %d: remine did no work yet scratch found %d sets", trial, len(scratch.Sets))
				}
			}
			if totalReused == 0 {
				t.Fatal("incremental remine never reused a single evaluation across all trials")
			}
			t.Logf("%s: reused %d evaluations, recomputed %d", mode, totalReused, totalRecomputed)
		})
	}
}

// TestRemineSingleOpDeltas pins the headline cases — one edge, one
// attribute toggle — where reuse should dominate recomputation.
func TestRemineSingleOpDeltas(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			g := remineGraph(t, 7)
			old, err := Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The edge delta joins two non-adjacent vertices sharing no
			// attribute, the shape a single-edge update has on a real
			// large-vocabulary dataset: it dirties no attribute at all.
			var eu, ev int32 = -1, -1
		pairSearch:
			for u := int32(0); u < int32(g.NumVertices()); u++ {
				for v := u + 1; v < int32(g.NumVertices()); v++ {
					if !g.HasEdge(u, v) && len(g.VertexAttrs(u)) > 0 &&
						sharedAttrs(g.VertexAttrs(u), g.VertexAttrs(v)) == 0 {
						eu, ev = u, v
						break pairSearch
					}
				}
			}
			if eu < 0 {
				t.Fatal("no attribute-disjoint non-adjacent pair in the test graph")
			}
			deltas := map[string]func(d *graph.Delta) error{
				"edge": func(d *graph.Delta) error {
					return d.AddEdge(g.VertexName(eu), g.VertexName(ev))
				},
				"attr": func(d *graph.Delta) error {
					return d.SetAttr(g.VertexName(3), "a5")
				},
			}
			for name, build := range deltas {
				d := g.NewDelta()
				if err := build(d); err != nil {
					// The randomized graph may already have this
					// attribute on the vertex; toggle it off instead.
					d = g.NewDelta()
					if err := d.UnsetAttr(g.VertexName(3), "a5"); err != nil {
						t.Fatal(err)
					}
				}
				ng, cs, err := g.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := Mine(ctx, ng, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				inc, err := Remine(ctx, ng, p, old, cs, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, mode+"/"+name, inc, scratch)
				if inc.Stats.ReusedSets <= inc.Stats.RecomputedSets {
					t.Fatalf("%s/%s: expected reuse to dominate on a single-op delta, reused=%d recomputed=%d",
						mode, name, inc.Stats.ReusedSets, inc.Stats.RecomputedSets)
				}
			}
		})
	}
}

// TestRemineParallelMatches checks the lattice replay under worker
// parallelism: scheduling must not change the incremental output.
func TestRemineParallelMatches(t *testing.T) {
	ctx := context.Background()
	p := remineParams()["exact"]
	g := remineGraph(t, 11)
	old, err := Mine(ctx, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := g.NewDelta()
	if err := d.SetAttr(g.VertexName(5), "a4"); err != nil {
		if err := d.UnsetAttr(g.VertexName(5), "a4"); err != nil {
			t.Fatal(err)
		}
	}
	ng, cs, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Remine(ctx, ng, p, old, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pp := p
	pp.Parallelism = 4
	// The parallel remine consumes a lattice recorded by a parallel
	// mine, covering concurrent put as well as concurrent get.
	oldPar, err := Mine(ctx, g, pp, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Remine(ctx, ng, pp, oldPar, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "parallel remine", par, seq)
}

// TestRemineFallbacks covers the degraded paths: no lattice or no
// change set mean a correct full re-mine with zero reuse, and stale
// change sets are rejected.
func TestRemineFallbacks(t *testing.T) {
	ctx := context.Background()
	p := remineParams()["exact"]
	noLat := p
	noLat.RecordLattice = false
	g := remineGraph(t, 21)
	old, err := Mine(ctx, g, noLat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if old.HasLattice() {
		t.Fatal("lattice recorded without RecordLattice")
	}
	d := g.NewDelta()
	if err := d.AddVertex("fresh", "a0"); err != nil {
		t.Fatal(err)
	}
	ng, cs, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Mine(ctx, ng, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Remine(ctx, ng, p, old, cs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "lattice-less fallback", inc, scratch)
	if inc.Stats.ReusedSets != 0 {
		t.Fatalf("lattice-less remine reports %d reused sets", inc.Stats.ReusedSets)
	}
	if !inc.HasLattice() {
		t.Fatal("remine with RecordLattice did not record a fresh lattice")
	}

	// A change set that does not lead to this graph version is refused.
	withLat, err := Mine(ctx, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := *cs
	stale.ToVersion++
	if _, err := Remine(ctx, ng, p, withLat, &stale, nil); err == nil {
		t.Fatal("stale change set accepted")
	}

	// Skipping an intermediate ChangeSet (forgetting to Merge) is
	// refused too: the lattice records the version it was mined at.
	d2 := ng.NewDelta()
	if err := d2.AddVertex("fresh2", "a1"); err != nil {
		t.Fatal(err)
	}
	ng2, cs2, err := ng.Apply(d2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Remine(ctx, ng2, p, withLat, cs2, nil); err == nil {
		t.Fatal("change set skipping an intermediate update accepted")
	}
	merged := *cs
	if err := merged.Merge(cs2); err != nil {
		t.Fatal(err)
	}
	scratch2, err := Mine(ctx, ng2, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc3, err := Remine(ctx, ng2, p, withLat, &merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "merged change sets", inc3, scratch2)

	// nil changes degrade to a full mine too.
	inc2, err := Remine(ctx, ng, p, withLat, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "nil-changes fallback", inc2, scratch)
}

// TestRemineChained applies two consecutive deltas, remining after
// each from the previous incremental result, to prove lattices chain.
func TestRemineChained(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			g := remineGraph(t, 31)
			res, err := Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(77))
			for step := 0; step < 3; step++ {
				d := randomRemineDelta(t, g, rng)
				ng, cs, err := g.Apply(d)
				if err != nil {
					t.Fatal(err)
				}
				scratch, err := Mine(ctx, ng, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, err = Remine(ctx, ng, p, res, cs, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, fmt.Sprintf("%s chained step %d", mode, step), res, scratch)
				requireRemineStats(t, fmt.Sprintf("%s chained step %d", mode, step), res, scratch)
				requireSameLattice(t, fmt.Sprintf("%s chained step %d", mode, step), res.lattice, scratch.lattice)
				g = ng
			}
		})
	}
}

// TestRemineShardedSearchesNothing pins that a shard's Remine does no
// more work than its slice of the unsharded one: after a delta that
// dirties no attribute, every level-1 verdict a shard holds — owned or
// not — carries over, so each shard remines under a one-node search
// budget, and the merged counters equal the unsharded Remine's.
func TestRemineShardedSearchesNothing(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			g := remineGraph(t, 7)
			var eu, ev int32 = -1, -1
		pairSearch:
			for u := int32(0); u < int32(g.NumVertices()); u++ {
				for v := u + 1; v < int32(g.NumVertices()); v++ {
					if !g.HasEdge(u, v) && len(g.VertexAttrs(u)) > 0 &&
						sharedAttrs(g.VertexAttrs(u), g.VertexAttrs(v)) == 0 {
						eu, ev = u, v
						break pairSearch
					}
				}
			}
			if eu < 0 {
				t.Fatal("no attribute-disjoint non-adjacent pair in the test graph")
			}
			d := g.NewDelta()
			if err := d.AddEdge(g.VertexName(eu), g.VertexName(ev)); err != nil {
				t.Fatal(err)
			}
			ng, cs, err := g.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			if n := cs.DirtyAttrs.Count(); n != 0 {
				t.Fatalf("delta dirties %d attributes, want 0", n)
			}

			old, err := Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			budget := p
			budget.SearchBudget = 1
			want, err := Remine(ctx, ng, budget, old, cs, nil)
			if err != nil {
				t.Fatalf("unsharded remine: %v", err)
			}

			const n = 2
			parts := make([]*Result, n)
			for k := 0; k < n; k++ {
				sp := p
				sp.ShardOwner = parityOwner(k)
				oldK, err := Mine(ctx, g, sp, nil)
				if err != nil {
					t.Fatal(err)
				}
				sb := budget
				sb.ShardOwner = sp.ShardOwner
				if parts[k], err = Remine(ctx, ng, sb, oldK, cs, nil); err != nil {
					t.Fatalf("shard %d/%d remine: %v", k, n, err)
				}
			}
			merged, err := MergeResults(parts...)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, mode+" sharded remine", merged, want)
			ms, ws := merged.Stats, want.Stats
			ms.Duration, ws.Duration = 0, 0
			ms.ReusedVerdicts, ws.ReusedVerdicts = 0, 0
			if ms != ws {
				t.Fatalf("merged shard stats diverge from the unsharded remine\ngot:  %+v\nwant: %+v", ms, ws)
			}
		})
	}
}
