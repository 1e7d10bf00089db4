package shard

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/experiments"
	"github.com/scpm/scpm/internal/graph"
)

// testGraph builds a randomized attributed graph with planted
// attribute-correlated near-cliques — the same shape the core remine
// equivalence tests use, big enough that the sampled ε path engages.
func testGraph(t *testing.T, seed int64) *graph.Graph {
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
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if err := b.AddEdge(int32(u), int32(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
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

// testParams returns the exact and sampled parameter blocks the
// equivalence tests run under (mirroring the core remine tests).
func testParams() map[string]core.Params {
	base := core.Params{
		SigmaMin:      20,
		Gamma:         0.5,
		MinSize:       4,
		EpsMin:        0.05,
		K:             3,
		MaxAttrs:      3,
		RecordLattice: true,
	}
	sampled := base
	sampled.EpsilonMode = core.EpsilonSampled
	sampled.SampleEps = 0.2
	sampled.SampleDelta = 0.1
	sampled.Seed = 42
	return map[string]core.Params{"exact": base, "sampled": sampled}
}

func setFingerprints(res *core.Result) []string {
	out := make([]string, len(res.Sets))
	for i, s := range res.Sets {
		out[i] = fmt.Sprintf("%s|%s|σ=%d|ε=%.9f|εexp=%.9f|δ=%.9g|cov=%d|est=%v|err=%.9f|samp=%d",
			s.ID(), s.Key(), s.Support, s.Epsilon, s.ExpEps, s.Delta, s.Covered,
			s.Estimated, s.EpsilonErr, s.SampledVertices)
	}
	return out
}

func patternFingerprints(res *core.Result) []string {
	out := make([]string, len(res.Patterns))
	for i, p := range res.Patterns {
		out[i] = fmt.Sprintf("%s|%s|%v|deg=%d|e=%d", p.ID(), p.SetID(), p.Vertices, p.MinDeg, p.Edges)
	}
	return out
}

func requireEqualResults(t *testing.T, label string, got, want *core.Result) {
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

// requireEqualStats asserts every counter except Duration and
// ReusedVerdicts matches — the per-shard stats must SUM to the
// single-process counters, which core.MergeResults produces, so sharding hides no
// work and double-counts none. ReusedVerdicts is pure accounting (how
// the level-1 numbers were obtained, not what they are), so it is
// excluded like Duration.
func requireEqualStats(t *testing.T, label string, got, want core.Stats) {
	t.Helper()
	got.Duration = 0
	want.Duration = 0
	got.ReusedVerdicts = 0
	want.ReusedVerdicts = 0
	if got != want {
		t.Fatalf("%s: stats\ngot:  %+v\nwant: %+v", label, got, want)
	}
}

// TestOwnershipPartition is the size-1-set ownership property: for
// randomized graphs and every shard count, each frequent single
// attribute — and with it each attribute set, whose owner is defined
// as the owner of its first attribute in extension order — belongs to
// exactly one partition.
func TestOwnershipPartition(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		g := testGraph(t, int64(100+trial))
		const sigmaMin = 20
		for n := 1; n <= 4; n++ {
			parts, err := Plan(g, sigmaMin, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(parts) != n {
				t.Fatalf("Plan returned %d partitions, want %d", len(parts), n)
			}
			owners := make(map[int32]int)
			for _, p := range parts {
				for _, root := range p.Roots {
					owners[root]++
					if !p.owns[root] {
						t.Fatalf("partition %d lists root %d but its ownership map denies it", p.Shard, root)
					}
				}
			}
			for a := int32(0); a < int32(g.NumAttributes()); a++ {
				frequent := g.AttrSupport(a) >= sigmaMin
				if frequent && owners[a] != 1 {
					t.Fatalf("n=%d: frequent single %d owned by %d partitions, want exactly 1", n, a, owners[a])
				}
				if !frequent && owners[a] != 0 {
					t.Fatalf("n=%d: infrequent single %d owned by %d partitions, want 0", n, a, owners[a])
				}
			}
		}
	}
}

// TestPlanBalance asserts the planner's load balance on the committed
// datasets: the heaviest shard's candidate-1-set weight stays within
// 2× of the ideal (total/n) split.
func TestPlanBalance(t *testing.T) {
	for _, name := range []string{"dblp", "dense"} {
		ds, err := experiments.Load(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		sigmaMin := ds.Params().SigmaMin
		for _, n := range []int{2, 4} {
			parts, err := Plan(ds.Graph, sigmaMin, n)
			if err != nil {
				t.Fatal(err)
			}
			total, maxW, roots := 0, 0, 0
			for _, p := range parts {
				total += p.Weight
				roots += len(p.Roots)
				if p.Weight > maxW {
					maxW = p.Weight
				}
			}
			if roots < 2*n-1 {
				t.Skipf("%s: only %d frequent roots, too few for %d shards to balance", name, roots, n)
			}
			ideal := float64(total) / float64(n)
			if float64(maxW) > 2*ideal {
				t.Errorf("%s n=%d: heaviest shard weight %d exceeds 2× ideal %.1f", name, n, maxW, ideal)
			}
			t.Logf("%s n=%d: %d roots, total weight %d, heaviest %d (ideal %.1f)", name, n, roots, total, maxW, ideal)
		}
	}
}

// TestShardMergeEquivalence is the tentpole property test: for
// randomized graphs, in exact AND sampled ε modes, mining 1–4 shards
// independently and merging reproduces the single-process Mine output
// bit-identically — sets, ε, δ, patterns, stable ids AND the stats
// counters — and a Remine on the merged lattice behaves exactly like a
// Remine on a single-process lattice.
func TestShardMergeEquivalence(t *testing.T) {
	ctx := context.Background()
	for mode, p := range testParams() {
		t.Run(mode, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				g := testGraph(t, int64(300+trial))
				want, err := core.Mine(ctx, g, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= 4; n++ {
					label := fmt.Sprintf("trial=%d n=%d", trial, n)
					parts := make([]*core.Result, n)
					for k := 0; k < n; k++ {
						parts[k], err = Mine(ctx, g, p, k, n)
						if err != nil {
							t.Fatal(err)
						}
					}
					merged, err := core.MergeResults(parts...)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualResults(t, label, merged, want)
					requireEqualStats(t, label, merged.Stats, want.Stats)
					if !merged.HasLattice() {
						t.Fatalf("%s: merged result lost the lattice", label)
					}

					// The merged lattice must drive an incremental remine
					// exactly like a single-process lattice does.
					d := g.NewDelta()
					victim := g.VertexName(int32(trial))
					if err := d.UnsetAttr(victim, "a0"); err != nil {
						// The victim never had a0; granting it dirties the
						// attribute just as well.
						d = g.NewDelta()
						if err := d.SetAttr(victim, "a0"); err != nil {
							t.Fatal(err)
						}
					}
					ng, cs, err := g.Apply(d)
					if err != nil {
						t.Fatal(err)
					}
					fromMerged, err := core.Remine(ctx, ng, p, merged, cs, nil)
					if err != nil {
						t.Fatal(err)
					}
					scratch, err := core.Mine(ctx, ng, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualResults(t, label+" remine", fromMerged, scratch)
					if fromMerged.Stats.ReusedSets == 0 && merged.Stats.SetsEvaluated > 1 {
						t.Errorf("%s: remine from merged lattice reused nothing", label)
					}
				}
			}
		})
	}
}

// TestMineAll covers the concurrent helper: all shards mined in
// parallel goroutines and merged in one call.
func TestMineAll(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 777)
	p := testParams()["exact"]
	want, err := core.Mine(ctx, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MineAll(ctx, g, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "MineAll n=3", got, want)
}

// TestMergeRejectsOverlap asserts core.MergeResults refuses overlapping
// partitions instead of silently double-reporting sets.
func TestMergeRejectsOverlap(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 888)
	p := testParams()["exact"]
	res, err := core.Mine(ctx, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) == 0 {
		t.Fatal("test graph mined no sets")
	}
	if _, err := core.MergeResults(res, res); err == nil {
		t.Fatal("MergeResults accepted the same result twice")
	}
}

// TestShardValidation covers the shard-coordinate guard rails.
func TestShardValidation(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 999)
	p := testParams()["exact"]
	if _, err := Mine(ctx, g, p, 2, 2); err == nil {
		t.Error("Mine accepted shard 2 of 2")
	}
	if _, err := Mine(ctx, g, p, -1, 2); err == nil {
		t.Error("Mine accepted shard -1 of 2")
	}
	if _, err := Plan(g, p.SigmaMin, 0); err == nil {
		t.Error("Plan accepted n=0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Owner accepted shard 3 of 2 without panicking")
		}
	}()
	Owner(p.SigmaMin, 3, 2)
}
