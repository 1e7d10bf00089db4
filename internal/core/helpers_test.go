package core

import (
	"context"
	"slices"
	"testing"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/graph"
)

// mineBatch and mineNaiveBatch keep the pre-streaming test call sites
// readable: background context, no sink.
func mineBatch(g *graph.Graph, p Params) (*Result, error) {
	return Mine(context.Background(), g, p, nil)
}

func mineNaiveBatch(g *graph.Graph, p Params) (*Result, error) {
	return MineNaive(context.Background(), g, p, nil)
}

// latticeSets lists the attribute set, in Eclat order, of every node
// recorded in l, walking each subtree's children blocks from its root.
func latticeSets(l *Lattice) [][]int32 {
	var out [][]int32
	var walk func(t *latticeTree, i int32, prefix []int32)
	walk = func(t *latticeTree, i int32, prefix []int32) {
		first, kids := t.block(i)
		for k := range kids {
			attrs := append(slices.Clone(prefix), kids[k].attr)
			out = append(out, attrs)
			walk(t, first+int32(k), attrs)
		}
	}
	for _, t := range l.trees {
		if t != nil {
			walk(t, 0, []int32{t.nodes[0].attr})
		}
	}
	return out
}

// requireSameLattice checks that got records exactly what want does:
// the same subtrees, each node in the same place with the same
// evaluation — the lattice a Remine hands on must be the one a full
// Mine of the same graph records.
func requireSameLattice(t *testing.T, label string, got, want *Lattice) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: lattice missing (got %v, want %v)", label, got != nil, want != nil)
	}
	if len(got.trees) != len(want.trees) {
		t.Fatalf("%s: lattice has %d roots, want %d", label, len(got.trees), len(want.trees))
	}
	for a := range want.trees {
		gt, wt := got.trees[a], want.trees[a]
		if (gt == nil) != (wt == nil) {
			t.Fatalf("%s: root %d recorded %v, want %v", label, a, gt != nil, wt != nil)
		}
		if wt == nil {
			continue
		}
		if len(gt.nodes) != len(wt.nodes) {
			t.Fatalf("%s: root %d has %d nodes, want %d", label, a, len(gt.nodes), len(wt.nodes))
		}
		for i := range wt.nodes {
			gn, wn := gt.nodes[i], wt.nodes[i]
			gn.extra, wn.extra = min(gn.extra, 0), min(wn.extra, 0)
			if gn != wn {
				t.Fatalf("%s: root %d node %d\ngot:  %+v\nwant: %+v", label, a, i, gn, wn)
			}
			ge, we := gt.evaluation(int32(i), 0, nil), wt.evaluation(int32(i), 0, nil)
			if !sameSet(ge.Handdown, we.Handdown) || !sameSet(ge.Exact, we.Exact) ||
				ge.HasPatterns != we.HasPatterns || len(ge.Patterns) != len(we.Patterns) ||
				ge.Estimated != we.Estimated || ge.SampledVertices != we.SampledVertices || ge.ErrBound != we.ErrBound {
				t.Fatalf("%s: root %d node %d evaluation\ngot:  %+v\nwant: %+v", label, a, i, ge, we)
			}
			for k := range we.Patterns {
				if !slices.Equal(ge.Patterns[k].Vertices, we.Patterns[k].Vertices) {
					t.Fatalf("%s: root %d node %d pattern %d differs", label, a, i, k)
				}
			}
		}
	}
}

// sameSet reports whether two possibly nil sets hold the same elements.
func sameSet(a, b *bitset.Set) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Slice(), b.Slice())
}
