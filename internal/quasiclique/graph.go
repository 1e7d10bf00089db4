package quasiclique

import (
	"slices"

	"github.com/scpm/scpm/internal/bitset"
)

// Graph is the miner's view of an undirected graph: dense vertex ids
// 0..n−1 with sorted adjacency stored in compressed-sparse-row (CSR)
// form — one flat neighbor arena plus an offsets array. It is typically
// a zero-copy view of an induced subgraph of the attributed graph (see
// NewGraphCSR).
type Graph struct {
	// CSR adjacency: the neighbors of v are nbrs[off[v]:off[v+1]],
	// sorted ascending, with len(off) = n+1.
	off  []int64
	nbrs []int32
	n    int
}

// NewGraph builds a Graph from per-vertex adjacency slices (which must
// be sorted ascending, self-loop free and symmetric), flattening them
// into CSR form. Prefer NewGraphCSR when the caller already holds a CSR
// backbone — that constructor is allocation-free.
func NewGraph(adj [][]int32) *Graph {
	n := len(adj)
	off := make([]int64, n+1)
	for v, a := range adj {
		off[v+1] = off[v] + int64(len(a))
	}
	nbrs := make([]int32, off[n])
	for v, a := range adj {
		copy(nbrs[off[v]:off[v+1]], a)
	}
	return &Graph{off: off, nbrs: nbrs, n: n}
}

// NewGraphCSR wraps an existing CSR adjacency by reference: offsets has
// length n+1 and the neighbors of v occupy neighbors[offsets[v]:
// offsets[v+1]], sorted ascending, self-loop free and symmetric. The
// slices are shared, not copied; the caller must not modify them while
// the Graph is in use. Both graph.Graph.CSR and graph.Subgraph.CSR
// produce arguments in exactly this shape.
func NewGraphCSR(offsets []int64, neighbors []int32) *Graph {
	if len(offsets) == 0 {
		return &Graph{off: []int64{0}, n: 0}
	}
	return &Graph{off: offsets, nbrs: neighbors, n: len(offsets) - 1}
}

// NumVertices returns n.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return int(g.off[g.n]) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor list of v as a view into the
// CSR arena. The caller must not modify the returned slice.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.nbrs[g.off[v]:g.off[v+1]:g.off[v+1]]
}

// neighbors is the internal hot-path accessor (no defensive slice cap).
func (g *Graph) neighbors(v int32) []int32 {
	return g.nbrs[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether {u,v} is an edge, by binary search over u's
// sorted neighbor range.
func (g *Graph) HasEdge(u, v int32) bool {
	_, ok := slices.BinarySearch(g.neighbors(u), v)
	return ok
}

// isQuasiClique reports whether the vertex set (given both as a sorted
// slice and as a bitset) satisfies the degree constraint for its size.
// It does NOT check min-size or maximality.
func (g *Graph) isQuasiClique(set []int32, inSet *bitset.Set, p Params) bool {
	need := p.MinDegree(len(set))
	for _, v := range set {
		if g.Degree(v) < need {
			return false
		}
		d := 0
		for _, u := range g.neighbors(v) {
			if inSet.Contains(int(u)) {
				d++
				if d >= need {
					break
				}
			}
		}
		if d < need {
			return false
		}
	}
	return true
}

// degreesWithin fills degs[i] with |N(set[i]) ∩ set|.
func (g *Graph) degreesWithin(set []int32, inSet *bitset.Set, degs []int) {
	for i, v := range set {
		d := 0
		for _, u := range g.neighbors(v) {
			if inSet.Contains(int(u)) {
				d++
			}
		}
		degs[i] = d
	}
}

// extendable reports whether some vertex u ∉ set (u alive) makes
// set ∪ {u} satisfy the quasi-clique degree constraint. Used as the
// local-maximality test when reporting patterns. scratch must have
// capacity ≥ len(set); it is overwritten (callers pass a reusable
// per-engine buffer to keep this allocation-free).
func (g *Graph) extendable(set []int32, inSet, alive *bitset.Set, p Params, scratch []int) bool {
	need := p.MinDegree(len(set) + 1)
	degs := scratch[:len(set)]
	g.degreesWithin(set, inSet, degs)
	for u := alive.NextSet(0); u >= 0; u = alive.NextSet(u + 1) {
		if inSet.Contains(u) {
			continue
		}
		// u itself needs `need` neighbors inside set.
		du := 0
		for _, w := range g.neighbors(int32(u)) {
			if inSet.Contains(int(w)) {
				du++
			}
		}
		if du < need {
			continue
		}
		// every existing member must reach `need` too, counting a
		// possible edge to u.
		ok := true
		for i, v := range set {
			d := degs[i]
			if g.HasEdge(v, int32(u)) {
				d++
			}
			if d < need {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
