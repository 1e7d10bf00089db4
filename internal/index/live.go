package index

import (
	"slices"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// Rebuild constructs the index for a new mining result — typically an
// incremental Remine after a graph update — reusing this index's
// interned work for content that did not change: stable set and
// pattern id strings and resolved pattern vertex-label slices are
// carried over instead of being re-hashed and re-resolved, so a small
// delta re-interns only what it actually touched.
//
// Reuse is keyed on identity the update path guarantees stable —
// attribute ids, attribute names and vertex ids/labels are append-only
// across Graph.Apply — so a set or pattern with the same attribute ids
// (and, for patterns, the same vertex ids) is the same content and
// keeps the same id. g must be the graph res was mined from; the
// receiver is not modified.
func (x *Index) Rebuild(res *core.Result, g *graph.Graph) *Index {
	x.derived() // reuse walks the trie and patsOf; also hydrates lazy row tables
	nx := &Index{
		sets:         append([]core.AttributeSet(nil), res.Sets...),
		patterns:     append([]core.Pattern(nil), res.Patterns...),
		patVerts:     make([][]string, len(res.Patterns)),
		mining:       res.Stats,
		dsVertices:   g.NumVertices(),
		dsEdges:      g.NumEdges(),
		dsAttributes: g.NumAttributes(),
		setIDs:       make([]string, len(res.Sets)),
		patIDs:       make([]string, len(res.Patterns)),
		patSetIDs:    make([]string, len(res.Patterns)),
	}
	for i := range nx.sets {
		s := &nx.sets[i]
		if j := x.root.exact(s.Attrs); j >= 0 && slices.Equal(x.sets[j].Names, s.Names) {
			nx.setIDs[i] = x.setIDs[j]
		}
	}
	for i := range nx.patterns {
		p := &nx.patterns[i]
		if j := x.root.exact(p.Attrs); j >= 0 && slices.Equal(x.sets[j].Names, p.Names) {
			for _, pj := range x.patsOf[j] {
				if slices.Equal(x.patterns[pj].Vertices, p.Vertices) {
					nx.patIDs[i] = x.patIDs[pj]
					nx.patSetIDs[i] = x.patSetIDs[pj]
					nx.patVerts[i] = x.patVerts[pj]
					break
				}
			}
		}
		if nx.patVerts[i] == nil {
			nx.patVerts[i] = p.VertexNames(g)
		}
	}
	nx.freeze()
	return nx
}
