package index

import (
	"slices"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// Rebuild constructs the index for a new mining result — typically an
// incremental Remine after a graph update — reusing this index's work
// for content that did not change.
//
// When the new result holds the same sets and patterns as this index,
// in the same order, only the rows differ (a graph update moves ExpEps
// and δ of every set), so the new index takes the new rows and shares
// every derived structure — ids, postings, id indexes, pattern lists —
// with this one, but not the ranked permutations (Ranked),
// which the new rows reorder. A Remine that changed neither list keeps
// its predecessor's core.ListID, so when res has the list id of the
// result this index was built from, that is known in O(1). An index
// assembled by FromParts, or built from a result res was not remined
// from, compares the lists set by set instead; a booted index
// materializes its row tables for that first. Otherwise both
// canonical lists are merge-joined, which are in core.CompareAttrs
// order, and stable set and pattern id strings and resolved pattern
// vertex-label slices of unchanged content are carried over instead of
// being re-hashed and re-resolved; the derived structures are rebuilt.
//
// Reuse is keyed on identity the update path guarantees stable —
// attribute ids, attribute names and vertex ids/labels are append-only
// across Graph.Apply — so a set or pattern with the same attribute ids
// (and, for patterns, the same vertex ids) is the same content and
// keeps the same id. g must be the graph res was mined from, and
// res.Sets must be in canonical order, as Build requires. Rebuild
// takes res's row tables by reference, so the caller must not modify
// them afterwards. The receiver is not modified, and may be queried
// while Rebuild runs.
func (x *Index) Rebuild(res *core.Result, g *graph.Graph) *Index {
	x.tables()  // a booted index's rows, which the merge reads and a share hands over
	x.derived() // what a share hands over
	nx := &Index{
		sets:         res.Sets,
		patterns:     res.Patterns,
		mining:       res.Stats,
		dsVertices:   g.NumVertices(),
		dsEdges:      g.NumEdges(),
		dsAttributes: g.NumAttributes(),
		list:         core.ListID(res),
	}
	if nx.list != 0 && nx.list == x.list || x.sameContent(res) {
		nx.nSets, nx.nPatterns = x.nSets, x.nPatterns
		nx.patVerts, nx.setIDs, nx.patIDs, nx.patSetIDs = x.patVerts, x.setIDs, x.patIDs, x.patSetIDs
		nx.attrPost, nx.vertPost = x.attrPost, x.vertPost
		nx.byID, nx.patByID, nx.patOrder, nx.patStart, nx.attrIDs = x.byID, x.patByID, x.patOrder, x.patStart, x.attrIDs
		nx.derivedOnce.Do(func() {})
		return nx
	}
	nx.patVerts = make([][]string, len(res.Patterns))
	nx.setIDs = make([]string, len(res.Sets))
	nx.patIDs = make([]string, len(res.Patterns))
	nx.patSetIDs = make([]string, len(res.Patterns))
	j := 0
	for i := range nx.sets {
		s := &nx.sets[i]
		for j < len(x.sets) && core.CompareAttrs(x.sets[j].Attrs, s.Attrs) < 0 {
			j++
		}
		if j < len(x.sets) && sameSlice(x.sets[j].Attrs, s.Attrs) && sameSlice(x.sets[j].Names, s.Names) {
			nx.setIDs[i] = x.setIDs[j]
		}
	}
	// Patterns group under their set; a group is at most k long, so it
	// is scanned for the same vertices.
	j = 0
	for i := range nx.patterns {
		p := &nx.patterns[i]
		for j < len(x.patterns) && core.CompareAttrs(x.patterns[j].Attrs, p.Attrs) < 0 {
			j++
		}
		for k := j; k < len(x.patterns) && sameSlice(x.patterns[k].Attrs, p.Attrs); k++ {
			if sameSlice(x.patterns[k].Vertices, p.Vertices) && sameSlice(x.patterns[k].Names, p.Names) {
				nx.patIDs[i], nx.patSetIDs[i], nx.patVerts[i] = x.patIDs[k], x.patSetIDs[k], x.patVerts[k]
				break
			}
		}
		if nx.patVerts[i] == nil {
			nx.patVerts[i] = p.VertexNames(g)
		}
	}
	nx.freeze()
	return nx
}

// sameContent reports whether res holds exactly this index's sets and
// patterns, in the same order: then every structure derived from them
// is the same too.
func (x *Index) sameContent(res *core.Result) bool {
	if len(res.Sets) != len(x.sets) || len(res.Patterns) != len(x.patterns) {
		return false
	}
	for i := range res.Sets {
		a, b := &res.Sets[i], &x.sets[i]
		if !sameSlice(a.Attrs, b.Attrs) || !sameSlice(a.Names, b.Names) {
			return false
		}
	}
	for i := range res.Patterns {
		a, b := &res.Patterns[i], &x.patterns[i]
		if !sameSlice(a.Attrs, b.Attrs) || !sameSlice(a.Names, b.Names) || !sameSlice(a.Vertices, b.Vertices) {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b hold the same elements. A Remine
// carries a row's Names and its patterns' slices over by reference, so
// those calls mostly decide on the shared backing array alone; a
// carried set's Attrs are a copy, so they are compared.
func sameSlice[T comparable](a, b []T) bool {
	if len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}
