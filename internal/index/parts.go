package index

import (
	"fmt"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
)

// Parts is the raw material of an Index booted from a v3 snapshot: the
// snapshot's columns, which it reads its rows from one at a time, plus
// the derived state the snapshot stores precomputed — the stable ids
// (inside the columns) and the inverted postings that freeze would
// otherwise re-hash and re-scan on every load. The remaining lookup
// structures — id indexes and per-set pattern lists — are built on the
// first lookup that needs them, and the row tables only when Sets,
// Patterns or Rebuild needs them whole, so assembly stays
// O(postings), not O(sets).
type Parts struct {
	Mining core.Stats
	// Dataset shape of the producing graph (DatasetShape).
	DSVertices   int
	DSEdges      int
	DSAttributes int

	// Precomputed inverted postings: attribute name → set indices
	// (capacity NSets) and vertex label → pattern indices (capacity
	// NPatterns).
	AttrPost map[string]*bitset.Set
	VertPost map[string]*bitset.Set
	// AttrIDs maps every attribute name keying AttrPost to its
	// attribute id.
	AttrIDs map[string]int32

	// Columns reads the rows of the NSets sets and NPatterns patterns,
	// the table sizes that let postings be capacity-checked without
	// reading a row. Sets should be in canonical order, as Build
	// requires; Exact and Subsets on a table out of order stay in bounds
	// but may answer wrongly.
	Columns          Columns
	NSets, NPatterns int
}

// Columns reads single rows of a set and a pattern table straight from
// column views. Its methods must be infallible for every set index
// below Parts.NSets and pattern index below Parts.NPatterns — the
// caller validates the underlying bytes before constructing the index
// — must not allocate, and must be safe for concurrent use.
type Columns interface {
	// Set returns set i without its Names.
	Set(i int) core.AttributeSet
	// Scores returns the numbers of set i that a ranking compares
	// (core.Ranking.Compare), without decoding the rest of the row.
	Scores(i int) (support int, epsilon, delta float64)
	// SetID returns the stable id of set i.
	SetID(i int) string
	// Pattern returns pattern i without its Names.
	Pattern(i int) core.Pattern
	// PatternID returns the stable id of pattern i.
	PatternID(i int) string
	// PatternSetID returns the stable id of the set owning pattern i.
	PatternSetID(i int) string
	// AttrName resolves an attribute id of a row.
	AttrName(a int32) string
	// VertexName resolves a vertex id of a pattern.
	VertexName(v int32) string
}

// FromParts assembles an Index over a snapshot's columns, validating
// posting capacities. Slices, sets and the columns are used by
// reference — views over a read-only mapping must outlive the index.
func FromParts(p Parts) (*Index, error) {
	for name, post := range p.AttrPost {
		if post.Len() != p.NSets {
			return nil, fmt.Errorf("index: attribute posting %q has capacity %d, want %d", name, post.Len(), p.NSets)
		}
	}
	for label, post := range p.VertPost {
		if post.Len() != p.NPatterns {
			return nil, fmt.Errorf("index: vertex posting %q has capacity %d, want %d", label, post.Len(), p.NPatterns)
		}
	}
	return &Index{
		mining:       p.Mining,
		dsVertices:   p.DSVertices,
		dsEdges:      p.DSEdges,
		dsAttributes: p.DSAttributes,
		attrPost:     p.AttrPost,
		vertPost:     p.VertPost,
		attrIDs:      p.AttrIDs,
		nSets:        p.NSets,
		nPatterns:    p.NPatterns,
		cols:         p.Columns,
	}, nil
}

// PostingTables exposes the index's inverted postings by reference —
// attribute name → set indices and vertex label → pattern indices —
// for the snapshot writer. The caller must not modify the maps or the
// sets they hold.
func (x *Index) PostingTables() (attrPost, vertPost map[string]*bitset.Set) {
	return x.attrPost, x.vertPost
}
