package index

import (
	"fmt"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
)

// Parts is the raw material of an Index with its expensive derived
// state precomputed: the stable ids and inverted postings that freeze
// would otherwise re-hash and re-scan on every load. The v3 snapshot
// stores all of it verbatim, so a boot skips the id hashing (FNV over
// every set and pattern) and the posting construction (a pass over
// every set name and pattern vertex). The row tables arrive through
// the deferred Rows callback, and the pointer-shaped remainder — trie,
// id maps, patsOf — is built on the first lookup that needs it, so
// assembly stays O(postings), not O(sets).
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

	// Rows produces the canonical row tables; it is invoked exactly
	// once, on the first access to any of them. The callback must be
	// infallible — the caller validates the underlying bytes before
	// constructing the index — and its output must be aligned, fully
	// populated (every id non-empty) and sized NSets/NPatterns, the
	// table sizes that let postings be capacity-checked without
	// hydrating.
	Rows             func() Rows
	NSets, NPatterns int
}

// Rows is the canonical row-table bundle produced by Parts.Rows.
// PatVerts[i] holds the resolved vertex labels of Patterns[i]; the id
// tables are aligned with Sets and Patterns.
type Rows struct {
	Sets      []core.AttributeSet
	Patterns  []core.Pattern
	PatVerts  [][]string
	SetIDs    []string
	PatIDs    []string
	PatSetIDs []string
}

// FromParts assembles an Index from precomputed tables, validating
// posting capacities. Slices and sets are used by reference — views
// over a read-only mapping must outlive the index.
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
		nSets:        p.NSets,
		nPatterns:    p.NPatterns,
		hydrate:      p.Rows,
	}, nil
}

// PostingTables exposes the index's inverted postings by reference —
// attribute name → set indices and vertex label → pattern indices —
// for the snapshot writer. The caller must not modify the maps or the
// sets they hold.
func (x *Index) PostingTables() (attrPost, vertPost map[string]*bitset.Set) {
	return x.attrPost, x.vertPost
}
