// Package index is the read-optimized pattern-serving layer of SCPM: an
// immutable Index built once from a mining Result (plus the graph that
// produced it) and then queried concurrently — by stable id, by
// attribute containment, by subset/superset relation over the
// attribute-set trie, by vertex membership over inverted postings, or
// as a top-k ranking.
//
// The Index is self-contained: every name it serves (attribute names,
// vertex labels) is resolved at build time, so it answers every lookup
// without consulting the originating graph. Derived structures (trie,
// postings, id maps) are rebuilt deterministically from the canonical
// set/pattern tables.
package index

import (
	"sort"
	"sync"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// Index is an immutable, concurrently-queryable view of one mining
// run's output. Build one with Build, or assemble one from a v3
// snapshot's tables with FromParts; all methods are safe for concurrent
// use.
type Index struct {
	// Canonical tables, in Result order (sets by size then
	// lexicographic attribute ids; patterns grouped per set). When
	// hydrate is non-nil they start empty and are filled exactly once,
	// on first access — route every read through tables(). nSets and
	// nPatterns always hold the table sizes, hydrated or not.
	sets      []core.AttributeSet
	patterns  []core.Pattern
	nSets     int
	nPatterns int
	// patVerts[i] holds the resolved vertex labels of patterns[i],
	// aligned with Pattern.Vertices.
	patVerts [][]string
	// hydrate defers the row-table fill for lazily assembled indexes
	// (Parts.Rows); nil everywhere else.
	hydrate  func() Rows
	rowsOnce sync.Once
	// mining carries the run counters of the producing Result.
	mining core.Stats
	// dsVertices/dsEdges/dsAttributes record the shape of the graph the
	// result was mined from, so the snapshot writer can refuse to pair
	// the index with a different graph.
	dsVertices   int
	dsEdges      int
	dsAttributes int

	// Derived structures, rebuilt deterministically on Build.
	setIDs    []string // setIDs[i] = sets[i].ID()
	patIDs    []string // patIDs[i] = patterns[i].ID()
	patSetIDs []string // patSetIDs[i] = patterns[i].SetID()

	// Pointer-shaped lookup structures, built from the canonical tables
	// by buildDerived. Build pays for them up front; an index assembled
	// by FromParts (the snapshot boot path) defers them to the first
	// query that needs one, so opening a snapshot stays O(sections)
	// instead of O(sets). Access only through derived().
	derivedOnce sync.Once
	byID        map[string]int32 // set id → sets index
	patByID     map[string]int32 // pattern id → patterns index
	patsOf      [][]int32        // sets index → patterns indices, in order
	root        *trieNode        // attribute-set trie over sorted attr ids
	attrIDs     map[string]int32 // attribute name → id (for trie walks)

	// Inverted postings on the shared bitset machinery.
	attrPost map[string]*bitset.Set // attribute name → set indices
	vertPost map[string]*bitset.Set // vertex label → pattern indices
}

// Build constructs an Index from a mining result. The graph must be the
// one res was mined from — it resolves pattern vertex ids to labels so
// the index (and its snapshots) are self-contained. res is not retained;
// its tables are copied.
func Build(res *core.Result, g *graph.Graph) *Index {
	x := &Index{
		sets:         append([]core.AttributeSet(nil), res.Sets...),
		patterns:     append([]core.Pattern(nil), res.Patterns...),
		patVerts:     make([][]string, len(res.Patterns)),
		mining:       res.Stats,
		dsVertices:   g.NumVertices(),
		dsEdges:      g.NumEdges(),
		dsAttributes: g.NumAttributes(),
	}
	for i, p := range x.patterns {
		x.patVerts[i] = p.VertexNames(g)
	}
	x.freeze()
	return x
}

// freeze rebuilds every derived structure from the canonical tables.
// It runs after Build copies a Result and after Rebuild matches donor
// content; both paths converge here, so
// every index answers queries identically however it was constructed.
// Pre-filled (non-empty) id entries are kept — that is how Rebuild
// carries interned ids over — and only missing ones are hashed.
// freeze may only run on a freshly constructed Index (its derivedOnce
// must not have fired).
func (x *Index) freeze() {
	x.nSets = len(x.sets)
	x.nPatterns = len(x.patterns)
	if x.setIDs == nil {
		x.setIDs = make([]string, len(x.sets))
	}
	x.attrPost = make(map[string]*bitset.Set)
	for i := range x.sets {
		s := &x.sets[i]
		if x.setIDs[i] == "" {
			x.setIDs[i] = s.ID()
		}
		for _, name := range s.Names {
			post := x.attrPost[name]
			if post == nil {
				post = bitset.New(len(x.sets))
				x.attrPost[name] = post
			}
			post.Add(i)
		}
	}

	if x.patIDs == nil {
		x.patIDs = make([]string, len(x.patterns))
	}
	if x.patSetIDs == nil {
		x.patSetIDs = make([]string, len(x.patterns))
	}
	x.vertPost = make(map[string]*bitset.Set)
	for i := range x.patterns {
		p := &x.patterns[i]
		if x.patIDs[i] == "" {
			x.patIDs[i] = p.ID()
		}
		if x.patSetIDs[i] == "" {
			x.patSetIDs[i] = p.SetID()
		}
		for _, label := range x.patVerts[i] {
			post := x.vertPost[label]
			if post == nil {
				post = bitset.New(len(x.patterns))
				x.vertPost[label] = post
			}
			post.Add(i)
		}
	}
	x.derived()
}

// derived builds the pointer-shaped lookup structures (id maps, trie,
// per-set pattern lists) exactly once. Build and Rebuild call it eagerly;
// a lazily assembled index pays on the first lookup that needs one.
// Safe for concurrent use — callers may race on a cold index and block
// behind one build.
func (x *Index) derived() { x.derivedOnce.Do(x.buildDerived) }

// tables fills the canonical row tables of a lazily assembled index on
// first use. A no-op (one nil check) everywhere else. Safe for
// concurrent use.
func (x *Index) tables() {
	if x.hydrate == nil {
		return
	}
	x.rowsOnce.Do(func() {
		r := x.hydrate()
		x.sets = r.Sets
		x.patterns = r.Patterns
		x.patVerts = r.PatVerts
		x.setIDs = r.SetIDs
		x.patIDs = r.PatIDs
		x.patSetIDs = r.PatSetIDs
	})
}

func (x *Index) buildDerived() {
	x.tables()
	x.byID = make(map[string]int32, len(x.sets))
	x.root = &trieNode{set: -1}
	x.attrIDs = make(map[string]int32)
	for i := range x.sets {
		s := &x.sets[i]
		x.byID[x.setIDs[i]] = int32(i)
		x.root.insert(s.Attrs, int32(i))
		for j, name := range s.Names {
			x.attrIDs[name] = s.Attrs[j]
		}
	}
	x.patByID = make(map[string]int32, len(x.patterns))
	x.patsOf = make([][]int32, len(x.sets))
	for i := range x.patterns {
		x.patByID[x.patIDs[i]] = int32(i)
		if si, ok := x.byID[x.patSetIDs[i]]; ok {
			x.patsOf[si] = append(x.patsOf[si], int32(i))
		}
	}
}

// NumSets returns the number of indexed attribute sets.
func (x *Index) NumSets() int { return x.nSets }

// NumPatterns returns the number of indexed patterns.
func (x *Index) NumPatterns() int { return x.nPatterns }

// MiningStats returns the run counters of the producing mining run.
func (x *Index) MiningStats() core.Stats { return x.mining }

// DatasetShape returns the |V|, |E|, |A| of the graph the indexed
// result was mined from — recorded at build time and carried through
// snapshots, so the snapshot writer can refuse to pair the index with
// the wrong graph.
func (x *Index) DatasetShape() (vertices, edges, attributes int) {
	return x.dsVertices, x.dsEdges, x.dsAttributes
}

// Sets returns the indexed attribute sets in canonical order. The
// caller must not modify the returned slice.
func (x *Index) Sets() []core.AttributeSet {
	x.tables()
	return x.sets
}

// Patterns returns the indexed patterns in canonical order. The caller
// must not modify the returned slice.
func (x *Index) Patterns() []core.Pattern {
	x.tables()
	return x.patterns
}

// SetID returns the stable id of the i-th indexed set.
func (x *Index) SetID(i int) string {
	x.tables()
	return x.setIDs[i]
}

// PatternID returns the stable id of the i-th indexed pattern.
func (x *Index) PatternID(i int) string {
	x.tables()
	return x.patIDs[i]
}

// PatternSetID returns the stable id of the set owning the i-th
// indexed pattern, precomputed at build time so render paths never
// re-hash per request.
func (x *Index) PatternSetID(i int) string {
	x.tables()
	return x.patSetIDs[i]
}

// SetIndexByID returns the index of the set with the given stable id,
// or -1.
func (x *Index) SetIndexByID(id string) int {
	x.derived()
	i, ok := x.byID[id]
	if !ok {
		return -1
	}
	return int(i)
}

// PatternsOfSetByIndex returns the pattern indices of the i-th indexed
// set, in canonical order. The caller must not modify the returned
// slice.
func (x *Index) PatternsOfSetByIndex(i int) []int32 {
	x.derived()
	return x.patsOf[i]
}

// PatternVertexNames returns the resolved vertex labels of the i-th
// indexed pattern, aligned with its Vertices. The caller must not
// modify the returned slice.
func (x *Index) PatternVertexNames(i int) []string {
	x.tables()
	return x.patVerts[i]
}

// SetByID finds an attribute set by its stable id.
func (x *Index) SetByID(id string) (core.AttributeSet, bool) {
	x.derived()
	i, ok := x.byID[id]
	if !ok {
		return core.AttributeSet{}, false
	}
	return x.sets[i], true
}

// PatternByID finds a pattern by its stable id.
func (x *Index) PatternByID(id string) (core.Pattern, bool) {
	x.derived()
	i, ok := x.patByID[id]
	if !ok {
		return core.Pattern{}, false
	}
	return x.patterns[i], true
}

// PatternsOfSet returns the indices of the patterns mined for the set
// with the given stable id, in canonical order. The caller must not
// modify the returned slice.
func (x *Index) PatternsOfSet(id string) []int32 {
	x.derived()
	i, ok := x.byID[id]
	if !ok {
		return nil
	}
	return x.patsOf[i]
}

// attrSet resolves attribute names to their sorted canonical ids. ok is
// false when any name never occurs in an indexed set — no indexed set
// can match it, whatever the relation.
func (x *Index) attrSet(names []string) (attrs []int32, ok bool) {
	x.derived()
	attrs = make([]int32, 0, len(names))
	for _, n := range names {
		id, found := x.attrIDs[n]
		if !found {
			return nil, false
		}
		attrs = append(attrs, id)
	}
	sortDedup(&attrs)
	return attrs, true
}

// Exact returns the index of the set whose attributes are exactly the
// given names (any order), or -1.
func (x *Index) Exact(names []string) int {
	attrs, ok := x.attrSet(names)
	if !ok {
		return -1
	}
	return int(x.root.exact(attrs))
}

// Supersets returns the indices of every indexed set that contains all
// of the given attribute names (S ⊇ query), ascending. An empty query
// matches every set.
func (x *Index) Supersets(names []string) []int {
	attrs, ok := x.attrSet(names)
	if !ok {
		return nil
	}
	var out []int
	x.root.supersets(attrs, func(set int32) { out = append(out, int(set)) })
	sort.Ints(out) // trie walks run in path order; callers get index order
	return out
}

// Subsets returns the indices of every indexed set whose attributes are
// all among the given names (S ⊆ query), ascending.
func (x *Index) Subsets(names []string) []int {
	x.derived()
	attrs := make([]int32, 0, len(names))
	for _, n := range names {
		// Names the index has never seen simply cannot contribute
		// attributes; a subset query ignores them instead of failing.
		if id, ok := x.attrIDs[n]; ok {
			attrs = append(attrs, id)
		}
	}
	sortDedup(&attrs)
	var out []int
	x.root.subsets(attrs, func(set int32) { out = append(out, int(set)) })
	sort.Ints(out)
	return out
}

// WithAttr returns the indices of the sets containing the named
// attribute, ascending — the inverted-posting fast path of the
// one-attribute containment query.
func (x *Index) WithAttr(name string) []int {
	post := x.attrPost[name]
	if post == nil {
		return nil
	}
	out := make([]int, 0, post.Count())
	post.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// PatternsWithVertex returns the indices of the patterns containing the
// labeled vertex, ascending.
func (x *Index) PatternsWithVertex(label string) []int {
	post := x.vertPost[label]
	if post == nil {
		return nil
	}
	out := make([]int, 0, post.Count())
	post.ForEach(func(i int) bool { out = append(out, i); return true })
	return out
}

// HasVertex reports whether the labeled vertex occurs in any indexed
// pattern.
func (x *Index) HasVertex(label string) bool { return x.vertPost[label] != nil }

// TopSets returns the n best indexed sets under the given ranking
// (σ, ε or δ), like the paper's case-study tables.
func (x *Index) TopSets(r core.Ranking, n int) []core.AttributeSet {
	x.tables()
	return core.TopSets(x.sets, r, n)
}

// Stats summarizes the index shape.
type Stats struct {
	// Sets and Patterns count the indexed tables.
	Sets     int
	Patterns int
	// Attributes counts distinct attribute names across indexed sets.
	Attributes int
	// PatternVertices counts distinct vertex labels across patterns.
	PatternVertices int
	// Mining carries the producing run's counters.
	Mining core.Stats
}

// Stats returns the index shape summary.
func (x *Index) Stats() Stats {
	return Stats{
		Sets:            x.nSets,
		Patterns:        x.nPatterns,
		Attributes:      len(x.attrPost),
		PatternVertices: len(x.vertPost),
		Mining:          x.mining,
	}
}
