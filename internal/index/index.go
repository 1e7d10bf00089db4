// Package index is the read-optimized pattern-serving layer of SCPM: an
// immutable Index built once from a mining Result (plus the graph that
// produced it) and then queried concurrently — by stable id, by
// attribute containment over inverted postings, by exact match and
// subset relation over the canonical set table, by vertex membership
// over inverted postings, or as a top-k ranking.
//
// The Index is self-contained: every name it serves (attribute names,
// vertex labels) is resolved at build time or, on an index booted from
// a snapshot, read from the snapshot's own name tables, so it answers
// every lookup without consulting the originating graph. Derived
// structures (postings, id indexes) are rebuilt deterministically from
// the canonical set/pattern tables.
package index

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// Index is an immutable, concurrently-queryable view of one mining
// run's output. Build one with Build, or assemble one over a v3
// snapshot's columns with FromParts; all methods are safe for
// concurrent use.
type Index struct {
	// Canonical tables, in Result order (sets strictly ascending by
	// core.CompareAttrs — size, then ascending ids — each set's ids
	// ascending; patterns grouped per set). Exact and Subsets search
	// the set table in that order. nSets and nPatterns always hold the
	// table sizes.
	sets      []core.AttributeSet
	patterns  []core.Pattern
	nSets     int
	nPatterns int
	// patVerts[i] holds the resolved vertex labels of patterns[i],
	// aligned with Pattern.Vertices.
	patVerts [][]string
	// cols is the row source of an index booted by FromParts; nil on a
	// built one. Every method but Sets, Patterns and Rebuild reads a
	// booted index's rows from cols, one row at a time. The row and id
	// tables above stay empty until one of those three fills them,
	// exactly once (tables).
	cols     Columns
	rowsOnce sync.Once
	// mining carries the run counters of the producing Result.
	mining core.Stats
	// dsVertices/dsEdges/dsAttributes record the shape of the graph the
	// result was mined from, so the snapshot writer can refuse to pair
	// the index with a different graph.
	dsVertices   int
	dsEdges      int
	dsAttributes int
	// list is the core.ListID of the result the index was built from,
	// 0 for one assembled by FromParts.
	list uint64

	// Id tables and attribute ids, rebuilt deterministically on Build;
	// a booted index reads its ids from cols and takes attrIDs from
	// Parts.
	setIDs    []string         // setIDs[i] = sets[i].ID()
	patIDs    []string         // patIDs[i] = patterns[i].ID()
	patSetIDs []string         // patSetIDs[i] = patterns[i].SetID()
	attrIDs   map[string]int32 // attribute name → id (for set table searches)

	// Lookup structures, built from the ids by buildDerived. Build pays
	// for them up front; an index assembled by FromParts (the snapshot
	// boot path) defers them to the first query that needs one, so
	// opening a snapshot stays O(sections) instead of O(sets). Access
	// only through derived().
	derivedOnce sync.Once
	byID        idIndex // set id → sets index
	patByID     idIndex // pattern id → patterns index
	// The patterns of set i are patOrder[patStart[i]:patStart[i+1]],
	// in order.
	patOrder, patStart []int32

	// Inverted postings on the shared bitset machinery.
	attrPost map[string]*bitset.Set // attribute name → set indices
	vertPost map[string]*bitset.Set // vertex label → pattern indices

	// ranked[r] is the permutation of the set indices under ranking r,
	// built on first use by Ranked.
	ranked [core.ByDelta + 1]struct {
		once sync.Once
		perm []int32
	}
}

// Build constructs an Index from a mining result. The graph must be the
// one res was mined from — it resolves pattern vertex ids to labels so
// the index (and its snapshots) are self-contained. res.Sets must be in
// canonical order, as Mine, Remine and MergeResults produce it. Build
// is Rebuild from an empty index, so it takes res's row tables by
// reference: the caller must not modify them afterwards.
func Build(res *core.Result, g *graph.Graph) *Index {
	return new(Index).Rebuild(res, g)
}

// freeze rebuilds every derived structure from the canonical tables.
// It runs after Rebuild matches donor content — Build included, whose
// donor is empty — so every index answers queries identically however
// it was constructed.
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
	x.attrIDs = make(map[string]int32)
	var byAttr []*bitset.Set // the postings by attribute id
	for i := range x.sets {
		s := &x.sets[i]
		for j, a := range s.Attrs {
			if int(a) >= len(byAttr) {
				byAttr = slices.Grow(byAttr, int(a)+1-len(byAttr))[:a+1]
			}
			post := byAttr[a]
			if post == nil {
				post = bitset.New(len(x.sets))
				byAttr[a] = post
				x.attrPost[s.Names[j]] = post
				x.attrIDs[s.Names[j]] = a
			}
			post.Add(i)
		}
	}
	setIDs(x.sets, x.setIDs, len(byAttr))

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

// setIDs fills every empty ids[i] with sets[i].ID(), whose attribute
// ids are below nAttrs. SetID hashes a set's names in sorted order, and
// every set names an id the same way, so the names are sorted once, as
// a rank per attribute id, and each set's ids are ordered by rank with
// no string comparison.
func setIDs(sets []core.AttributeSet, ids []string, nAttrs int) {
	names := make([]string, nAttrs)
	seen := make([]bool, nAttrs)
	for i := range sets {
		for j, a := range sets[i].Attrs {
			names[a], seen[a] = sets[i].Names[j], true
		}
	}
	byName := make([]int32, 0, nAttrs)
	for a, ok := range seen {
		if ok {
			byName = append(byName, int32(a))
		}
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int32, nAttrs)
	for r, a := range byName {
		rank[a] = int32(r)
	}
	var buf [16]string
	var ranks [16]int32
	for i := range sets {
		if ids[i] != "" {
			continue
		}
		attrs := sets[i].Attrs
		if len(attrs) > len(buf) {
			ids[i] = sets[i].ID()
			continue
		}
		// Insertion by rank: a set has a handful of ids.
		for k, a := range attrs {
			r, j := rank[a], k
			for ; j > 0 && ranks[j-1] > r; j-- {
				ranks[j], buf[j] = ranks[j-1], buf[j-1]
			}
			ranks[j], buf[j] = r, names[a]
		}
		ids[i] = core.SetIDSorted(buf[:len(attrs)])
	}
}

// derived builds the lookup structures (id indexes, per-set pattern
// lists) exactly once. Build and Rebuild call it eagerly; a booted
// index pays on the first lookup that needs one.
// Safe for concurrent use — callers may race on a cold index and block
// behind one build.
func (x *Index) derived() { x.derivedOnce.Do(x.buildDerived) }

func (x *Index) buildDerived() {
	x.byID = newIDIndex(x.nSets, x.SetID)
	x.patByID = newIDIndex(x.nPatterns, x.PatternID)
	// A counting sort groups the pattern indices by set, in order.
	owner := make([]int32, x.nPatterns)
	x.patStart = make([]int32, x.nSets+1)
	for i := range owner {
		if owner[i] = x.byID.find(x.SetID, x.PatternSetID(i)); owner[i] >= 0 {
			x.patStart[owner[i]+1]++
		}
	}
	for i := range x.nSets {
		x.patStart[i+1] += x.patStart[i]
	}
	x.patOrder = make([]int32, x.patStart[x.nSets])
	next := slices.Clone(x.patStart[:x.nSets])
	for i, si := range owner {
		if si >= 0 {
			x.patOrder[next[si]] = int32(i)
			next[si]++
		}
	}
}

// tables fills the row and id tables of a booted index from its
// columns, once, for the callers that need them whole: Sets, Patterns
// and Rebuild. A no-op (one nil check) on a built index. Safe for
// concurrent use.
func (x *Index) tables() {
	if x.cols == nil {
		return
	}
	x.rowsOnce.Do(x.fill)
}

// fill materializes the row tables over the columns: attribute names
// and vertex labels resolved exactly once, into arenas the per-row
// slices alias, and id strings as the columns give them. It is the
// O(sets) part of a snapshot boot.
func (x *Index) fill() {
	c := x.cols
	sets := make([]core.AttributeSet, x.nSets)
	setIDs := make([]string, x.nSets)
	n := 0
	for i := range sets {
		sets[i], setIDs[i] = c.Set(i), c.SetID(i)
		n += len(sets[i].Attrs)
	}
	setNames := make([]string, 0, n)
	for i := range sets {
		sets[i].Names, setNames = resolve(setNames, sets[i].Attrs, c.AttrName)
	}

	pats := make([]core.Pattern, x.nPatterns)
	patVerts := make([][]string, x.nPatterns)
	patIDs := make([]string, x.nPatterns)
	patSetIDs := make([]string, x.nPatterns)
	na, nv := 0, 0
	for i := range pats {
		pats[i], patIDs[i], patSetIDs[i] = c.Pattern(i), c.PatternID(i), c.PatternSetID(i)
		na += len(pats[i].Attrs)
		nv += len(pats[i].Vertices)
	}
	patNames := make([]string, 0, na)
	patLabels := make([]string, 0, nv)
	for i := range pats {
		pats[i].Names, patNames = resolve(patNames, pats[i].Attrs, c.AttrName)
		patVerts[i], patLabels = resolve(patLabels, pats[i].Vertices, c.VertexName)
	}
	x.sets, x.setIDs = sets, setIDs
	x.patterns, x.patVerts, x.patIDs, x.patSetIDs = pats, patVerts, patIDs, patSetIDs
}

// resolve appends the name of every id to arena and returns the
// appended part, capped, with the grown arena.
func resolve(arena []string, ids []int32, name func(int32) string) (names, grown []string) {
	lo := len(arena)
	for _, id := range ids {
		arena = append(arena, name(id))
	}
	return arena[lo:len(arena):len(arena)], arena
}

// row returns the i-th indexed set. On a booted index it is decoded
// from the columns without its Names — the read of every lookup that
// needs only attribute ids and numbers.
func (x *Index) row(i int) core.AttributeSet {
	if x.cols != nil {
		return x.cols.Set(i)
	}
	return x.sets[i]
}

// resolveAll returns the name of every id, in a slice of its own.
func resolveAll(ids []int32, name func(int32) string) []string {
	names, _ := resolve(make([]string, 0, len(ids)), ids, name)
	return names
}

// patsOf returns the pattern indices of set i, in order; nil when it
// has none.
func (x *Index) patsOf(i int) []int32 {
	if x.patStart[i] == x.patStart[i+1] {
		return nil
	}
	return x.patOrder[x.patStart[i]:x.patStart[i+1]:x.patStart[i+1]]
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
// caller must not modify the returned slice. On a booted index the
// first call materializes the whole row table; a caller that reads a
// few rows should use Set.
func (x *Index) Sets() []core.AttributeSet {
	x.tables()
	return x.sets
}

// Patterns returns the indexed patterns in canonical order. The caller
// must not modify the returned slice. On a booted index the first call
// materializes the whole row table; a caller that reads a few rows
// should use Pattern.
func (x *Index) Patterns() []core.Pattern {
	x.tables()
	return x.patterns
}

// Set returns the i-th indexed set. On a booted index the row is read
// from the snapshot's columns and its Names slice, the read's only
// allocation, is resolved anew on every call. The caller must not
// modify the returned slices.
func (x *Index) Set(i int) core.AttributeSet {
	if x.cols == nil {
		return x.sets[i]
	}
	s := x.cols.Set(i)
	s.Names = resolveAll(s.Attrs, x.cols.AttrName)
	return s
}

// Scores returns the numbers of the i-th indexed set that a ranking
// compares (core.Ranking.Compare) and the /sets thresholds filter on.
// It never allocates: a booted index decodes them alone.
func (x *Index) Scores(i int) (support int, epsilon, delta float64) {
	if x.cols != nil {
		return x.cols.Scores(i)
	}
	s := &x.sets[i]
	return s.Support, s.Epsilon, s.Delta
}

// Pattern returns the i-th indexed pattern, read like Set. The caller
// must not modify the returned slices.
func (x *Index) Pattern(i int) core.Pattern {
	if x.cols == nil {
		return x.patterns[i]
	}
	p := x.cols.Pattern(i)
	p.Names = resolveAll(p.Attrs, x.cols.AttrName)
	return p
}

// SetID returns the stable id of the i-th indexed set.
func (x *Index) SetID(i int) string {
	if x.cols != nil {
		return x.cols.SetID(i)
	}
	return x.setIDs[i]
}

// PatternID returns the stable id of the i-th indexed pattern.
func (x *Index) PatternID(i int) string {
	if x.cols != nil {
		return x.cols.PatternID(i)
	}
	return x.patIDs[i]
}

// PatternSetID returns the stable id of the set owning the i-th
// indexed pattern, precomputed at build time so render paths never
// re-hash per request.
func (x *Index) PatternSetID(i int) string {
	if x.cols != nil {
		return x.cols.PatternSetID(i)
	}
	return x.patSetIDs[i]
}

// SetIndexByID returns the index of the set with the given stable id,
// or -1.
func (x *Index) SetIndexByID(id string) int {
	x.derived()
	return int(x.byID.find(x.SetID, id))
}

// PatternsOfSetByIndex returns the pattern indices of the i-th indexed
// set, in canonical order. The caller must not modify the returned
// slice.
func (x *Index) PatternsOfSetByIndex(i int) []int32 {
	x.derived()
	return x.patsOf(i)
}

// PatternVertexNames returns the resolved vertex labels of the i-th
// indexed pattern, aligned with its Vertices; on a booted index they
// are resolved anew on every call. The caller must not modify the
// returned slice.
func (x *Index) PatternVertexNames(i int) []string {
	if x.cols == nil {
		return x.patVerts[i]
	}
	return resolveAll(x.cols.Pattern(i).Vertices, x.cols.VertexName)
}

// SetByID finds an attribute set by its stable id.
func (x *Index) SetByID(id string) (core.AttributeSet, bool) {
	x.derived()
	i := x.byID.find(x.SetID, id)
	if i < 0 {
		return core.AttributeSet{}, false
	}
	return x.Set(int(i)), true
}

// PatternByID finds a pattern by its stable id.
func (x *Index) PatternByID(id string) (core.Pattern, bool) {
	x.derived()
	i := x.patByID.find(x.PatternID, id)
	if i < 0 {
		return core.Pattern{}, false
	}
	return x.Pattern(int(i)), true
}

// PatternsOfSet returns the indices of the patterns mined for the set
// with the given stable id, in canonical order. The caller must not
// modify the returned slice.
func (x *Index) PatternsOfSet(id string) []int32 {
	x.derived()
	i := x.byID.find(x.SetID, id)
	if i < 0 {
		return nil
	}
	return x.patsOf(int(i))
}

// attrSet resolves attribute names to their sorted canonical ids. ok is
// false when any name never occurs in an indexed set — no indexed set
// can match it, whatever the relation.
func (x *Index) attrSet(names []string) (attrs []int32, ok bool) {
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

// sortDedup sorts *attrs ascending and removes duplicates in place.
func sortDedup(attrs *[]int32) {
	slices.Sort(*attrs)
	*attrs = slices.Compact(*attrs)
}

// Exact returns the index of the set whose attributes are exactly the
// given names (any order), or -1: one binary search of the canonical
// set table.
func (x *Index) Exact(names []string) int {
	attrs, ok := x.attrSet(names)
	if !ok {
		return -1
	}
	i, found := sort.Find(x.nSets, func(i int) int { return core.CompareAttrs(attrs, x.row(i).Attrs) })
	if !found {
		return -1
	}
	return i
}

// Supersets returns the indices of every indexed set that contains all
// of the given attribute names (S ⊇ query), ascending. An empty query
// matches every set.
func (x *Index) Supersets(names []string) []int { return members(x.Containing(names)) }

// Containing returns the sets that contain all of the given attribute
// names as a bitset over set indices: the AND of the names' attribute
// postings, so it reads no row and needs no lookup structure. It is nil when some name
// occurs in no indexed set; an empty query yields every set. A
// one-name query returns the index's own posting, so the caller must
// not modify the result.
func (x *Index) Containing(names []string) *bitset.Set {
	if len(names) == 0 {
		all := bitset.New(x.nSets)
		for i := range x.nSets {
			all.Add(i)
		}
		return all
	}
	for _, n := range names {
		if x.attrPost[n] == nil {
			return nil
		}
	}
	post := x.attrPost[names[0]]
	if len(names) > 1 {
		post = post.Clone()
		for _, n := range names[1:] {
			post.IntersectWith(x.attrPost[n])
		}
	}
	return post
}

// Subsets returns the indices of every indexed set whose attributes are
// all among the given names (S ⊆ query), ascending. It walks the
// canonical set table, where the sets of each size k ≤ |query| are one
// contiguous run.
func (x *Index) Subsets(names []string) []int {
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
	for k, lo := 0, 0; k <= len(attrs) && lo < x.nSets; k++ {
		hi := lo + sort.Search(x.nSets-lo, func(i int) bool { return len(x.row(lo+i).Attrs) > k })
		out = x.subsetsIn(out, lo, hi, 0, k, attrs)
		lo = hi
	}
	return out
}

// subsetsIn appends to out, ascending, the sets in [lo, hi) whose ids
// from position d on are among q (sorted). The sets in [lo, hi) have k
// ids and share their first d, so they are sorted by their d-th id, and
// the sets whose d-th id is one q[j] form one range that a binary search
// finds; its sets continue from q[j+1:].
func (x *Index) subsetsIn(out []int, lo, hi, d, k int, q []int32) []int {
	if d == k {
		for i := lo; i < hi; i++ {
			out = append(out, i)
		}
		return out
	}
	for ; len(q) >= k-d && lo < hi && x.idAt(hi-1, d) >= q[0]; q = q[1:] {
		a := q[0]
		from := lo + sort.Search(hi-lo, func(i int) bool { return x.idAt(lo+i, d) >= a })
		to := from + sort.Search(hi-from, func(i int) bool { return x.idAt(from+i, d) > a })
		out = x.subsetsIn(out, from, to, d+1, k, q[1:])
		lo = to
	}
	return out
}

// idAt returns the d-th attribute id of set i, or -1 past its end. The
// range check keeps the table searches in bounds on a table out of
// canonical order (a corrupt snapshot opened without full
// verification), where they answer wrongly but never panic.
func (x *Index) idAt(i, d int) int32 {
	if a := x.row(i).Attrs; d < len(a) {
		return a[d]
	}
	return -1
}

// PatternsWithVertex returns the indices of the patterns containing the
// labeled vertex, ascending.
func (x *Index) PatternsWithVertex(label string) []int { return members(x.vertPost[label]) }

// members lists the elements of post ascending; nil when post is nil.
func members(post *bitset.Set) []int {
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
// (σ, ε or δ), like the paper's case-study tables. It reads only the n
// rows it returns.
func (x *Index) TopSets(r core.Ranking, n int) []core.AttributeSet {
	perm := x.Ranked(r)
	out := make([]core.AttributeSet, min(n, len(perm)))
	for i := range out {
		out[i] = x.Set(int(perm[i]))
	}
	return out
}

// Ranked returns the permutation of every set index under r, ties in
// canonical order: the order core.TopSets ranks in. It is sorted on the
// first call per ranking and shared by every later one. Build and
// Rebuild never pay for it, and a Rebuild never carries it over: an
// update moves εexp and δ of every set, and ε of some, even when the
// set list stays. The sort reads the ranked numbers of each set once
// into pointer-free keys and orders them with stable radix passes,
// first by support and then by the ranked metric, so a booted index
// never materializes its rows for it. The caller must not modify the
// returned slice.
func (x *Index) Ranked(r core.Ranking) []int32 {
	rk := &x.ranked[r]
	rk.once.Do(func() {
		// Keys of r.Compare: support descending, and for ε and δ the
		// metric descending before it. The entries start in canonical
		// order, which the stable sorts keep among ties.
		t := make([]idEntry, x.nSets)
		var metric []uint64
		if r != core.BySupport {
			metric = make([]uint64, x.nSets)
		}
		for i := range t {
			support, eps, delta := x.Scores(i)
			t[i] = idEntry{descInt(support), int32(i)}
			switch r {
			case core.ByEpsilon:
				metric[i] = descFloat(eps)
			case core.ByDelta:
				metric[i] = descFloat(delta)
			}
		}
		t = sortByKey(t, 64)
		if metric != nil {
			for k := range t {
				t[k].h = metric[t[k].row]
			}
			// Sets sharing the top bits of the metric mostly share
			// its value too, so their runs are already in order.
			t = sortByKey(t, 2*radixDigit)
		}
		perm := make([]int32, len(t))
		for k, e := range t {
			perm[k] = e.row
		}
		rk.perm = perm
	})
	return rk.perm
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
