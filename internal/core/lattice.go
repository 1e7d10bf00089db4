package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
)

// Evaluation is the memoized evaluation of one attribute set S. The
// paper's Algorithms 2–3 evaluate each set once, and that evaluation
// yields ε(S), the covered set K_S that Theorem 3 hands down to S's
// children, and S's top-k patterns; a replay hands the record back to
// score, which reuses what it already holds instead of searching
// again. A level-1 verdict is this record plus the single's attribute
// id and certificates, a lattice node this record minus its search
// bill.
type Evaluation struct {
	// Estimate is the estimator's answer. Its Handdown is the covered-set
	// hand-down as returned: the exact K_S in exact mode, the sampled
	// superset otherwise.
	epsilon.Estimate
	// Exact is the lazily refined exact K_S hand-down, recorded only
	// when the evaluation computed it (sampled mode, emitted set); nil
	// otherwise.
	Exact *bitset.Set
	// Patterns are the patterns mined for S when the evaluation mined
	// them; HasPatterns distinguishes "mined, none found" from "never
	// mined".
	Patterns    []Pattern
	HasPatterns bool
}

// Lattice is the memoized attribute-set search lattice of one mining
// run: for every evaluated set of two or more attributes it retains
// exactly what a later incremental run needs to carry the evaluation
// over without touching the quasi-clique engine. Singles are memoized
// once, in the run's level-1 verdict table. Results record one when
// Params.RecordLattice is set; Remine consumes it.
//
// The paper's ε(S) depends only on V(S) and the subgraph it induces,
// so a graph update leaves every attribute set disjoint from the
// ChangeSet's dirty attributes bit-identical (see graph.ChangeSet);
// those are the sets a Remine carries or replays from here.
//
// The lattice is one flat table per recorded top-level subtree, in
// Eclat order: a node per evaluated set, each node's children one
// contiguous block, and each node's descendants one contiguous range
// that starts with that block. Nodes hold no pointers; the few sets
// with a non-empty hand-down or a sampled estimate keep the rest of
// their evaluation in a side table. A lattice is immutable once its
// run returns, so the next generation shares every subtree an update
// did not reach and copies whole descendant ranges of the ones it did.
type Lattice struct {
	// version is the data version of the graph the lattice was
	// recorded against; Remine requires the ChangeSet it is given to
	// start exactly there, so a skipped intermediate update cannot
	// silently replay stale evaluations.
	version uint64
	// trees holds the recorded subtree of every top-level root the run
	// owned, indexed by the root's attribute id; nil elsewhere.
	trees []*latticeTree
	// exp is the εexp table of the run that recorded the lattice, over
	// the null model the sets were scored under: with δmin > 0 a Remine
	// carries clean sets only while εexp agrees with it.
	exp *expTable
}

// latticeTree is the recorded subtree of one top-level root. nodes[0]
// stands for the root itself, whose evaluation lives in the level-1
// verdict table; every other node is an evaluated set.
type latticeTree struct {
	nodes []latticeNode
	extra []latticeExtra
}

// latticeNode is one evaluated attribute set: the attribute that
// extends its parent, its support, the position of its children, and
// the scalars of its evaluation.
type latticeNode struct {
	attr  int32
	sigma int32
	// kids is the offset of the first child from this node's index;
	// nkids counts the children and desc all descendants, which fill
	// the range starting at the first child.
	kids, nkids, desc int32
	// extra indexes the side table, or is -1 when the evaluation is an
	// exact one with an empty hand-down (then there is no pattern
	// either).
	extra   int32
	covered int32
	eps     float64
	kmass   float64
}

// latticeExtra holds what a node with a non-empty hand-down or a
// sampled estimate keeps beyond its scalars. Its sets are immutable and
// shared across generations.
type latticeExtra struct {
	handdown, exact *bitset.Set
	pats            []Pattern
	hasPatterns     bool
	estimated       bool
	sampled         int
	errBound        float64
}

// newTree starts the recorded subtree of root, with room for the nodes
// and side entries of prev, the previous generation's, when there is
// one: an update rarely changes its size by much.
func newTree(root int32, prev *latticeTree) *latticeTree {
	t := &latticeTree{nodes: make([]latticeNode, 1, 1+prev.size()*9/8)}
	t.nodes[0] = latticeNode{attr: root, extra: -1}
	if prev != nil {
		t.extra = make([]latticeExtra, 0, len(prev.extra)*9/8)
	}
	return t
}

// Size returns the number of memoized attribute sets.
func (l *Lattice) Size() int {
	n := 0
	for _, t := range l.trees {
		if t != nil {
			n += int(t.nodes[0].desc)
		}
	}
	return n
}

// tree returns the recorded subtree of root, or nil.
func (l *Lattice) tree(root int32) *latticeTree {
	if l == nil || int(root) >= len(l.trees) {
		return nil
	}
	return l.trees[root]
}

// size returns the number of recorded nodes; 0 on a nil tree.
func (t *latticeTree) size() int {
	if t == nil {
		return 0
	}
	return len(t.nodes)
}

// block returns the children of node i and the index of the first, or
// nil when t is nil or i is -1.
func (t *latticeTree) block(i int32) (int32, []latticeNode) {
	if t == nil || i < 0 {
		return 0, nil
	}
	nd := &t.nodes[i]
	first := i + nd.kids
	return first, t.nodes[first : first+nd.nkids]
}

// evaluation rebuilds node i's evaluation, its hand-downs at capacity
// n; empty is the shared empty hand-down.
func (t *latticeTree) evaluation(i int32, n int, empty *bitset.Set) Evaluation {
	nd := &t.nodes[i]
	ev := Evaluation{Estimate: epsilon.Estimate{
		Epsilon:  nd.eps,
		Covered:  int(nd.covered),
		Handdown: empty,
		KMass:    nd.kmass,
	}}
	if nd.extra >= 0 {
		x := &t.extra[nd.extra]
		if x.handdown != nil {
			ev.Handdown = grownTo(x.handdown, n)
		}
		ev.Exact = grownTo(x.exact, n)
		ev.Patterns, ev.HasPatterns = x.pats, x.hasPatterns
		ev.Estimated, ev.SampledVertices, ev.ErrBound = x.estimated, x.sampled, x.errBound
	}
	return ev
}

// handdown returns the covered set node i handed its children: the
// exact hand-down when the evaluation refined one, else the estimate's.
func (t *latticeTree) handdown(i int32, n int, empty *bitset.Set) *bitset.Set {
	nd := &t.nodes[i]
	if nd.extra < 0 {
		return empty
	}
	switch x := &t.extra[nd.extra]; {
	case x.exact != nil:
		return grownTo(x.exact, n)
	case x.handdown != nil:
		return grownTo(x.handdown, n)
	}
	return empty
}

// add records a freshly scored set and returns its index; -1 on a nil
// tree (a run that does not record).
func (t *latticeTree) add(attr int32, sigma int, ev *Evaluation) int32 {
	if t == nil {
		return -1
	}
	nd := latticeNode{
		attr:    attr,
		sigma:   int32(sigma),
		extra:   -1,
		covered: int32(ev.Covered),
		eps:     ev.Epsilon,
		kmass:   ev.KMass,
	}
	nonEmpty := ev.Handdown != nil && !ev.Handdown.IsEmpty()
	if nonEmpty || ev.Estimated {
		x := latticeExtra{pats: ev.Patterns, hasPatterns: ev.HasPatterns,
			estimated: ev.Estimated, sampled: ev.SampledVertices, errBound: ev.ErrBound}
		// The walk's hand-downs live on worker stacks; the lattice
		// outlives it.
		if nonEmpty {
			x.handdown = ev.Handdown.Clone()
		}
		if ev.Exact != nil {
			x.exact = ev.Exact.Clone()
		}
		nd.extra = int32(len(t.extra))
		t.extra = append(t.extra, x)
	}
	t.nodes = append(t.nodes, nd)
	return int32(len(t.nodes) - 1)
}

// carry records node i of old unchanged and returns its index, or -1
// on a nil tree. Its children are placed later, by the walk or by
// carryDescendants.
func (t *latticeTree) carry(old *latticeTree, i int32) int32 {
	if t == nil {
		return -1
	}
	nd := old.nodes[i]
	if nd.extra >= 0 {
		t.extra = append(t.extra, old.extra[nd.extra])
		nd.extra = int32(len(t.extra) - 1)
	}
	t.nodes = append(t.nodes, nd)
	return int32(len(t.nodes) - 1)
}

// carryDescendants copies the descendant range of old's node o after
// t's last node, as the descendants of t's node at. Child offsets are
// relative, so the range copies as is; side-table indices grow with
// node indices, so its extras are one contiguous run, re-based here.
func (t *latticeTree) carryDescendants(at int32, old *latticeTree, o int32) {
	if t == nil {
		return
	}
	on := &old.nodes[o]
	first := int32(len(t.nodes))
	t.nodes[at].kids = first - at
	if on.desc == 0 {
		return
	}
	from := o + on.kids
	t.nodes = append(t.nodes, old.nodes[from:from+on.desc]...)
	lo, hi := int32(-1), int32(-1)
	base := int32(len(t.extra))
	for k := first; k < int32(len(t.nodes)); k++ {
		if x := t.nodes[k].extra; x >= 0 {
			if lo < 0 {
				lo = x
			}
			hi = x
			t.nodes[k].extra = x - lo + base
		}
	}
	if lo >= 0 {
		t.extra = append(t.extra, old.extra[lo:hi+1]...)
	}
}

// closeBlock stamps node at's children block, which starts at first,
// and its descendant count once its walk is done.
func (t *latticeTree) closeBlock(at, first, nkids int32) {
	if t == nil {
		return
	}
	nd := &t.nodes[at]
	nd.kids, nd.nkids, nd.desc = first-at, nkids, int32(len(t.nodes))-first
}

// grownTo returns s at capacity n, reusing s itself when it already
// has that capacity (recorded bitsets are immutable, so sharing across
// lattices and graph versions is safe).
func grownTo(s *bitset.Set, n int) *bitset.Set {
	if s == nil || s.Len() == n {
		return s
	}
	return s.Grown(n)
}

// expMoved reports whether εexp under this run's null model differs
// from the lattice's at σmin or at any support a recorded set has —
// the only way a clean set's survival or emission can flip.
func (m *miner) expMoved(l *Lattice) bool {
	if l.exp == nil || l.exp.at(m.p.SigmaMin) != m.expSigmaMin {
		return true
	}
	for _, t := range l.trees {
		if t == nil {
			continue
		}
		for _, nd := range t.nodes[1:] {
			if s := int(nd.sigma); l.exp.at(s) != m.exp.at(s) {
				return true
			}
		}
	}
	return false
}

// carryChunk is how many rows mergeRows copies at once: 64 sets are
// 7 KB, so a chunk is still in cache when fix rewrites its rows.
const carryChunk = 64

// carrier is what mergeCarried needs per carried row: which attributes
// are dirty, and the id arena of this generation that the carried
// sets' ids move into.
type carrier struct {
	m *miner
	// dirty[a] reports attribute a dirty, one load per id.
	dirty []bool
	// ids is what is left of the arena, and moved counts the ids
	// moved into it.
	ids   []int32
	moved int
	// pats is the old result's patterns and next the first of them a
	// streamed carried set has not passed.
	pats []Pattern
	next int
}

// newCarrier returns the carrier of a Remine from old.
func (m *miner) newCarrier(old *Result) *carrier {
	c := &carrier{m: m, dirty: make([]bool, m.g.NumAttributes()), ids: make([]int32, old.numIDs), pats: old.Patterns}
	m.changes.DirtyAttrs.ForEach(func(a int) bool {
		c.dirty[a] = true
		return true
	})
	return c
}

// carries reports whether a Remine carries old's row for attrs: a set
// of two or more attributes (singles come from the verdict table), none
// of them dirty, below a root this run owns. A subtree's root is its
// set's first attribute in the Eclat order.
func (c *carrier) carries(attrs []int32) bool {
	if len(attrs) < 2 {
		return false
	}
	for _, a := range attrs {
		if c.dirty[a] {
			return false
		}
	}
	if c.m.owner == nil {
		return true
	}
	g := c.m.g
	root := attrs[0]
	for _, a := range attrs[1:] {
		if g.AttrSupport(a) < g.AttrSupport(root) {
			root = a
		}
	}
	return c.m.owns(root)
}

// fix moves a chunk of carried rows into this generation: their ids
// into its arena, and ExpEps and δ to this run's null model where
// εexp moved at their support. With a sink that takes sets it then
// streams each row and its patterns.
func (c *carrier) fix(rows []AttributeSet) {
	n := 0
	for i := range rows {
		n += len(rows[i].Attrs)
	}
	if n > len(c.ids) { // old.numIDs undercounts only if its Sets were modified
		c.ids = make([]int32, n)
	}
	ids := c.ids[:n:n]
	c.ids, c.moved = c.ids[n:], c.moved+n
	for i := range rows {
		s := &rows[i]
		k := copy(ids, s.Attrs)
		s.Attrs, ids = ids[:k:k], ids[k:]
		if e := c.m.exp.at(s.Support); e != s.ExpEps {
			s.ExpEps, s.Delta = e, NormalizeDelta(s.Epsilon, e)
		}
	}
	if !c.m.em.streams {
		return
	}
	for i := range rows {
		s := &rows[i]
		for c.next < len(c.pats) && CompareAttrs(c.pats[c.next].Attrs, s.Attrs) < 0 {
			c.next++
		}
		lo := c.next
		for c.next < len(c.pats) && CompareAttrs(c.pats[c.next].Attrs, s.Attrs) == 0 {
			c.next++
		}
		c.m.em.deliver(s, c.pats[lo:c.next])
	}
}

// mergeCarried merges the rows of old a Remine carried into res, which
// holds the rows its walk collected, and streams the carried sets to
// the sink in canonical order. A carried row keeps its evaluation and
// its Names; its ids move to an arena of this generation, so no result
// keeps an older generation's ids alive, and ExpEps and δ change only
// where εexp moved at its support. When the rows old drops are exactly
// the walked ones, res holds old's set and pattern lists and takes
// old's list id.
func (m *miner) mergeCarried(res, old *Result) {
	c := m.newCarrier(old)
	walked, walkedPats := res.Sets, res.Patterns
	res.Sets = make([]AttributeSet, 0, len(old.Sets)+len(walked))
	res.Patterns = make([]Pattern, 0, len(old.Patterns)+len(walkedPats))
	var sameSets, samePats bool
	res.Sets, sameSets = mergeRows(res.Sets, old.Sets, walked, c.carries, c.fix)
	res.Patterns, samePats = mergeRows(res.Patterns, old.Patterns, walkedPats, c.carries, nil)
	res.numIDs += c.moved
	m.em.noteEmitted(int64(len(res.Sets)-len(walked)), int64(len(res.Patterns)-len(walkedPats)))
	if sameSets && samePats {
		res.list = old.list
	}
}

// resultRow is the constraint of the rows mergeRows merges: a result's sets
// and patterns, each in canonical order by attribute set.
type resultRow interface{ AttributeSet | Pattern }

// attrsOf returns the attribute ids of a set or a pattern's set.
func attrsOf[T resultRow](r *T) []int32 {
	switch r := any(r).(type) {
	case *AttributeSet:
		return r.Attrs
	case *Pattern:
		return r.Attrs
	}
	panic("unreachable")
}

// mergeRows appends to dst the rows of old that keep carries merged
// with walked; both are in canonical order and hold disjoint attribute
// sets, so the merge is too. Between two walked rows the carried rows
// are copied in chunks of carryChunk, and fix, when non-nil, rewrites
// each chunk while it is in cache. It also reports whether the rows old
// drops are the walked rows, pairwise: then dst holds old's rows, in
// old's order.
func mergeRows[T resultRow](dst, old, walked []T, keep func([]int32) bool, fix func([]T)) ([]T, bool) {
	w, dropped, equal := 0, 0, true
	for k := 0; k < len(old); {
		end := len(old)
		if w < len(walked) {
			end = k + gallop(old[k:], attrsOf(&walked[w]))
		}
		for k < end {
			lo := k
			for k < end && k-lo < carryChunk && keep(attrsOf(&old[k])) {
				k++
			}
			if k == lo {
				equal = equal && dropped < len(walked) && sameRow(&old[k], &walked[dropped])
				dropped++
				k++
				continue
			}
			at := len(dst)
			dst = append(dst, old[lo:k]...)
			if fix != nil {
				fix(dst[at:])
			}
		}
		if w < len(walked) {
			dst = append(dst, walked[w])
			w++
		}
	}
	return append(dst, walked[w:]...), equal && dropped == len(walked)
}

// gallop returns the index of the first row of rows at or after
// attrs in canonical order, probing 1, 2, 4, … rows ahead before it
// bisects: consecutive walked rows, the singles above all, mostly land
// a few rows apart.
func gallop[T resultRow](rows []T, attrs []int32) int {
	lo, step := 0, 1
	for lo+step <= len(rows) && CompareAttrs(attrsOf(&rows[lo+step-1]), attrs) < 0 {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(rows))
	return lo + sort.Search(hi-lo, func(j int) bool { return CompareAttrs(attrsOf(&rows[lo+j]), attrs) >= 0 })
}

// sameRow reports whether a and b are the same set, or the same
// pattern: the same ids and names, and the same vertices.
func sameRow[T resultRow](a, b *T) bool {
	switch a := any(a).(type) {
	case *AttributeSet:
		b := any(b).(*AttributeSet)
		return slices.Equal(a.Attrs, b.Attrs) && slices.Equal(a.Names, b.Names)
	case *Pattern:
		b := any(b).(*Pattern)
		return slices.Equal(a.Attrs, b.Attrs) && slices.Equal(a.Names, b.Names) && slices.Equal(a.Vertices, b.Vertices)
	}
	panic("unreachable")
}

// Remine incrementally re-mines g — a graph obtained from a previous
// version by one or more Graph.Apply updates — reusing the previous
// run's result where the update provably cannot have changed it.
//
// old must be the result of mining the previous graph version with the
// same Params (thresholds, γ, min_size, ε mode, seed …) and with
// RecordLattice set; changes must be the ChangeSet of the update (or
// the Merge of the consecutive ChangeSets) leading from that version
// to g. Remine then walks the same search lattice a full Mine of g
// would, restricted to what the update can reach. A set disjoint from
// changes.DirtyAttrs keeps its ε, covered counts and patterns, so:
//
//   - when no clean set can change its survival or emission (δmin = 0,
//     or εexp unchanged at every recorded support), clean sets are
//     carried: their rows come from old with only ExpEps and δ
//     re-derived (the null model follows the degree distribution), and
//     the walk visits a clean set only when a dirty sibling follows it,
//     to reach its dirty children. A subtree whose root changed shard
//     ownership is mined afresh. When the update changed neither the
//     set nor the pattern list, the result keeps old's ListID;
//   - otherwise every clean set is replayed: re-scored from its
//     recorded evaluation without a coverage search.
//
// Singles always come from the previous run's level-1 verdict table.
// Stats.ReusedSets / Stats.RecomputedSets report the split; they sum
// to the sets a full Mine evaluates.
//
// The output is identical — sets, ε, δ, patterns and therefore stable
// ids — to Mine(ctx, g, p, sink), in both exact and sampled ε modes
// (sampled estimates are deterministic in the seed and the set, and
// clean sets replay the exact covered-set hand-downs, so the sampling
// chain replays bit-for-bit). A sink receives every emitted set once;
// carried sets arrive after the walked ones, in canonical order.
//
// When old carries no lattice or changes is nil, Remine degrades to a
// full Mine (everything recomputed, ReusedSets = 0). Context and sink
// follow the Mine contract.
func Remine(ctx context.Context, g *graph.Graph, p Params, old *Result, changes *graph.ChangeSet, sink Sink) (*Result, error) {
	if old == nil || old.lattice == nil || changes == nil {
		return mine(ctx, g, p, sink, nil, nil)
	}
	if got, want := changes.DirtyAttrs.Len(), g.NumAttributes(); got != want {
		return nil, fmt.Errorf("core: change set covers %d attributes, graph has %d (stale ChangeSet?)", got, want)
	}
	if changes.ToVersion != g.Version() {
		return nil, fmt.Errorf("core: change set leads to graph version %d, got version %d", changes.ToVersion, g.Version())
	}
	if changes.FromVersion != old.lattice.version {
		return nil, fmt.Errorf("core: change set starts at graph version %d but the old result was mined at version %d (merge the intermediate ChangeSets)",
			changes.FromVersion, old.lattice.version)
	}
	return mine(ctx, g, p, sink, old, changes)
}
