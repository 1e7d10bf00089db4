package quasiclique

import (
	"slices"
	"sort"

	"github.com/scpm/scpm/internal/bitset"
)

// EnumerateMaximal mines every maximal quasi-clique of g (the naive
// algorithm's per-induced-graph step). Results are sorted by
// ComparePatterns.
func EnumerateMaximal(g *Graph, p Params, o Options) ([]Pattern, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := newEngine(g, p, o)
	var found [][]int32
	h := hooks{
		needLocalMax: true,
		report: func(q []int32) bool {
			found = append(found, append([]int32(nil), q...))
			return true
		},
	}
	err := e.run(h)
	e.release()
	if err != nil {
		return nil, err
	}
	maximal := filterContained(g.n, found)
	out := make([]Pattern, len(maximal))
	for i, q := range maximal {
		out[i] = g.makePattern(q)
	}
	slices.SortFunc(out, func(a, b Pattern) int { return ComparePatterns(a, b) })
	return out, nil
}

// CoverageResult reports which vertices belong to at least one
// quasi-clique, plus search statistics.
type CoverageResult struct {
	// Covered is the set K of vertices inside quasi-cliques.
	Covered *bitset.Set
	// Nodes is the number of search-tree nodes processed.
	Nodes int64
}

// Coverage computes K(g): the set of vertices that are members of at
// least one γ-quasi-clique of size ≥ min_size (§3.2.2). It applies the
// covered-candidate pruning — nodes whose X ∪ candExts is entirely
// covered are skipped — and stops as soon as every surviving vertex is
// covered. The frontier order (BFS or DFS) comes from o.Order.
//
// The search runs on a degeneracy-relabeled copy of the graph (see
// orderedView): K is a set, so the answer is independent of vertex
// labels and is translated back to g's ids on the way out, while the
// relabeled candidate ordering shrinks the search tree.
func Coverage(g *Graph, p Params, o Options) (CoverageResult, error) {
	return CoverageSeeded(g, p, o, nil, nil)
}

// CoverageSeeded is Coverage with a certificate interface: seed (may be
// nil) is a set of g's vertices already proven covered — each must be a
// member of some γ-quasi-clique of g of size ≥ min_size — and emit
// (when non-nil) receives every quasi-clique the search reports, in g's
// vertex ids sorted ascending (the slice is reused across calls;
// receivers copy what they keep). Seeding never changes the returned
// covered set — K is a fixed property of the graph, and the search
// still visits every branch that could cover an unseeded vertex — it
// only removes the work of re-proving what the seed already certifies,
// so Nodes shrinks while Covered stays bit-identical.
func CoverageSeeded(g *Graph, p Params, o Options, seed *bitset.Set, emit func(q []int32)) (CoverageResult, error) {
	if err := p.Validate(); err != nil {
		return CoverageResult{}, err
	}
	ov := getOrderedView(g)
	e := newEngine(ov.g, p, o)
	covered := bitset.New(g.n) // new-id space during the search
	total := e.alive.Count()
	nCovered := 0
	if seed != nil {
		for v := seed.NextSet(0); v >= 0; v = seed.NextSet(v + 1) {
			nv := int(ov.newOf[v])
			// Valid certificates only name vertices that survive the
			// peel, but tolerate stray seeds: counting a dead vertex
			// would break the covered-vs-alive early stop.
			if e.alive.Contains(nv) && !covered.Contains(nv) {
				covered.Add(nv)
				nCovered++
			}
		}
	}
	emitBuf := ov.coverBuf
	h := hooks{
		prune: func(x []int32, ext int32, cands []int32) bool {
			for _, v := range x {
				if !covered.Contains(int(v)) {
					return false
				}
			}
			if ext >= 0 && !covered.Contains(int(ext)) {
				return false
			}
			for _, v := range cands {
				if !covered.Contains(int(v)) {
					return false
				}
			}
			return true
		},
		report: func(q []int32) bool {
			for _, v := range q {
				if !covered.Contains(int(v)) {
					covered.Add(int(v))
					nCovered++
				}
			}
			if emit != nil {
				emitBuf = emitBuf[:0]
				for _, v := range q {
					emitBuf = append(emitBuf, ov.origOf[v])
				}
				slices.Sort(emitBuf)
				emit(emitBuf)
			}
			return nCovered < total
		},
	}
	// When the seed already covers every surviving vertex the search
	// would prune everything node by node; skip it outright.
	var runErr error
	if nCovered < total {
		runErr = e.run(h)
	}
	nodes := e.nodes
	ov.coverBuf = emitBuf
	e.release()
	if runErr != nil {
		ov.release()
		return CoverageResult{}, runErr
	}
	out := bitset.New(g.n)
	for v := covered.NextSet(0); v >= 0; v = covered.NextSet(v + 1) {
		out.Add(int(ov.origOf[v]))
	}
	ov.release()
	return CoverageResult{Covered: out, Nodes: nodes}, nil
}

// TopK mines the k most relevant patterns of g: largest size first,
// density as tie-breaker (§3.2.3). The current k-th best size is used to
// prune candidate nodes that cannot produce a larger pattern, which is
// what makes small k much cheaper than full enumeration.
//
// The size threshold is a heuristic lower bound: the collected patterns
// pinning it down may share a maximal superset, in which case they
// collapse to fewer entries under the final containment filter and the
// threshold was too aggressive in hindsight. Every set suppressed by a
// threshold t (a pruned search node or a trimmed buffer entry) has size
// < t, so the result is provably correct whenever the k-th returned
// pattern still has size ≥ the largest threshold that actually
// suppressed work. When that check fails, TopK falls back to full
// enumeration so the result is always the true top k.
func TopK(g *Graph, p Params, k int, o Options) ([]Pattern, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, nil
	}
	e := newEngine(g, p, o)
	col := newCollector(g, k)
	// maxPruneNeed tracks the largest dynamic threshold that actually
	// pruned a node (thresholds equal to min_size are the fundamental
	// size constraint, not top-k dynamics, and never lose patterns).
	maxPruneNeed := 0
	h := hooks{
		needLocalMax: true,
		prune: func(x []int32, ext int32, cands []int32) bool {
			size := len(x) + len(cands)
			if ext >= 0 {
				size++
			}
			if size < col.sizeNeeded(p.MinSize) {
				if need := col.sizeNeeded(p.MinSize); need > p.MinSize && need > maxPruneNeed {
					maxPruneNeed = need
				}
				return true
			}
			return false
		},
		report: func(q []int32) bool {
			col.add(q)
			return true
		},
	}
	err := e.run(h)
	e.release()
	if err != nil {
		return nil, err
	}
	out := col.finalize()
	suppressed := max(maxPruneNeed, col.maxTrimCut)
	if suppressed > 0 && (len(out) < k || out[len(out)-1].Size() < suppressed) {
		all, err := EnumerateMaximal(g, p, o)
		if err != nil {
			return nil, err
		}
		if len(all) > k {
			all = all[:k]
		}
		return all, nil
	}
	return out, nil
}

// collector accumulates top-k candidates. It keeps every reported
// pattern whose size could still matter (≥ the current k-th best size;
// equal-size patterns compete on density), then finalizes with a
// containment filter so subsets of larger quasi-cliques drop out.
type collector struct {
	g    *Graph
	k    int
	pats []Pattern // sorted by ComparePatterns (best first)
	// maxTrimCut is the largest size threshold that actually evicted a
	// buffered pattern; TopK uses it to decide whether the heuristic
	// pruning could have lost part of the true top k.
	maxTrimCut int
}

func newCollector(g *Graph, k int) *collector {
	return &collector{g: g, k: k}
}

// sizeNeeded is the smallest |X ∪ cands| a node must offer to be worth
// expanding: min_size until k patterns exist, then the k-th best size
// (equal size still admitted for the density tie-break).
func (c *collector) sizeNeeded(minSize int) int {
	if len(c.pats) < c.k {
		return minSize
	}
	return c.pats[c.k-1].Size()
}

func (c *collector) add(q []int32) {
	// Containment dedupe keeps the buffer — and therefore the pruning
	// threshold — honest: subsets of an already-collected quasi-clique
	// are never maximal, and collected subsets of q are superseded.
	for _, ex := range c.pats {
		if len(ex.Vertices) > len(q) && subsetOfSorted(q, ex.Vertices) {
			return
		}
	}
	w := 0
	for _, ex := range c.pats {
		if len(ex.Vertices) < len(q) && subsetOfSorted(ex.Vertices, q) {
			continue
		}
		c.pats[w] = ex
		w++
	}
	c.pats = c.pats[:w]

	pat := c.g.makePattern(q)
	pos := sort.Search(len(c.pats), func(i int) bool {
		return ComparePatterns(c.pats[i], pat) > 0
	})
	c.pats = append(c.pats, Pattern{})
	copy(c.pats[pos+1:], c.pats[pos:])
	c.pats[pos] = pat
	// Trim entries that can no longer reach the top k: strictly smaller
	// than the k-th best size.
	if len(c.pats) > c.k {
		cut := c.pats[c.k-1].Size()
		w := len(c.pats)
		for w > c.k && c.pats[w-1].Size() < cut {
			w--
		}
		if w < len(c.pats) && cut > c.maxTrimCut {
			c.maxTrimCut = cut
		}
		c.pats = c.pats[:w]
	}
}

func (c *collector) finalize() []Pattern {
	sets := make([][]int32, len(c.pats))
	for i, p := range c.pats {
		sets[i] = p.Vertices
	}
	maximal := filterContained(c.g.n, sets)
	out := make([]Pattern, 0, len(maximal))
	for _, q := range maximal {
		out = append(out, c.g.makePattern(q))
	}
	slices.SortFunc(out, func(a, b Pattern) int { return ComparePatterns(a, b) })
	if len(out) > c.k {
		out = out[:c.k]
	}
	return out
}
