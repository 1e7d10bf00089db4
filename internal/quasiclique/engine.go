package quasiclique

import (
	"slices"
	"sync"

	"github.com/scpm/scpm/internal/bitset"
)

// node is one entry of Algorithm 1's qcCands structure: a vertex set
// X = x ∪ {ext} (ascending; ext = -1 at a root) plus its candidate
// extensions (ascending, every candidate greater than ext, so each
// vertex subset occurs exactly once in the search tree).
//
// Nodes are LAZY: x and cands are read-only views into the parent's
// materialized block (parent X and the suffix of the parent's refined
// candidates). A node copies the candidate suffix — and merges ext into
// X — only when it is actually processed, so pruned children cost no
// memory traffic at all and an expanded node writes |X|+|cands| words
// instead of one copy per child. Under DFS the materialized blocks live
// in the engine arena with stack discipline: popTo is the arena
// watermark to restore once this node's subtree completes (a node's
// block must outlive its children, which read it through their views).
type node struct {
	x     []int32
	cands []int32
	ext   int32
	popTo int32
}

// hooks let the three mining modes customize the generic search.
type hooks struct {
	// prune skips a node entirely when it returns true (e.g. the
	// covered-candidate pruning of §3.2.2 or top-k size pruning). The
	// node's vertex set is x ∪ {ext} (ext < 0 at a root).
	prune func(x []int32, ext int32, cands []int32) bool
	// report is invoked with a quasi-clique (degree constraint and
	// min-size already checked). Returning false aborts the search.
	// The slice may alias an engine scratch buffer: it is valid only
	// for the duration of the call and must be copied to be retained.
	report func(q []int32) bool
	// needLocalMax requires X to admit no single-vertex extension
	// before being reported (cheap necessary condition for maximality;
	// the enumeration modes complete it with a containment filter).
	needLocalMax bool
}

// adjBitsetMaxN caps the graphs for which the engine materializes
// per-vertex adjacency bitsets (n²/8 bytes; 2 MiB at the cap). Above it
// the degree kernels fall back to neighbor-list iteration.
const adjBitsetMaxN = 4096

// engine runs the shared candidate-tree search.
type engine struct {
	g     *Graph
	p     Params
	o     Options
	alive *bitset.Set
	n2    []*bitset.Set
	adj   []bitset.Set // slab-backed adjacency rows; nil above adjBitsetMaxN
	nodes int64

	// scratch, reused across nodes so the refine / forced-candidate /
	// lookahead hot paths allocate nothing per node
	inX        *bitset.Set
	inC        *bitset.Set
	inU        *bitset.Set
	d2buf      *bitset.Set
	degs       []int
	hist       []int32
	degIn      []int32 // |N(v) ∩ X| per vertex, valid within one refine
	degEx      []int32 // |N(v) ∩ cands| per vertex, valid within one refine
	minDegTab  []int32 // MinDegree(s) by s — the ceil/γ math, precomputed
	maxSizeTab []int32 // MaxSizeFor(avail) by avail, precomputed
	unionBuf   []int32
	forcedBuf  []int32
	xmat       []int32    // X = parent x + ext, materialized per node
	xbufs      [2][]int32 // rotating jump-merge buffers (inputs alternate)

	// DFS node arena: each expanded node materializes one block (its
	// refined candidates followed by its X) and the block is reclaimed,
	// stack-style, when the node's subtree completes. kids is the
	// per-process scratch for building a node's children.
	arena []int32
	kids  []node
	front []node

	// Pooled backing, reused across reset: one engine is built per
	// induced graph — per evaluated attribute set — so the fixed setup
	// allocations (scratch slabs, degree arrays, adjacency and
	// distance-2 indexes, peel/component scratch) dominate the
	// allocation profile of a whole mine unless they are recycled.
	aliveSet   bitset.Set
	setsSlab   bitset.Slab
	adjSlab    bitset.Slab
	n2Slab     bitset.Slab
	intsBuf    []int32
	peelQueue  []int32
	rootBuf    []int32
	compSeen   bitset.Set
	compArena  []int32
	compBounds []int
	compStack  []int32
	comps      [][]int32
}

// enginePool recycles engines (and all their scratch) across searches.
// Short-lived callers — TopK, EnumerateMaximal, the coverage search —
// release their engine when done; retained engines (anchored queries)
// simply never return to the pool.
var enginePool = sync.Pool{New: func() any { return new(engine) }}

func newEngine(g *Graph, p Params, o Options) *engine {
	e := enginePool.Get().(*engine)
	e.reset(g, p, o)
	return e
}

// release returns e to the engine pool. The caller must be done with
// every structure the engine owns — component slices, distance-2 rows,
// the node arena — since the next newEngine may overwrite them all.
func (e *engine) release() {
	e.g = nil
	e.o = Options{}
	enginePool.Put(e)
}

// grown returns s resized to n, reusing its backing array when large
// enough. The contents are unspecified; callers overwrite before use.
func grown[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// reset (re)initializes the engine for one search over g, recycling
// whatever backing its previous use left behind. Every buffer is either
// fully overwritten here or zeroed by its carve, so a recycled engine
// is bit-for-bit equivalent to a freshly allocated one.
func (e *engine) reset(g *Graph, p Params, o Options) {
	e.g, e.p, e.o = g, p, o
	e.nodes = 0
	e.degs = grown(e.degs, g.n)
	e.peel(p.MinDegree(p.MinSize))
	sets := e.setsSlab.Carve(g.n, 4)
	e.inX, e.inC, e.inU = &sets[0], &sets[1], &sets[2]
	ints := grown(e.intsBuf, 5*g.n+4)
	e.intsBuf = ints
	e.degIn, ints = ints[:g.n:g.n], ints[g.n:]
	e.degEx, ints = ints[:g.n:g.n], ints[g.n:]
	e.hist, ints = ints[:g.n+1:g.n+1], ints[g.n+1:]
	// The degree-threshold formulas are pure functions of their integer
	// argument (≤ n+1); tabulating them takes the float ceil math off
	// the refine hot path.
	e.minDegTab, ints = ints[:g.n+2:g.n+2], ints[g.n+2:]
	for s := range e.minDegTab {
		e.minDegTab[s] = int32(p.MinDegree(s))
	}
	e.maxSizeTab = ints[: g.n+1 : g.n+1]
	for avail := range e.maxSizeTab {
		e.maxSizeTab[avail] = int32(p.MaxSizeFor(avail))
	}
	e.n2, e.d2buf = nil, nil
	if p.Gamma >= 0.5 && !o.DisableDiameterPruning {
		e.buildDistance2()
		e.d2buf = &sets[3]
	}
	e.adj = nil
	if g.n > 0 && g.n <= adjBitsetMaxN {
		e.adj = e.adjSlab.Carve(g.n, g.n)
		for v := 0; v < g.n; v++ {
			row := &e.adj[v]
			for _, u := range g.neighbors(int32(v)) {
				row.Add(int(u))
			}
		}
	}
}

// peel iteratively removes vertices of degree < minDeg (counted within
// the surviving set), leaving the survivors in e.alive. This is the
// vertex pruning of Algorithm 1 line 4: a member of any γ-quasi-clique
// of size ≥ min_size has at least ⌈γ(min_size−1)⌉ neighbors inside it,
// so vertices below that threshold — transitively — can never be
// members.
func (e *engine) peel(minDeg int) {
	g := e.g
	e.aliveSet.Reset(g.n)
	e.alive = &e.aliveSet
	deg := e.degs
	for v := 0; v < g.n; v++ {
		e.alive.Add(v)
		deg[v] = g.Degree(int32(v))
	}
	if minDeg <= 0 {
		return
	}
	queue := e.peelQueue[:0]
	for v := 0; v < g.n; v++ {
		if deg[v] < minDeg {
			queue = append(queue, int32(v))
			e.alive.Remove(v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.neighbors(v) {
			if !e.alive.Contains(int(u)) {
				continue
			}
			deg[u]--
			if deg[u] < minDeg {
				e.alive.Remove(int(u))
				queue = append(queue, u)
			}
		}
	}
	e.peelQueue = queue[:0]
}

// buildDistance2 fills e.n2 with, for every alive vertex, the set of
// alive vertices within distance ≤ 2 (the vertex itself included); rows
// of dead vertices are nil. It backs the diameter pruning of refine,
// valid for γ ≥ 0.5: such quasi-cliques have diameter ≤ 2. The rows
// share one recycled slab, so they land contiguously for the AND-fold.
func (e *engine) buildDistance2() {
	g := e.g
	rows := e.n2Slab.Carve(g.n, e.alive.Count())
	e.n2 = grown(e.n2, g.n)
	for i := range e.n2 {
		e.n2[i] = nil
	}
	next := 0
	for v := 0; v < g.n; v++ {
		if !e.alive.Contains(v) {
			continue
		}
		s := &rows[next]
		next++
		s.Add(v)
		for _, u := range g.neighbors(int32(v)) {
			if !e.alive.Contains(int(u)) {
				continue
			}
			s.Add(int(u))
			for _, w := range g.neighbors(u) {
				if e.alive.Contains(int(w)) {
					s.Add(int(w))
				}
			}
		}
		e.n2[v] = s
	}
}

// components partitions the alive vertices into connected components
// (edges restricted to alive endpoints), returned as sorted vertex
// slices in ascending order of their smallest member. γ ≥ 0.5 forces
// connectivity and diameter ≤ 2, so each component is an independent
// sub-problem of the candidate search. The slices are views into one
// engine-owned arena, valid until the next reset.
func (e *engine) components() [][]int32 {
	g, alive := e.g, e.alive
	e.compSeen.Reset(g.n)
	seen := &e.compSeen
	arena := e.compArena[:0]
	bounds := e.compBounds[:0]
	stack := e.compStack[:0]
	for s := alive.NextSet(0); s >= 0; s = alive.NextSet(s + 1) {
		if seen.Contains(s) {
			continue
		}
		bounds = append(bounds, len(arena))
		stack = append(stack[:0], int32(s))
		seen.Add(s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			arena = append(arena, v)
			for _, u := range g.neighbors(v) {
				if alive.Contains(int(u)) && !seen.Contains(int(u)) {
					seen.Add(int(u))
					stack = append(stack, u)
				}
			}
		}
		slices.Sort(arena[bounds[len(bounds)-1]:])
	}
	e.compArena, e.compBounds, e.compStack = arena, bounds, stack
	out := e.comps[:0]
	for i, b := range bounds {
		end := len(arena)
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		out = append(out, arena[b:end:end])
	}
	e.comps = out
	return out
}

// NodesVisited reports how many candidate nodes the last run processed
// (exposed for the ablation study).
func (e *engine) NodesVisited() int64 { return e.nodes }

// run executes Algorithm 1 with the configured order and hooks, once
// per connected component of the peeled graph when γ ≥ 0.5 (then every
// member has degree ≥ ⌈γ(s−1)⌉ ≥ (s−1)/2, which forces connectivity,
// so components are independent sub-problems and small components die
// on the min-size check immediately). For γ < 0.5 quasi-cliques may be
// disconnected — e.g. two disjoint triangles form a valid 0.4-quasi-
// clique of size 6 — so the decomposition would lose maximal patterns
// spanning components and the search must run on the whole peeled set.
func (e *engine) run(h hooks) error {
	if e.alive.Count() < e.p.MinSize {
		return nil
	}
	if e.p.Gamma < 0.5 {
		e.rootBuf = e.alive.AppendTo(e.rootBuf[:0])
		_, err := e.runFrontier(node{x: nil, cands: e.rootBuf, ext: -1}, h)
		return err
	}
	for _, comp := range e.components() {
		if len(comp) < e.p.MinSize {
			continue
		}
		stop, err := e.runFrontier(node{x: nil, cands: comp, ext: -1}, h)
		if err != nil || stop {
			return err
		}
	}
	return nil
}

// runFrontier drains one component's candidate tree. It reports whether
// a hook requested a global stop.
func (e *engine) runFrontier(rootNode node, h hooks) (bool, error) {
	e.arena = e.arena[:0]
	frontier := append(e.front[:0], rootNode)
	head := 0
	defer func() { e.front = frontier[:0] }()
	for {
		var nd node
		if e.o.Order == BFS {
			if head >= len(frontier) {
				return false, nil
			}
			nd = frontier[head]
			frontier[head] = node{}
			head++
			if head > 4096 && head*2 > len(frontier) {
				frontier = append([]node(nil), frontier[head:]...)
				head = 0
			}
		} else {
			if len(frontier) == 0 {
				return false, nil
			}
			nd = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		}
		e.nodes++
		if e.o.MaxNodes > 0 && e.nodes > e.o.MaxNodes {
			return true, ErrBudget
		}
		// Poll the context every 256 nodes: frequent enough that deep
		// searches stop in bounded time, cheap enough to stay off the
		// per-node hot path.
		if e.o.Ctx != nil && e.nodes&0xff == 0 && e.o.Ctx.Err() != nil {
			return true, Canceled(e.o.Ctx)
		}
		stop, children := e.process(nd, h)
		if stop {
			return true, nil
		}
		if e.o.Order == BFS {
			frontier = append(frontier, children...)
		} else {
			if len(children) == 0 {
				// nd is a leaf, so its subtree is complete: restore the
				// arena watermark (this also discards nd's own block if
				// one was materialized before the node died).
				e.arena = e.arena[:nd.popTo]
			}
			for i := len(children) - 1; i >= 0; i-- {
				frontier = append(frontier, children[i])
			}
		}
	}
}

// process handles one node: pruning, candidate materialization and
// refinement, forced-vertex jumps, lookahead, quasi-clique reporting
// and child generation.
func (e *engine) process(nd node, h hooks) (stop bool, children []node) {
	x, cands := nd.x, nd.cands
	xlen := len(x)
	if nd.ext >= 0 {
		xlen++
	}
	if xlen+len(cands) < e.p.MinSize {
		return false, nil
	}
	if h.prune != nil && h.prune(x, nd.ext, cands) {
		return false, nil
	}

	// Materialize: X = x ∪ {ext} into the rotating X buffers (jumps may
	// grow it further), candidates into this node's own block — the
	// arena top under DFS, a fresh buffer under BFS — where refinement
	// is free to filter in place without touching the parent's data.
	useArena := e.o.Order != BFS
	blockStart := len(e.arena)
	if useArena {
		e.arena = append(e.arena, cands...)
		cands = e.arena[blockStart:]
	} else {
		buf := make([]int32, 0, xlen+len(cands))
		cands = append(buf, cands...)
	}
	if nd.ext >= 0 {
		e.xmat = appendInsertSorted(e.xmat[:0], x, nd.ext)
		x = e.xmat
	}
	var dead bool
	x, cands, dead = e.refineAndJump(x, cands)
	if dead || len(x)+len(cands) < e.p.MinSize {
		return false, nil
	}

	// Lookahead (Algorithm 1 line 9): if X ∪ candExts(X) is itself a
	// quasi-clique, report it and prune the subtree — every set in the
	// subtree is one of its subsets, hence not maximal. The union lives
	// in a reusable scratch buffer; report implementations copy what
	// they keep (see hooks.report).
	if !e.o.DisableLookahead && len(cands) > 0 {
		e.unionBuf = mergeSortedInto(e.unionBuf[:0], x, cands)
		union := e.unionBuf
		e.fill(e.inU, union)
		if e.g.isQuasiClique(union, e.inU, e.p) {
			return !h.report(union), nil
		}
	}

	// Report X itself when it qualifies (Algorithm 1 line 12).
	if len(x) >= e.p.MinSize {
		e.fill(e.inX, x)
		if e.g.isQuasiClique(x, e.inX, e.p) {
			if !h.needLocalMax || !e.g.extendable(x, e.inX, e.alive, e.p, e.degs) {
				if !h.report(x) {
					return true, nil
				}
			}
		}
	}

	// Generate extensions (Algorithm 1 line 15). Child i keeps only the
	// candidates after position i, so once the remaining pool is too
	// small to ever reach min_size no further child can succeed. The
	// children are views into this node's block: the (possibly jump-
	// grown) X slides in behind the refined candidates so the block is
	// self-contained, and each child records just its extension vertex.
	nkids := 0
	for i := range cands {
		if len(x)+1+(len(cands)-i-1) < e.p.MinSize {
			break
		}
		nkids++
	}
	if nkids == 0 {
		return false, nil
	}
	var xs, cs []int32
	if useArena {
		e.arena = e.arena[:blockStart+len(cands)] // drop the refine gap
		e.arena = append(e.arena, x...)
		end := len(e.arena)
		mid := end - len(x)
		xs = e.arena[mid:end:end]
		cs = e.arena[blockStart:mid:mid]
	} else {
		// cands' backing was sized for the candidate copy plus X, and
		// jumps only move vertices from cands to X, so this append
		// cannot reallocate away from the children's views.
		cs = cands
		xs = append(cands, x...)[len(cands):]
	}
	top := int32(len(e.arena))
	children = e.kids[:0]
	for i := 0; i < nkids; i++ {
		children = append(children, node{
			x:     xs,
			cands: cs[i+1:],
			ext:   cs[i],
			popTo: top,
		})
	}
	children[nkids-1].popTo = nd.popTo
	e.kids = children
	return false, children
}

// refineAndJump alternates candidate refinement with the Quick forced-
// vertex jumps until a fixpoint:
//
//   - critical vertex: if some v ∈ X has indeg+exdeg exactly equal to
//     the minimum degree it must reach (⌈γ(max(min_size,|X|)−1)⌉),
//     every valid quasi-clique in this branch must contain ALL of v's
//     candidate neighbors, so they are committed at once;
//   - cover vertex: if some candidate u is adjacent to every member of
//     X and every other candidate, any quasi-clique avoiding u extends
//     by u (degree requirements grow by at most 1 per added vertex), so
//     maximal quasi-cliques — and the coverage they provide — all
//     contain u.
//
// Both jumps commit vertices instead of branching on them, collapsing
// dense regions that would otherwise be enumerated subset by subset.
// The merged X lives in a pair of alternating per-engine buffers (the
// previous merge is an input to the next), valid until the next node is
// processed.
func (e *engine) refineAndJump(x, cands []int32) (nx, ncands []int32, dead bool) {
	which := 0
	for {
		cands, dead = e.refine(x, cands)
		if dead {
			return x, cands, true
		}
		if e.o.DisableJumps || len(x) == 0 || len(cands) == 0 {
			return x, cands, false
		}
		forced := e.forcedCandidates(x, cands)
		if len(forced) == 0 {
			return x, cands, false
		}
		merged := mergeSortedInto(e.xbufs[which][:0], x, forced)
		e.xbufs[which] = merged
		which ^= 1
		x = merged
		cands = removeSorted(cands, forced)
	}
}

// forcedCandidates returns candidates that every valid quasi-clique of
// the branch must include (empty when no jump applies). It relies on
// the scratch bitsets e.inX/e.inC and the degree arrays left at their
// fixpoint by refine. The returned slice aliases a per-engine scratch
// buffer: it is invalidated by the next forcedCandidates call, so
// callers consume it before looping.
func (e *engine) forcedCandidates(x, cands []int32) []int32 {
	minNeedX := int(e.minDegTab[max(e.p.MinSize, len(x))])
	for _, v := range x {
		in, ex := int(e.degIn[v]), int(e.degEx[v])
		if ex > 0 && in+ex == minNeedX {
			forced := e.forcedBuf[:0]
			for _, u := range e.g.neighbors(v) {
				if e.inC.Contains(int(u)) {
					forced = append(forced, u)
				}
			}
			e.forcedBuf = forced
			return forced // adjacency is sorted, so forced is sorted
		}
	}
	for _, u := range cands {
		if int(e.degIn[u]) == len(x) && int(e.degEx[u]) == len(cands)-1 {
			e.forcedBuf = append(e.forcedBuf[:0], u)
			return e.forcedBuf
		}
	}
	return nil
}

// appendInsertSorted appends sorted xs with v inserted at its rank onto
// dst (v must not already occur in xs).
func appendInsertSorted(dst, xs []int32, v int32) []int32 {
	i := 0
	for ; i < len(xs) && xs[i] < v; i++ {
	}
	dst = append(dst, xs[:i]...)
	dst = append(dst, v)
	return append(dst, xs[i:]...)
}

// mergeSortedInto merges two disjoint sorted slices onto dst.
func mergeSortedInto(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// removeSorted returns xs without the (sorted) elements of drop,
// filtering in place.
func removeSorted(xs, drop []int32) []int32 {
	w, j := 0, 0
	for _, v := range xs {
		for j < len(drop) && drop[j] < v {
			j++
		}
		if j < len(drop) && drop[j] == v {
			continue
		}
		xs[w] = v
		w++
	}
	return xs[:w]
}

// fill resets a scratch bitset to exactly the given members.
func (e *engine) fill(s *bitset.Set, vs []int32) {
	s.Clear()
	for _, v := range vs {
		s.Add(int(v))
	}
}

// refine applies the candidate quasi-clique pruning of §3.2.2:
//
//   - distance pruning: for γ ≥ 0.5 every quasi-clique has diameter ≤ 2,
//     so candidates farther than 2 from any member of X are dropped
//     (folded into one scratch set with the AND kernels, then a single
//     membership test per candidate);
//   - degree feasibility: members of X (and candidates, were they to
//     join) must be able to reach ⌈γ(s−1)⌉ neighbors using only X and
//     the surviving candidates; otherwise the branch (or candidate) dies;
//   - size upper bound: the attainable size min over X of
//     MaxSizeFor(indeg+exdeg), tightened by candidate counting — a
//     final size s requires s−|X| candidates whose own attainable size
//     reaches s, and the feasible sizes form a downward-closed prefix,
//     so one descending scan over a histogram of per-candidate bounds
//     finds the largest feasible size. s=|X| is always feasible, so the
//     bound can never suppress reporting X itself.
//
// The degree loop iterates to a fixpoint because dropping a candidate
// reduces the extension degrees of the others. Returns the surviving
// candidates (the input slice, filtered in place) and whether the whole
// branch is infeasible.
func (e *engine) refine(x, cands []int32) ([]int32, bool) {
	if len(x) == 0 {
		return cands, false
	}
	e.fill(e.inX, x)
	e.inC.Clear()
	for _, u := range cands {
		e.inC.Add(int(u))
	}

	if e.n2 != nil {
		// Fold the distance-2 sets of X into the candidate bitset with
		// the AND kernels; the surviving candidates stream back out in
		// ascending order, which is exactly the filtered slice.
		e.d2buf.AndInto(e.inC, e.n2[x[0]])
		for _, xv := range x[1:] {
			e.d2buf.IntersectWith(e.n2[xv])
		}
		cands = e.d2buf.AppendTo(cands[:0])
		e.inC.CopyFrom(e.d2buf)
	}

	minNeedX := int(e.minDegTab[max(e.p.MinSize, len(x))])
	minNeedC := int(e.minDegTab[max(e.p.MinSize, len(x)+1)])

	// Degrees are computed once with the fused AND+popcount kernel and
	// then maintained incrementally: dropping a candidate decrements the
	// extension degree of its neighbors. The elimination fixpoint is
	// unique whatever the order of drops, so eager in-scan elimination
	// reaches exactly the candidate set (and verdict) that per-round
	// recomputation would.
	for _, v := range x {
		in, ex := e.splitDegree(v)
		e.degIn[v], e.degEx[v] = int32(in), int32(ex)
	}
	for _, u := range cands {
		in, ex := e.splitDegree(u)
		e.degIn[u], e.degEx[u] = int32(in), int32(ex)
	}
	for {
		maxSize := len(x) + len(cands)
		for _, v := range x {
			avail := int(e.degIn[v] + e.degEx[v])
			if avail < minNeedX {
				return nil, true
			}
			if ms := int(e.maxSizeTab[avail]); ms < maxSize {
				maxSize = ms
			}
		}
		if maxSize < e.p.MinSize || maxSize < len(x) {
			return nil, true
		}
		hist := e.hist[:maxSize+1]
		for i := range hist {
			hist[i] = 0
		}
		changed := false
		w := 0
		for _, u := range cands {
			avail := int(e.degIn[u] + e.degEx[u])
			if avail < minNeedC {
				changed = true
				e.inC.Remove(int(u))
				for _, nb := range e.g.neighbors(u) {
					e.degEx[nb]--
				}
				continue
			}
			if ms := int(e.maxSizeTab[avail]); ms >= maxSize {
				hist[maxSize]++
			} else {
				hist[ms]++
			}
			cands[w] = u
			w++
		}
		cands = cands[:w]
		// Candidate-count size bound: scan feasible sizes downward.
		bound := len(x)
		cum := 0
		for s := maxSize; s > len(x); s-- {
			cum += int(hist[s])
			if cum >= s-len(x) {
				bound = s
				break
			}
		}
		if bound < maxSize {
			maxSize = bound
		}
		if maxSize < e.p.MinSize || maxSize < len(x) {
			return nil, true
		}
		if !changed {
			return cands, false
		}
		if len(x)+len(cands) < e.p.MinSize {
			return nil, true
		}
	}
}

// splitDegree returns |N(v) ∩ X| and |N(v) ∩ cands| using the scratch
// bitsets prepared by refine: one fused AND+popcount pass over the
// adjacency row when the bitset index exists, a neighbor-list walk
// otherwise.
func (e *engine) splitDegree(v int32) (in, ex int) {
	if e.adj != nil {
		return e.adj[v].IntersectCount2(e.inX, e.inC)
	}
	for _, u := range e.g.neighbors(v) {
		if e.inX.Contains(int(u)) {
			in++
		} else if e.inC.Contains(int(u)) {
			ex++
		}
	}
	return in, ex
}
