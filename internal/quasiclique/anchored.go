package quasiclique

import (
	"slices"

	"github.com/scpm/scpm/internal/bitset"
)

// Engine is a reusable handle for anchored membership queries over one
// graph: "does vertex v belong to at least one γ-quasi-clique of size ≥
// min_size?". Construction runs the degree peel (and, for γ ≥ 0.5, the
// distance-2 index) once; every CoversVertex call then reuses those
// structures plus the engine's scratch buffers, so a batch of queries on
// the same graph — the access pattern of sampling-based ε estimation —
// pays the setup cost a single time.
//
// An Engine additionally memoizes coverage across queries: every
// quasi-clique the anchored searches happen to report marks all of its
// vertices as covered, and later queries for those vertices return
// immediately. An Engine is therefore stateful and NOT safe for
// concurrent use; callers needing parallel queries build one Engine per
// goroutine.
//
// Options.MaxNodes, when set, bounds the total nodes across all of the
// Engine's queries combined (the natural per-induced-graph budget).
type Engine struct {
	e     *engine
	ov    *orderedView // queries run in degeneracy-relabeled id space
	found *bitset.Set  // vertices proven covered, in relabeled ids

	// component decomposition, built lazily on the first query that can
	// use it (γ ≥ 0.5 without the distance-2 index); comps are views
	// into the retained engine's arena, which is never reset
	compsBuilt bool
	compOf     []int32 // component index per vertex, -1 when dead
	comps      [][]int32

	candsBuf []int32 // reusable root-candidate buffer (one per query)

	certSink func(q []int32) // see SetCertSink
	certBuf  []int32
}

// SetCertSink registers fn to receive every quasi-clique the engine's
// queries report, in g's vertex ids sorted ascending. The slice is
// reused across calls; receivers copy what they keep. Callers use the
// sink to harvest coverage certificates from anchored searches (the
// sets remain quasi-cliques in any graph that contains them induced).
func (q *Engine) SetCertSink(fn func(q []int32)) { q.certSink = fn }

// NewEngine validates the parameters and builds a query handle for g.
// Like Coverage, the internal search runs on a degeneracy-relabeled
// copy of g (the CoversVertex verdict is a property of the vertex, not
// of the labeling), so queries translate v at the boundary.
func NewEngine(g *Graph, p Params, o Options) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ov := newOrderedView(g)
	return &Engine{e: newEngine(ov.g, p, o), ov: ov, found: bitset.New(g.n)}, nil
}

// NodesVisited reports the total number of candidate-tree nodes
// processed across all queries so far.
func (q *Engine) NodesVisited() int64 { return q.e.nodes }

// CoversVertex reports whether v is a member of at least one
// γ-quasi-clique of size ≥ min_size — the per-vertex membership query
// behind sampled ε estimation (§6 of the paper). The search is anchored:
// branches that can no longer produce a set containing v are pruned, and
// the first reported quasi-clique containing v ends the query. Out-of-
// range vertices are reported as not covered.
func (q *Engine) CoversVertex(v int32) (bool, error) {
	if v < 0 || int(v) >= q.e.g.n {
		return false, nil
	}
	v = q.ov.newOf[v] // relabeled id space from here on
	// Peeled vertices cannot be members (Algorithm 1 line 4), and
	// vertices already seen inside a reported quasi-clique need no
	// further search.
	if !q.e.alive.Contains(int(v)) {
		return false, nil
	}
	if q.found.Contains(int(v)) {
		return true, nil
	}
	cands := q.candsFor(v)
	if len(cands)+1 < q.e.p.MinSize {
		return false, nil
	}
	// The search is rooted at X = {v}: every quasi-clique containing v
	// is {v} ∪ (a subset of the other candidates), so enumerating the
	// subsets of cands on top of that root is complete for v — and no
	// node outside v's subtree is ever generated. The candidate-tree
	// invariant only requires each child to keep the candidates after
	// its own extension point, which holds for any sorted root.
	covered := false
	h := hooks{
		// Maximality is irrelevant here: a non-maximal valid set extends
		// to a maximal quasi-clique, and supersets keep v, so the first
		// reported set — which contains v by construction — proves
		// membership.
		report: func(set []int32) bool {
			for _, u := range set {
				q.found.Add(int(u))
			}
			if q.certSink != nil {
				q.certBuf = q.certBuf[:0]
				for _, u := range set {
					q.certBuf = append(q.certBuf, q.ov.origOf[u])
				}
				slices.Sort(q.certBuf)
				q.certSink(q.certBuf)
			}
			covered = true
			return false
		},
	}
	_, err := q.e.runFrontier(node{x: []int32{v}, cands: cands, ext: -1}, h)
	if err != nil {
		return false, err
	}
	return covered, nil
}

// candsFor returns a sorted candidate slice (v excluded) for the search
// anchored at v, in relabeled ids. For γ ≥ 0.5 every quasi-clique has
// diameter ≤ 2, so a quasi-clique containing v lies entirely inside
// N₂(v) — the engine's precomputed distance-2 set — which shrinks the
// candidates from v's whole component to a degree-squared-sized
// neighborhood. Otherwise the candidates are v's component (or the
// whole peeled set when γ < 0.5 makes the split unsound). The slice is
// a per-Engine buffer (refinement filters the root's candidates in
// place, and each query's search completes before the next begins).
func (q *Engine) candsFor(v int32) []int32 {
	if q.e.n2 != nil && q.e.n2[v] != nil {
		q.candsBuf = q.e.n2[v].AppendTo(q.candsBuf[:0])
		return dropSorted(q.candsBuf, v)
	}
	if q.e.p.Gamma < 0.5 {
		q.candsBuf = q.e.alive.AppendTo(q.candsBuf[:0])
		return dropSorted(q.candsBuf, v)
	}
	if !q.compsBuilt {
		q.comps = q.e.components()
		q.compOf = make([]int32, q.e.g.n)
		for i := range q.compOf {
			q.compOf[i] = -1
		}
		for ci, comp := range q.comps {
			for _, u := range comp {
				q.compOf[u] = int32(ci)
			}
		}
		q.compsBuilt = true
	}
	ci := q.compOf[v]
	if ci < 0 {
		return nil
	}
	q.candsBuf = append(q.candsBuf[:0], q.comps[ci]...)
	return dropSorted(q.candsBuf, v)
}

// dropSorted removes v from the ascending slice xs in place (no-op when
// absent).
func dropSorted(xs []int32, v int32) []int32 {
	i, ok := slices.BinarySearch(xs, v)
	if !ok {
		return xs
	}
	return append(xs[:i], xs[i+1:]...)
}
