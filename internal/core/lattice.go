package core

import (
	"context"
	"fmt"
	"sync"

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
// id and certificates, a lattice entry this record plus V(S).
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
// those are the entries a Remine replays from here.
type Lattice struct {
	// version is the data version of the graph the lattice was
	// recorded against; Remine requires the ChangeSet it is given to
	// start exactly there, so a skipped intermediate update cannot
	// silently replay stale evaluations.
	version uint64
	mu      sync.Mutex
	m       map[string]*latticeEntry
}

// latticeEntry memoizes one evaluated attribute set.
type latticeEntry struct {
	Evaluation
	// members is V(S) with sigma = |V(S)|, retained so a replay skips
	// the Eclat tidset intersection entirely for clean sets (the
	// dominant cost on attribute-heavy datasets).
	members *bitset.Set
	sigma   int
}

// newLattice builds an empty lattice for the given graph data version.
func newLattice(version uint64) *Lattice {
	return &Lattice{version: version, m: make(map[string]*latticeEntry)}
}

// Size returns the number of memoized attribute sets.
func (l *Lattice) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// get looks up a memoized evaluation. It is called without the lock by
// Remine workers: the consumed lattice belongs to a finished run and
// is never written again.
func (l *Lattice) get(key string) (*latticeEntry, bool) {
	e, ok := l.m[key]
	return e, ok
}

// put records an evaluation; workers of the recording run call it
// concurrently.
func (l *Lattice) put(key string, e *latticeEntry) {
	l.mu.Lock()
	l.m[key] = e
	l.mu.Unlock()
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

// Remine incrementally re-mines g — a graph obtained from a previous
// version by one or more Graph.Apply updates — reusing the previous
// run's result where the update provably cannot have changed it.
//
// old must be the result of mining the previous graph version with the
// same Params (thresholds, γ, min_size, ε mode, seed …) and with
// RecordLattice set; changes must be the ChangeSet of the update (or
// the Merge of the consecutive ChangeSets) leading from that version
// to g. Remine then walks the same search lattice a full Mine of g
// would, but every attribute set disjoint from changes.DirtyAttrs is
// carried over instead of re-searched — a single from the previous
// run's level-1 verdict table, a larger set from its recorded
// lattice: its ε,
// covered counts and patterns are carried over by value, only the
// δ-normalization is re-derived (the null model depends on the global
// degree distribution, so δ can shift for every set after any edge
// change). Stats.ReusedSets / Stats.RecomputedSets report the split.
//
// The output is identical — sets, ε, δ, patterns and therefore stable
// ids — to Mine(ctx, g, p, sink), in both exact and sampled ε modes
// (sampled estimates are deterministic in the seed and the set, and
// clean sets replay the exact covered-set hand-downs, so the sampling
// chain replays bit-for-bit).
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
