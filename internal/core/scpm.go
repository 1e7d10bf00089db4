package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/quasiclique"
)

// ErrCanceled is returned (wrapped around context.Cause) when the
// context passed to Mine or MineNaive is done before the search
// finishes. The accompanying *Result holds the well-formed partial
// output collected so far.
var ErrCanceled = quasiclique.ErrCanceled

// ErrBudget is returned when Params.SearchBudget is exhausted; like
// cancellation it comes with the partial result collected so far.
var ErrBudget = quasiclique.ErrBudget

// Mine runs the SCPM algorithm (Algorithm 2) on g and returns the
// attribute sets satisfying σmin/εmin/δmin together with the top-k
// structural correlation patterns of each.
//
// The context is observed throughout the search, including inside the
// quasi-clique engine: when it is done, Mine stops in bounded time and
// returns the partial result alongside an error satisfying
// errors.Is(err, ErrCanceled). A non-nil sink receives streaming events
// as mining proceeds (see Sink for the delivery contract); pass nil for
// batch-only operation.
func Mine(ctx context.Context, g *graph.Graph, p Params, sink Sink) (*Result, error) {
	return mine(ctx, g, p, sink, nil, nil)
}

// mine is the shared walk behind Mine and Remine. A Remine passes the
// previous result and the update leading from its graph to g: clean
// level-1 verdicts are carried over from old's table, and below level 1
// the walk carries or replays clean sets from old's lattice (see
// Remine). A Mine has no previous lattice, so every set it reaches is
// evaluated.
func mine(ctx context.Context, g *graph.Graph, p Params, sink Sink, old *Result, changes *graph.ChangeSet) (*Result, error) {
	m, err := newMiner(ctx, g, p, sink)
	if err != nil {
		return nil, err
	}

	// Level 1 (Algorithm 2 lines 3–15) comes from one table of verdicts,
	// one per frequent single: an injected table answers for every
	// single it covers, a Remine carries the previous run's verdicts of
	// the singles the update left clean, and evaluateLevel1 fills the
	// rest. A sharded run holds the same complete table as every other
	// shard — the non-owned singles' hand-downs and survival verdicts
	// feed the owned subtrees' sibling lists — but emits and counts only
	// the singles it owns.
	var prev *Level1Verdicts
	src := verdictFresh
	switch {
	case p.Level1Verdicts != nil:
		prev, src = p.Level1Verdicts, verdictSealed
		if prev.GraphVersion() != g.Version() {
			return nil, fmt.Errorf("%w (table at version %d, graph at version %d)", ErrStaleVerdicts, prev.GraphVersion(), g.Version())
		}
		if got, want := prev.ParamsKey(), p.Level1Fingerprint(); got != want {
			return nil, fmt.Errorf("core: level-1 verdicts sealed under parameters %q, run uses %q", got, want)
		}
	case old != nil:
		prev, src = old.level1, verdictCarried
	}
	if old != nil {
		m.prev, m.changes = old.lattice, changes
		m.carry = p.DeltaMin == 0 || !m.expMoved(old.lattice)
		m.empty = bitset.New(g.NumVertices())
	}
	singles := m.frequentSingles()
	table := make([]*Level1Verdict, len(singles))
	reused := make([]bool, len(singles))
	for i, a := range singles {
		if src == verdictCarried && m.dirty(a) {
			continue
		}
		table[i] = prev.Lookup(a)
		reused[i] = table[i] != nil
	}
	runErr := m.evaluateLevel1(ctx, singles, table)

	// Replaying is cheap — a verdict reaches its outcome without a
	// search — so it runs in id order on this goroutine, and also after
	// a failed evaluateLevel1, which keeps the singles evaluated so far
	// in the partial result.
	res := &Result{}
	level1 := make([]evalOutcome, len(table))
	buckets := []*bucket{{}}
	var tl tally
	for i, v := range table {
		if v == nil {
			continue
		}
		how := verdictFresh
		if reused[i] {
			how = src
		}
		nv, err := m.replayVerdict(&level1[i], v, how, &tl)
		if err != nil {
			if runErr == nil {
				runErr = err
			}
			break
		}
		table[i] = nv
		m.collect(buckets[0], &level1[i])
	}
	m.em.merge(&tl)
	if p.RecordLattice {
		res.level1 = m.verdictTable(table)
	}
	if runErr != nil {
		return m.finalize(res, buckets, old, runErr)
	}

	// Extension order: ascending support keeps intermediate tidsets
	// small (standard Eclat heuristic); ids break ties for determinism
	// (singles ascend by id, and the sort is stable).
	order := make([]int, len(singles))
	support := make([]int, len(singles))
	for i, a := range singles {
		order[i], support[i] = i, g.AttrSupport(a)
	}
	sort.SliceStable(order, func(x, y int) bool { return support[order[x]] < support[order[y]] })
	var survivors []classItem
	for _, i := range order {
		if level1[i].survive {
			survivors = append(survivors, level1[i].item)
		}
	}
	if m.prev != nil {
		// Clean singles keep their supports, so they keep their relative
		// Eclat order: a recorded children block lists the clean ones
		// in rank order.
		m.rank = make([]int32, g.NumAttributes())
		for pos, i := range order {
			m.rank[singles[i]] = int32(pos)
		}
	}

	// Promote the level-1 certificate discoveries to one global base:
	// every verdict's certificates are absorbed in extension order — the
	// same canonical order at any Parallelism and shard count, since
	// every run holds the complete table — and each surviving subtree
	// walks over a private copy-on-write layer. Subtree-local
	// discoveries never cross a scheduling boundary, so per-set
	// search-node counts stay deterministic, while every subtree starts
	// from all siblings' certificates.
	if !m.p.DisableCertSharing && len(survivors) > 0 {
		global := epsilon.NewCertStore()
		for _, i := range order {
			if table[i] != nil {
				global.Absorb(table[i].Certs)
			}
		}
		for i := range survivors {
			survivors[i].certs = epsilon.NewCertStoreFrom(global)
		}
	}

	// enumerate-patterns (Algorithm 3): each top-level subtree is
	// independent given its right-sibling list, so subtrees parallelize.
	// A sharded run descends only the subtrees it owns; every attribute
	// set below an owned root belongs to this shard by the prefix
	// ownership rule. A Remine carries a clean subtree whole when no set
	// below its root can hold a dirty attribute, now or before the
	// update (reachesDirty).
	var dirtyRoots []int
	for i := range survivors {
		if m.dirty(survivors[i].attrs[0]) {
			dirtyRoots = append(dirtyRoots, i)
		}
	}
	trees := make([]*latticeTree, len(survivors))
	buckets = append(buckets, make([]*bucket, len(survivors))...)
	runErr = m.forEach(ctx, len(survivors), func(i int, w *worker) error {
		item := survivors[i]
		root := item.attrs[0]
		if !m.owns(root) {
			return nil
		}
		st := &subtree{out: &bucket{}}
		if !m.dirty(root) {
			st.old = m.prev.tree(root)
		}
		if m.carry && st.old != nil && !m.reachesDirty(survivors, i, dirtyRoots) && !m.dirtyBelow(st.old, 0) {
			trees[i] = st.old
			m.em.noteReused(int64(st.old.nodes[0].desc))
			return nil
		}
		item.node, item.rec = -1, -1
		if st.old != nil {
			item.node = 0
		}
		if p.RecordLattice {
			st.rec, item.rec = newTree(root, st.old), 0
		}
		buckets[1+i] = st.out
		err := m.extendSubtree(ctx, item, survivors[i+1:], st, w)
		trees[i] = st.rec
		return err
	})
	if runErr == nil && p.RecordLattice {
		// Only a finished walk records a lattice: a Remine takes a set
		// missing from it for one that was never evaluated.
		res.lattice = &Lattice{version: g.Version(), trees: make([]*latticeTree, g.NumAttributes()), exp: m.exp}
		for i, t := range trees {
			if t != nil {
				res.lattice.trees[survivors[i].attrs[0]] = t
			}
		}
	}
	return m.finalize(res, buckets, old, runErr)
}

// newMiner validates p and builds the run state of one mining run over
// g.
func newMiner(ctx context.Context, g *graph.Graph, p Params, sink Sink) (*miner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	qcOpts := p.qcOptions()
	qcOpts.Ctx = ctx
	m := &miner{
		g:        g,
		p:        p,
		qp:       p.QuasiCliqueParams(),
		qcOpts:   qcOpts,
		est:      p.estimator(qcOpts),
		exactEst: epsilon.NewExact(p.QuasiCliqueParams(), qcOpts),
		exp:      newExpTable(p.model(g), g.NumVertices()),
		em:       newEmitter(sink, p.ProgressEvery, time.Now()),
	}
	// Theorem 5's pruning bound needs εexp(σmin) once.
	m.expSigmaMin = m.exp.at(p.SigmaMin)
	if p.ShardOwner != nil {
		m.owner = func(root int32) bool { return p.ShardOwner(g, root) }
	}
	return m, nil
}

// finalizeResult gathers a run's buckets over g into res in canonical
// order, lets carry (when non-nil) merge in the rows a Remine carried,
// and stamps the final counters and, unless carry kept its
// predecessor's, a new list id. Cancellation and budget
// exhaustion surface the partial result alongside the error; any other
// error discards it.
func finalizeResult(res *Result, buckets []*bucket, g *graph.Graph, em *emitter, err error, carry func(*Result)) (*Result, error) {
	// The terminal OnProgress fires however the run ends — the Sink
	// contract promises it, and sinks flush on it.
	defer em.finish()
	if err != nil && !errors.Is(err, ErrCanceled) && !errors.Is(err, ErrBudget) {
		return nil, err
	}
	res.gather(buckets, g.AttrName)
	if carry != nil {
		carry(res)
	}
	if res.list == 0 {
		res.list = lists.Add(1)
	}
	res.Stats = em.snapshot()
	return res, err
}

// finalize is finalizeResult for a mine walk.
func (m *miner) finalize(res *Result, buckets []*bucket, old *Result, err error) (*Result, error) {
	var carry func(*Result)
	if m.carry {
		carry = func(res *Result) { m.mergeCarried(res, old) }
	}
	return finalizeResult(res, buckets, m.g, m.em, err, carry)
}

// miner carries the immutable run state shared by all workers.
type miner struct {
	g           *graph.Graph
	p           Params
	qp          quasiclique.Params
	qcOpts      quasiclique.Options
	est         epsilon.Estimator
	exactEst    *epsilon.Exact
	exp         *expTable
	em          *emitter
	expSigmaMin float64

	// owner, when non-nil, claims the top-level roots this run owns
	// (Params.ShardOwner bound to the mined graph); nil owns everything.
	owner func(root int32) bool

	// Incremental re-mining state, zero for a full mine: prev is the
	// previous run's lattice and changes the update it is valid across;
	// carry says clean sets are carried rather than replayed; rank is
	// each frequent single's position in the Eclat order, and empty the
	// hand-down of a clean set that recorded none.
	prev    *Lattice
	changes *graph.ChangeSet
	carry   bool
	rank    []int32
	empty   *bitset.Set
}

// subtree is the walk state of one top-level subtree: the previous
// generation's recorded table of it (nil when there is none), the table
// this run records (nil when it records none), and the bucket its rows
// go to.
type subtree struct {
	old, rec *latticeTree
	out      *bucket
}

// classItem is a node of the attribute-set search tree: the set, its
// member vertices and its covered set K_S (Theorem 3 hands K_S down to
// restrict the children's quasi-clique searches). attrs lists the set
// in Eclat order, which the sampled estimator's per-set seed depends
// on, and ids lists it ascending, as the result stores it.
type classItem struct {
	attrs   []int32
	ids     []int32
	members *bitset.Set
	covered *bitset.Set
	// certs is the coverage certificate store shared by this item's
	// whole subtree: a private layer over the run's global base, created
	// once per surviving level-1 item and handed down. The subtree is
	// walked sequentially, so the store needs no locking and the per-set
	// search-node counts stay independent of worker scheduling. Nil at
	// level 1 and when sharing is disabled.
	certs *epsilon.CertStore
	// node is the item's node in its subtree's previous table (-1 when
	// it has none) and rec its node in the table this run records (-1
	// when it records none). carried marks a clean set a Remine took
	// over without scoring it.
	node, rec int32
	carried   bool
}

// evalOutcome couples an evaluated item with its bucket contributions.
// score fills one in place: at 160 bytes it is too wide to return by
// value on every evaluation.
type evalOutcome struct {
	item    classItem
	survive bool
	// emit reports that the set passed the output thresholds; set is
	// then its row, minus the place of its ids, which the bucket fills
	// in.
	emit bool
	set  row
	pats []Pattern
}

// worker is the state one forEach goroutine owns: its tally, and the
// stacks its subtree walks carve per-set storage from. A walk releases
// what it carved as it returns, so one worker reuses the same storage
// for every set of every subtree it walks. Anything that outlives the
// walk — a lattice entry, a result row — is copied out.
type worker struct {
	tally
	// bits holds the V(S), Theorem-3 candidate and hand-down sets of
	// the items on the open walk path and their pending siblings.
	bits bitset.Stack
	// attrs holds those items' attribute lists, in Eclat order and
	// ascending, and items the children lists of the open levels.
	attrs []int32
	items []classItem
}

// workerMark records a worker's stack tops; release returns to them.
type workerMark struct {
	bits         bitset.StackMark
	attrs, items int
}

func (w *worker) mark() workerMark {
	return workerMark{w.bits.Mark(), len(w.attrs), len(w.items)}
}

func (w *worker) release(mk workerMark) {
	w.bits.Release(mk.bits)
	w.attrs, w.items = w.attrs[:mk.attrs], w.items[:mk.items]
}

// childAttrs forms, on the worker's stack, the attribute set of the
// child obtained by extending item with its sibling's last attribute:
// attrs in Eclat order, and ids ascending by one insertion into item's.
func (w *worker) childAttrs(item *classItem, last int32) (attrs, ids []int32) {
	start := len(w.attrs)
	w.attrs = append(append(w.attrs, item.attrs...), last)
	mid := len(w.attrs)
	i := len(item.ids)
	for i > 0 && item.ids[i-1] > last {
		i--
	}
	w.attrs = append(append(append(w.attrs, item.ids[:i]...), last), item.ids[i:]...)
	end := len(w.attrs)
	return w.attrs[start:mid:mid], w.attrs[mid:end:end]
}

// owns reports whether this run owns the subtree rooted at root.
func (m *miner) owns(root int32) bool { return m.owner == nil || m.owner(root) }

// dirty reports whether the update a Remine runs across may have
// changed attribute a's member set or its induced subgraph.
func (m *miner) dirty(a int32) bool { return m.changes != nil && m.changes.DirtyAttrs.Contains(int(a)) }

// reachesDirty reports whether the subtree of survivors[i] holds a
// set with a dirty attribute in this run: whether a dirty single d
// after it, one of survivors[dirty], has |V({root, d})| ≥ σmin. Every
// set below the root that holds d descends from {root, d}.
func (m *miner) reachesDirty(survivors []classItem, i int, dirty []int) bool {
	for _, j := range dirty {
		if j > i && survivors[i].members.IntersectCount(survivors[j].members) >= m.p.SigmaMin {
			return true
		}
	}
	return false
}

// dirtyBelow reports whether a set below node i of t holds a dirty
// attribute. Every set below a node that holds attribute d descends
// from the node's child extended by d, so the children alone decide.
func (m *miner) dirtyBelow(t *latticeTree, i int32) bool {
	_, kids := t.block(i)
	for k := range kids {
		if m.dirty(kids[k].attr) {
			return true
		}
	}
	return false
}

// frequentSingles returns the attribute ids with support ≥ σmin,
// ascending.
func (m *miner) frequentSingles() []int32 {
	var out []int32
	for a := int32(0); a < int32(m.g.NumAttributes()); a++ {
		if m.g.AttrSupport(a) >= m.p.SigmaMin {
			out = append(out, a)
		}
	}
	return out
}

// forEach runs fn(0..n-1) either sequentially or on the configured
// worker pool, propagating the first error. The context is checked
// before each task so cancellation is observed between evaluations even
// when the individual searches are too small to poll it themselves.
//
// Task dispatch is a lock-free atomic counter: workers claim indices
// with next.Add and bail out once failed flips, so the only
// synchronization on the hot path is one fetch-add per task. The first
// error to arrive wins (recorded exactly once through errOnce); workers
// that already claimed a task finish it, but no new tasks are claimed
// after the failure is published.
//
// Each worker owns a tally for the scheduling-sensitive counters and
// merges it into the emitter when it exits (errors included), so the
// run totals are identical for every Parallelism value.
func (m *miner) forEach(ctx context.Context, n int, fn func(i int, w *worker) error) error {
	workers := m.p.Parallelism
	if workers <= 1 || n <= 1 {
		var w worker
		defer m.em.merge(&w.tally)
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return quasiclique.Canceled(ctx)
			}
			if err := fn(i, &w); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	var (
		wg      sync.WaitGroup
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		rerr    error
	)
	record := func(err error) {
		errOnce.Do(func() { rerr = err })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			defer m.em.merge(&w.tally)
			for !failed.Load() {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				err := ctx.Err()
				if err != nil {
					err = quasiclique.Canceled(ctx)
				} else {
					err = fn(int(i), &w)
				}
				if err != nil {
					record(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return rerr
}

// extendSubtree explores all attribute sets extending item with
// attributes from its right-sibling list (Algorithm 3), collecting
// emissions into st.out and recording the children into st.rec. Each
// child's attribute list, V(S), candidate restriction and hand-down are
// carved from w's stacks: a child that does not survive frees them at
// once, and the survivors' are freed when their subtrees are done.
//
// In a Remine a clean child is found in item's previous children block
// and carried or replayed from it rather than evaluated. A carried
// child is walked when a child that was not carried follows it — its
// own children then include sets that need evaluating — or when it had
// a dirty child before the update, which must go; otherwise it is
// carried with all its descendants.
func (m *miner) extendSubtree(ctx context.Context, item classItem, siblings []classItem, st *subtree, w *worker) error {
	first, nkids := int32(st.rec.size()), int32(0)
	if m.p.MaxAttrs > 0 && len(item.attrs) >= m.p.MaxAttrs {
		st.rec.closeBlock(item.rec, first, 0)
		return nil
	}
	n := m.g.NumVertices()
	entry := w.mark()
	defer w.release(entry)
	base, prev := st.old.block(item.node)
	j := 0
	var ev Evaluation
	var rec *Evaluation
	var res evalOutcome
	for k := range siblings {
		sib := &siblings[k]
		if ctx.Err() != nil {
			return quasiclique.Canceled(ctx)
		}
		last := sib.attrs[len(sib.attrs)-1]
		o := int32(-1)
		if prev != nil && !m.dirty(last) {
			// Clean singles keep their relative order, so the previous
			// block is consumed in step with the siblings.
			for j < len(prev) && (m.dirty(prev[j].attr) || m.rank[prev[j].attr] < m.rank[last]) {
				j++
			}
			if j < len(prev) && prev[j].attr == last {
				o = base + int32(j)
				j++
			} else if m.carry {
				// Never evaluated, so V(S), unchanged, is below σmin.
				continue
			}
		}
		child := w.mark()
		attrs, ids := w.childAttrs(&item, last)
		if o >= 0 && m.carry {
			nd := &st.old.nodes[o]
			m.em.noteReused(1)
			res.emit, res.survive = false, m.survives(nd.kmass)
			res.item.rec = st.rec.carry(st.old, o)
			if res.survive {
				members, _ := w.bits.PushAnd(item.members, sib.members)
				res.item = classItem{attrs: attrs, ids: ids, members: members, covered: st.old.handdown(o, n, m.empty),
					certs: item.certs, node: o, rec: res.item.rec, carried: true}
			}
		} else {
			members, sigma := w.bits.PushAnd(item.members, sib.members)
			res.item = classItem{attrs: attrs, ids: ids, members: members, certs: item.certs}
			if st.rec != nil {
				ev, rec = Evaluation{}, &ev
			}
			var err error
			if o >= 0 {
				// Replay: the recorded evaluation is the current one;
				// only the δ-normalization (recomputed by score) moved.
				m.em.noteReused(1)
				sigma = int(st.old.nodes[o].sigma)
				cached := st.old.evaluation(o, n, m.empty)
				err = m.score(&res, sigma, &cached.Estimate, &cached, rec, &w.tally)
			} else {
				if sigma < m.p.SigmaMin {
					w.release(child)
					continue
				}
				// Theorem 3: quasi-cliques of G(S) lie inside both parents'
				// covered sets, so the search may be restricted to their
				// intersection.
				candidates := members
				if !m.p.DisableVertexPruning {
					candidates, _ = w.bits.PushAnd(item.covered, sib.covered)
				}
				err = m.evaluate(&res, candidates, sigma, rec, &w.tally)
			}
			if err != nil {
				return err
			}
			res.item.node, res.item.rec = o, st.rec.add(last, sigma, rec)
		}
		nkids++
		m.collect(st.out, &res)
		if res.survive {
			w.items = append(w.items, res.item)
		} else {
			w.release(child)
		}
	}
	children := w.items[entry.items:]
	walk := -1
	for i := range children {
		if !children[i].carried {
			walk = i
		}
	}
	for i := range children {
		if c := &children[i]; c.carried && i > walk && !m.dirtyBelow(st.old, c.node) {
			st.rec.carryDescendants(c.rec, st.old, c.node)
			m.em.noteReused(int64(st.old.nodes[c.node].desc))
			continue
		}
		if err := m.extendSubtree(ctx, children[i], children[i+1:], st, w); err != nil {
			return err
		}
	}
	st.rec.closeBlock(item.rec, first, nkids)
	return nil
}

// evaluate computes ε(S) and δ(S) for one attribute set, decides
// emission and survival, and mines the top-k patterns when S qualifies.
//
//   - out.item is S, as score takes it, with its members V(S) of size
//     sigma;
//   - candidates ⊆ V(S) restricts the coverage search (Theorem 3).
//
// The ε computation itself is delegated to the run's estimator layer
// (exact coverage search or Hoeffding-bounded vertex sampling); the
// estimate carries the covered-set hand-down and the |K_S| upper bound
// the pruning rules below rely on, so Theorems 3–5 stay sound in both
// modes. The outcome goes to out, and a non-nil rec receives the
// evaluation.
func (m *miner) evaluate(out *evalOutcome, candidates *bitset.Set, sigma int, rec *Evaluation, tl *tally) error {
	set := &out.item
	est, err := m.est.EstimateWithCerts(m.g, set.attrs, set.members, candidates, set.certs)
	if err != nil {
		return err
	}
	m.em.noteEvaluated()
	tl.noteSearchNodes(est.Nodes)
	tl.noteSampled(int64(est.SampledVertices))
	return m.score(out, sigma, &est, nil, rec, tl)
}

// newCertStore returns a fresh certificate store, or nil when sharing
// is disabled (a nil store degrades every consumer to store-free
// behavior).
func (m *miner) newCertStore() *epsilon.CertStore {
	if m.p.DisableCertSharing {
		return nil
	}
	return epsilon.NewCertStore()
}

// survives applies the Theorem 4 (ε) and Theorem 5 (δ) survival bounds:
// a superset S' has ε(S')·σ(S') ≤ ε(S)·σ(S) = |K_S|, so S is extended
// only when |K_S| could still satisfy both output thresholds at support
// σmin. In sampled mode kmass upper-bounds |K_S| (w.p. 1−δ), keeping
// the pruning sound at the configured confidence.
func (m *miner) survives(kmass float64) bool {
	return m.p.DisableSetPruning ||
		kmass >= m.p.EpsMin*float64(m.p.SigmaMin) && kmass >= m.p.DeltaMin*m.expSigmaMin*float64(m.p.SigmaMin)
}

// score turns one ε estimate of the set out.item — freshly computed, or
// replayed from the memoized evaluation cached — into the evaluation
// outcome: survival under Theorems 4–5, emission against the output
// thresholds, and pattern mining for qualifying sets, reusing cached's
// exact hand-down and patterns where it has them. The caller fills
// out.item's attribute lists, members and certificate store; score sets
// its hand-down and every other field of out, except the row of a set
// it does not emit. A non-nil rec receives the evaluation: est, plus
// the exact hand-down and patterns this run used.
func (m *miner) score(out *evalOutcome, sigma int, est *epsilon.Estimate, cached, rec *Evaluation, tl *tally) error {
	set := &out.item
	eps := est.Epsilon
	expEps := m.exp.at(sigma)
	delta := NormalizeDelta(eps, expEps)

	set.covered = est.Handdown
	out.emit, out.pats = false, nil

	if rec != nil {
		rec.Estimate = *est
	}
	out.survive = m.survives(est.KMass)

	if eps >= m.p.EpsMin && delta >= m.p.DeltaMin && len(set.attrs) >= m.p.minAttrs() {
		out.emit = true
		out.set = row{
			support:   int32(sigma),
			epsilon:   eps,
			expEps:    expEps,
			delta:     delta,
			covered:   int32(est.Covered),
			estimated: est.Estimated,
			epsErr:    est.ErrBound,
			sampled:   int32(est.SampledVertices),
		}
		// Patterns are mined from K_S. An estimated evaluation does not
		// know K_S, so it is computed lazily here — restricted to the
		// hand-down superset (Theorem 3), and only for sets that
		// actually pass the output thresholds, which keeps the sampling
		// speedup intact while the reported patterns stay exact.
		if (m.p.K > 0 || m.p.AllPatterns) && !est.Handdown.IsEmpty() {
			base := est.Handdown
			if est.Estimated {
				if cached != nil && cached.Exact != nil {
					base = grownTo(cached.Exact, m.g.NumVertices())
				} else {
					exact, err := m.exactEst.EstimateWithCerts(m.g, set.attrs, set.members, est.Handdown, set.certs)
					if err != nil {
						return err
					}
					tl.noteSearchNodes(exact.Nodes)
					base = exact.Handdown
				}
				// The exact K_S is in hand now — hand it down to the
				// children instead of the looser sampled superset, just
				// like exact mode would (Theorem 3). A shard refines the
				// singles it does not own too: a sibling's child in an
				// owned subtree intersects this hand-down, so it must
				// match the single-process one bit for bit.
				set.covered = base
				if rec != nil {
					rec.Exact = base
				}
			}
			if !base.IsEmpty() {
				if cached != nil && cached.HasPatterns {
					out.pats = cached.Patterns
				} else {
					pats, err := m.topPatterns(set.ids, base)
					if err != nil {
						return err
					}
					out.pats = pats
				}
				if rec != nil {
					rec.Patterns, rec.HasPatterns = out.pats, true
				}
			}
		}
	}
	return nil
}

// topPatterns mines the top-k quasi-cliques of G(S), whose ascending ids
// are ids — or, in SCORP mode, all of them. Since every quasi-clique
// lives inside K_S, the search runs on the covered set.
func (m *miner) topPatterns(ids []int32, covered *bitset.Set) ([]Pattern, error) {
	attrs := slices.Clone(ids)
	sub := m.g.InducedByMembers(covered)
	qg := quasiclique.NewGraphCSR(sub.CSR())
	var top []quasiclique.Pattern
	var err error
	if m.p.AllPatterns {
		top, err = quasiclique.EnumerateMaximal(qg, m.qp, m.qcOpts)
	} else {
		top, err = quasiclique.TopK(qg, m.qp, m.p.K, m.qcOpts)
	}
	if err != nil {
		return nil, err
	}
	names := m.g.AttrSetNames(attrs)
	out := make([]Pattern, len(top))
	for i, q := range top {
		verts := make([]int32, len(q.Vertices))
		for j, lv := range q.Vertices {
			verts[j] = sub.Orig[lv]
		}
		out[i] = Pattern{
			Attrs:    attrs,
			Names:    names,
			Vertices: verts,
			MinDeg:   q.MinDeg,
			Edges:    q.Edges,
		}
	}
	return out, nil
}

// collect moves an outcome's emissions into a result bucket and
// streams them to the sink.
func (m *miner) collect(b *bucket, out *evalOutcome) {
	if out.emit {
		b.emit(m.em, m.g, &out.set, out.item.ids, out.pats)
	}
}
