package core

import (
	"context"
	"errors"

	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
)

// ErrStaleVerdicts is returned by Mine when Params.Level1Verdicts was
// sealed at a different graph version than the graph being mined.
var ErrStaleVerdicts = errors.New("core: level-1 verdicts sealed at a different graph version")

// Level1Verdict seals one frequent single attribute's complete level-1
// evaluation: everything a mining run derives from the coverage search
// of {Attr} — the ε estimate, the Theorem-3 hand-down, the lazily
// refined exact hand-down of sampled mode, the mined patterns, the
// search-node bill and the coverage certificates the search discovered.
// Every run reaches level 1 through verdicts, so a run handed a verdict
// reproduces the evaluation bit-identically — sibling lists, survival,
// emission and merged stats included — without running any coverage
// search.
//
// Member sets are NOT sealed: V({a}) is the graph's own attribute
// posting (graph.AttrMembers), identical by construction, so sealing it
// would only bloat the manifest.
type Level1Verdict struct {
	// Attr is the evaluated single attribute id.
	Attr int32
	// Evaluation is the sealed evaluation of {Attr}. Its Nodes is the
	// evaluation's total search-node bill (the ε search plus the lazy
	// exact refinement), credited to the run that owns the single so
	// merged shard stats still sum to the single-process counters.
	Evaluation
	// Certs are the coverage certificates the sealed searches captured,
	// in discovery order, as a frozen store (epsilon.CertStore.Frozen);
	// nil when there are none. Absorbing every verdict's certificates in
	// extension order builds the identical global certificate store,
	// keeping downstream search-node counts deterministic across shard
	// counts.
	Certs *epsilon.CertStore
}

// Level1Verdicts is the level-1 table of one graph version: one verdict
// per frequent single, keyed by attribute id and pinned to the graph
// version and parameter fingerprint it was computed under. Every Mine
// builds one (ComputeLevel1 runs the same code alone); a lattice-
// recording run keeps it for Remine, which carries the clean verdicts
// forward; internal/shard seals it into scpm-manifest/v2 and injects it
// into shard workers via Params.Level1Verdicts.
type Level1Verdicts struct {
	graphVersion uint64
	paramsKey    string
	byAttr       map[int32]*Level1Verdict
}

// NewLevel1Verdicts returns an empty verdict set for the given graph
// version and parameter fingerprint (Params.Level1Fingerprint).
func NewLevel1Verdicts(graphVersion uint64, paramsKey string) *Level1Verdicts {
	return &Level1Verdicts{
		graphVersion: graphVersion,
		paramsKey:    paramsKey,
		byAttr:       make(map[int32]*Level1Verdict),
	}
}

// Add records one verdict, replacing any previous verdict for the same
// attribute.
func (v *Level1Verdicts) Add(d *Level1Verdict) { v.byAttr[d.Attr] = d }

// Lookup returns the verdict for an attribute, or nil (also on a nil
// table).
func (v *Level1Verdicts) Lookup(attr int32) *Level1Verdict {
	if v == nil {
		return nil
	}
	return v.byAttr[attr]
}

// Len reports the number of sealed verdicts.
func (v *Level1Verdicts) Len() int { return len(v.byAttr) }

// GraphVersion is the data version the verdicts were computed at; Mine
// refuses a table sealed at any other version with ErrStaleVerdicts.
func (v *Level1Verdicts) GraphVersion() uint64 { return v.graphVersion }

// ParamsKey is the Level1Fingerprint of the parameters the verdicts
// were computed under; a run whose fingerprint differs refuses them.
func (v *Level1Verdicts) ParamsKey() string { return v.paramsKey }

// ComputeLevel1 evaluates every frequent single attribute of g under p
// — exactly as Mine does, parallelized the same way — and returns the
// level-1 table for injection into sharded runs. p is the full mining
// parameter block of the runs that will consume the verdicts;
// ShardOwner, Level1Verdicts and RecordLattice are ignored.
func ComputeLevel1(ctx context.Context, g *graph.Graph, p Params) (*Level1Verdicts, error) {
	p.ShardOwner, p.Level1Verdicts, p.RecordLattice = nil, nil, false
	m, err := newMiner(ctx, g, p, nil)
	if err != nil {
		return nil, err
	}
	singles := m.frequentSingles()
	table := make([]*Level1Verdict, len(singles))
	if err := m.evaluateLevel1(ctx, singles, table); err != nil {
		return nil, err
	}
	return m.verdictTable(table), nil
}

// evaluateLevel1 fills every nil slot of table — indexed like singles,
// the run's frequent singles — with a fresh verdict (Algorithm 2 lines
// 3–15). These evaluations are independent, so they parallelize
// directly; each gets its own certificate store, so no search depends
// on worker scheduling. On error the slots evaluated so far stay
// filled.
func (m *miner) evaluateLevel1(ctx context.Context, singles []int32, table []*Level1Verdict) error {
	return m.forEach(ctx, len(singles), func(i int, _ *worker) error {
		if table[i] != nil {
			return nil
		}
		a := singles[i]
		attrs := []int32{a}
		members := m.g.AttrMembers(a)
		store := m.newCertStore()
		// A private tally isolates this single's node bill; the owning
		// run credits it when the verdict is replayed.
		var local tally
		est, err := m.est.EstimateWithCerts(m.g, attrs, members, members, store)
		if err != nil {
			return err
		}
		local.noteSearchNodes(est.Nodes)
		v := &Level1Verdict{Attr: a}
		out := evalOutcome{item: classItem{attrs: attrs, ids: attrs, members: members, certs: store}}
		if err := m.score(&out, members.Count(), &est, nil, &v.Evaluation, &local); err != nil {
			return err
		}
		v.Nodes, v.Certs = local.nodes, store.Frozen()
		table[i] = v
		return nil
	})
}

// verdictSource says where a run took a level-1 verdict from, which
// decides how replaying it is counted.
type verdictSource int

const (
	// verdictFresh was evaluated by this run: counted as evaluated.
	verdictFresh verdictSource = iota
	// verdictSealed came from Params.Level1Verdicts: counted as
	// evaluated (with its sealed node bill) and as a reused verdict.
	verdictSealed
	// verdictCarried came from the previous run's table in a Remine:
	// counted as a reused set.
	verdictCarried
)

// replayVerdict is the one path from a level-1 verdict to the single's
// outcome, which goes to out. The member set comes from the graph's
// attribute posting and the verdict routes through score like a lattice
// replay, so no coverage search runs unless the null model moved δ
// across a threshold the verdict was not scored against. A single the run owns is
// emitted and counted (as src says); any other single only feeds the
// owned subtrees' right-sibling lists. The returned verdict is v,
// completed with whatever score had to compute — the entry the run's
// own table keeps, and the only place the run memoizes the single.
func (m *miner) replayVerdict(out *evalOutcome, v *Level1Verdict, src verdictSource, tl *tally) (*Level1Verdict, error) {
	attrs := []int32{v.Attr}
	members := m.g.AttrMembers(v.Attr)
	owned := m.owns(v.Attr)
	switch {
	case !owned:
		tl = new(tally)
	case src == verdictCarried:
		m.em.noteReused(1)
	default:
		m.em.noteEvaluated()
		if src == verdictSealed {
			m.em.noteVerdictReplayed()
		}
		tl.noteSearchNodes(v.Nodes)
		tl.noteSampled(int64(v.SampledVertices))
	}
	est := v.Estimate
	est.Handdown = grownTo(est.Handdown, m.g.NumVertices())
	nv := &Level1Verdict{Attr: v.Attr, Certs: v.Certs}
	out.item = classItem{attrs: attrs, ids: attrs, members: members}
	if err := m.score(out, members.Count(), &est, &v.Evaluation, &nv.Evaluation, tl); err != nil {
		return nil, err
	}
	if !owned {
		out.emit, out.pats = false, nil
	}
	return nv, nil
}

// verdictTable collects the filled slots of a level-1 table.
func (m *miner) verdictTable(table []*Level1Verdict) *Level1Verdicts {
	out := NewLevel1Verdicts(m.g.Version(), m.p.Level1Fingerprint())
	for _, v := range table {
		if v != nil {
			out.Add(v)
		}
	}
	return out
}
