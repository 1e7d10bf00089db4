// Package core implements structural correlation pattern mining: the
// SCPM algorithm (Algorithms 2–3 of the paper, with the pruning rules of
// Theorems 3–5 and the BFS/DFS coverage search of §3.2.2) and the naive
// baseline of §3.1 (Eclat × full quasi-clique enumeration).
package core

import (
	"fmt"

	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/nullmodel"
	"github.com/scpm/scpm/internal/quasiclique"
)

// EpsilonMode selects how the structural correlation ε(S) is computed.
type EpsilonMode int

const (
	// EpsilonExact runs the full coverage search per attribute set (the
	// default; ε is exact and bit-identical across runs).
	EpsilonExact EpsilonMode = iota
	// EpsilonSampled estimates ε(S) from a deterministic seeded vertex
	// sample of V(S) with per-vertex quasi-clique membership queries
	// (§6 of the paper): |ε̂−ε| ≤ SampleEps with probability ≥
	// 1−SampleDelta per set. Sets whose support does not exceed the
	// Hoeffding sample size are computed exactly. Applies to the SCPM
	// algorithm; the naive baseline always computes ε exactly.
	EpsilonSampled
)

// String names the mode ("exact", "sampled") for reports and bench
// files.
func (m EpsilonMode) String() string {
	if m == EpsilonSampled {
		return "sampled"
	}
	return "exact"
}

// Params configures a mining run. The zero value is invalid; fill in at
// least SigmaMin, Gamma, MinSize and K.
type Params struct {
	// SigmaMin is the minimum attribute-set support σmin (≥ 1).
	SigmaMin int
	// Gamma is the quasi-clique density threshold γmin ∈ (0, 1].
	Gamma float64
	// MinSize is the minimum quasi-clique size min_size (≥ 2).
	MinSize int
	// EpsMin is the minimum structural correlation εmin ∈ [0, 1].
	EpsMin float64
	// DeltaMin is the minimum normalized structural correlation δmin
	// (≥ 0; 0 disables δ filtering and Theorem-5 pruning).
	DeltaMin float64
	// K is the number of top patterns reported per attribute set
	// (size-first, density tie-break). 0 reports attribute sets only.
	K int
	// AllPatterns switches to SCORP-style mining (Silva et al., MLG
	// 2010 — the paper's predecessor algorithm): the complete set of
	// maximal quasi-cliques is reported for every qualifying attribute
	// set and K is ignored. Substantially more expensive than top-k.
	AllPatterns bool
	// MinAttrs reports only attribute sets with at least this many
	// attributes (the paper's case studies use 2 for DBLP). 0 means 1.
	MinAttrs int
	// MaxAttrs bounds the attribute-set size; 0 means unbounded.
	MaxAttrs int
	// Order selects the quasi-clique search strategy (SCPM-DFS or
	// SCPM-BFS in the paper's performance study).
	Order quasiclique.SearchOrder
	// Parallelism is the number of worker goroutines mining top-level
	// attribute subtrees; values ≤ 1 mean sequential.
	Parallelism int
	// Model supplies εexp for normalization. nil uses the analytical
	// upper bound (δlb); plug a *nullmodel.Simulation for δsim.
	Model nullmodel.Model

	// EpsilonMode selects exact or sampled ε computation (see the
	// EpsilonMode constants; the zero value is EpsilonExact).
	EpsilonMode EpsilonMode
	// SampleEps is the Hoeffding half-width of EpsilonSampled estimates:
	// |ε̂−ε| ≤ SampleEps with probability ≥ 1−SampleDelta. Must lie in
	// (0, 1); the zero value uses epsilon.DefaultSampleEps.
	SampleEps float64
	// SampleDelta is the per-set failure probability of the Hoeffding
	// bound. Must lie in (0, 1); the zero value uses
	// epsilon.DefaultSampleDelta.
	SampleDelta float64
	// Seed derives the deterministic sampling randomness of
	// EpsilonSampled: the same seed reproduces every ε̂ regardless of
	// Parallelism or evaluation order.
	Seed int64

	// SearchBudget bounds the number of quasi-clique search nodes per
	// induced graph (0 = unbounded); an exceeded budget stops the run
	// with ErrBudget, returning the partial result mined so far.
	SearchBudget int64

	// ShardOwner, when non-nil, restricts the run to one partition of
	// the attribute-set lattice: only the top-level Eclat subtrees whose
	// root attribute the function claims — and the size-1 sets of those
	// roots — are emitted, recorded into the lattice and counted in the
	// stats. The run still holds the level-1 verdict of every frequent
	// single (their covered-set hand-downs and Theorem-4/5 survival
	// verdicts feed the owned subtrees' right-sibling lists
	// bit-identically to a single-process run), but the non-owned ones
	// contribute nothing to the output, so
	// MergeResults over a disjoint, complete family of owners reproduces
	// the single-process run exactly. The function receives the graph
	// being mined so ownership can be re-derived per graph version during
	// incremental remines. internal/shard constructs these functions;
	// leave nil to mine the whole lattice.
	ShardOwner func(g *graph.Graph, root int32) bool

	// Level1Verdicts, when non-nil, is the run's level-1 table: every
	// frequent single it covers is replayed — bit-identically, sibling
	// lists, hand-downs, emission, recorded lattice and merged stats
	// included — instead of searched, which is what lets a shard worker
	// skip the level-1 work every shard would otherwise duplicate. A
	// table sealed at a different graph version fails the run with
	// ErrStaleVerdicts, and one sealed under a different parameter
	// fingerprint (Level1Fingerprint) fails it too; callers holding a
	// table across live updates drop it once the graph moves on.
	// internal/shard computes (ComputeLevel1) and ships these in the
	// scpm-manifest/v2 format; leave nil to evaluate level 1 in the run.
	Level1Verdicts *Level1Verdicts

	// RecordLattice makes the run memoize every evaluated attribute set
	// (ε, covered-set hand-downs, mined patterns) into the Result, so a
	// later Remine can carry clean evaluations over instead of
	// recomputing them. Costs 48 bytes per evaluated set, plus the
	// hand-downs of the sets whose hand-down is not empty; off by
	// default.
	RecordLattice bool

	// ProgressEvery sets how many attribute-set evaluations elapse
	// between Sink.OnProgress callbacks; ≤ 0 means the default of 64.
	// Ignored when no sink is attached.
	ProgressEvery int

	// Ablation switches (all false in normal operation).
	//
	// DisableVertexPruning turns off the Theorem-3 restriction of the
	// coverage search to the parents' covered sets.
	DisableVertexPruning bool
	// DisableSetPruning turns off the Theorem-4/5 attribute-set
	// pruning, so every frequent set is extended.
	DisableSetPruning bool
	// DisableCertSharing turns off the cross-set coverage certificate
	// store, so every ε evaluation proves coverage from scratch.
	// Results are bit-identical either way; only search-node counts
	// change.
	DisableCertSharing bool
	// DisableLookahead, DisableDiameterPruning and DisableJumps are
	// forwarded to the quasi-clique engine.
	DisableLookahead       bool
	DisableDiameterPruning bool
	DisableJumps           bool
}

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if p.SigmaMin < 1 {
		return fmt.Errorf("core: SigmaMin must be ≥ 1, got %d", p.SigmaMin)
	}
	if err := p.QuasiCliqueParams().Validate(); err != nil {
		return err
	}
	if p.EpsMin < 0 || p.EpsMin > 1 {
		return fmt.Errorf("core: EpsMin %v outside [0,1]", p.EpsMin)
	}
	if p.DeltaMin < 0 {
		return fmt.Errorf("core: DeltaMin %v negative", p.DeltaMin)
	}
	if p.K < 0 {
		return fmt.Errorf("core: K %d negative", p.K)
	}
	if p.MinAttrs < 0 || p.MaxAttrs < 0 {
		return fmt.Errorf("core: negative attribute-set size bound")
	}
	if p.MaxAttrs > 0 && p.minAttrs() > p.MaxAttrs {
		return fmt.Errorf("core: MinAttrs %d exceeds MaxAttrs %d", p.MinAttrs, p.MaxAttrs)
	}
	if p.EpsilonMode != EpsilonExact && p.EpsilonMode != EpsilonSampled {
		return fmt.Errorf("core: unknown EpsilonMode %d", p.EpsilonMode)
	}
	if p.SampleEps < 0 || p.SampleEps >= 1 {
		return fmt.Errorf("core: SampleEps %v must be in (0,1), or 0 for the default", p.SampleEps)
	}
	if p.SampleDelta < 0 || p.SampleDelta >= 1 {
		return fmt.Errorf("core: SampleDelta %v must be in (0,1), or 0 for the default", p.SampleDelta)
	}
	return nil
}

// Level1Fingerprint canonically renders every parameter that can
// influence a level-1 single-attribute verdict: the thresholds, the
// quasi-clique definition, the ε-estimation configuration and the
// ablation switches. Sealed Level1Verdicts carry the fingerprint of the
// parameters they were computed under, and a run refuses verdicts whose
// fingerprint differs from its own.
//
// Deliberately excluded: Model (it only affects the δ-normalization and
// εexp, both recomputed at replay, so verdicts are null-model
// independent), Parallelism, ShardOwner, Level1Verdicts, RecordLattice
// and ProgressEvery (none change any evaluation outcome).
func (p Params) Level1Fingerprint() string {
	return fmt.Sprintf("σ=%d γ=%g ms=%d ε=%g δ=%g k=%d all=%t amin=%d amax=%d ord=%d mode=%d seps=%g sdelta=%g seed=%d budget=%d vp=%t sp=%t cs=%t lk=%t dp=%t j=%t",
		p.SigmaMin, p.Gamma, p.MinSize, p.EpsMin, p.DeltaMin, p.K, p.AllPatterns,
		p.MinAttrs, p.MaxAttrs, p.Order, p.EpsilonMode, p.SampleEps, p.SampleDelta,
		p.Seed, p.SearchBudget, p.DisableVertexPruning, p.DisableSetPruning,
		p.DisableCertSharing, p.DisableLookahead, p.DisableDiameterPruning, p.DisableJumps)
}

// QuasiCliqueParams returns the embedded quasi-clique definition.
func (p Params) QuasiCliqueParams() quasiclique.Params {
	return quasiclique.Params{Gamma: p.Gamma, MinSize: p.MinSize}
}

func (p Params) minAttrs() int {
	if p.MinAttrs <= 0 {
		return 1
	}
	return p.MinAttrs
}

func (p Params) qcOptions() quasiclique.Options {
	return quasiclique.Options{
		Order:                  p.Order,
		DisableLookahead:       p.DisableLookahead,
		DisableDiameterPruning: p.DisableDiameterPruning,
		DisableJumps:           p.DisableJumps,
		MaxNodes:               p.SearchBudget,
	}
}

// model resolves the null model, defaulting to the analytical bound.
func (p Params) model(g *graph.Graph) nullmodel.Model {
	if p.Model != nil {
		return p.Model
	}
	return nullmodel.NewAnalytical(g, p.QuasiCliqueParams())
}

// estimator builds the configured ε-estimation layer over the given
// (context-carrying) quasi-clique options.
func (p Params) estimator(o quasiclique.Options) epsilon.Estimator {
	if p.EpsilonMode == EpsilonSampled {
		return epsilon.NewSampled(p.QuasiCliqueParams(), o, p.SampleEps, p.SampleDelta, p.Seed)
	}
	return epsilon.NewExact(p.QuasiCliqueParams(), o)
}

// NewEstimator builds the ε-estimation layer this parameter block
// configures — the same construction a mining run performs (exact
// coverage search, or Hoeffding-bounded sampling under EpsilonSampled).
// The query-serving layer uses it to answer on-demand ε queries with
// the run's semantics.
func (p Params) NewEstimator() epsilon.Estimator { return p.estimator(p.qcOptions()) }

// NewModel resolves the null model this parameter block configures for
// g, defaulting to the analytical bound of Theorem 2 — again the same
// resolution a mining run performs, exported for the serving layer.
func (p Params) NewModel(g *graph.Graph) nullmodel.Model { return p.model(g) }
