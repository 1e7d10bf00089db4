package scpm

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/shard"
)

// Sink receives mining events while a run is in flight. Callbacks are
// serialized and each qualifying attribute set arrives as one atomic
// burst: OnAttributeSet followed immediately by OnPattern for each of
// its top-k patterns (best first). With WithParallelism(1) — the
// default — bursts arrive in search order. OnProgress fires every
// WithProgressEvery evaluations (default 64) and once when the run
// ends. Callbacks run on miner goroutines, so hand heavy work off to a
// channel rather than blocking the search.
type Sink = core.Sink

// SinkFuncs adapts plain functions to Sink; nil fields are skipped.
type SinkFuncs = core.SinkFuncs

// ErrCanceled reports that the mining context was done before the
// search finished. The concrete error wraps both this sentinel and
// context.Cause(ctx), so errors.Is works against either; a batch Mine
// that is canceled still returns the well-formed partial result
// collected up to that point.
var ErrCanceled = core.ErrCanceled

// ErrBudget reports that WithSearchBudget was exhausted. Like
// cancellation it accompanies the partial result mined so far.
var ErrBudget = core.ErrBudget

// Miner is a configured mining pipeline. Build one with NewMiner and
// functional options; a Miner is immutable and safe for concurrent use,
// so one instance can serve many graphs and goroutines. It offers three
// consumption modes:
//
//   - Mine: batch — block until done, get the full *Result;
//   - Stream: push — a Sink receives every set and pattern as found;
//   - Sets: pull — a Go 1.23 iterator over attribute sets.
//
// All three honor context cancellation mid-search.
type Miner struct {
	p        core.Params
	naive    bool
	shardK   int
	shardN   int
	manifest *ShardManifest
}

// Option configures a Miner.
type Option func(*Miner)

// NewMiner builds a Miner from options, validating the resulting
// configuration. Defaults: σmin=1, γ=0.5, min_size=2, sets only (no
// patterns, use WithTopK), sequential, analytical null model.
func NewMiner(opts ...Option) (*Miner, error) {
	m := &Miner{p: core.Params{SigmaMin: 1, Gamma: 0.5, MinSize: 2}}
	for _, o := range opts {
		o(m)
	}
	if err := m.p.Validate(); err != nil {
		return nil, err
	}
	switch {
	case m.manifest != nil:
		if m.naive {
			return nil, fmt.Errorf("scpm: WithShardManifest cannot be combined with WithNaive (the baseline has no partitioned path)")
		}
		if m.shardK < 0 || m.shardK >= m.manifest.Shards {
			return nil, fmt.Errorf("scpm: WithShardManifest shard %d of %d: shard index must be in 0…%d",
				m.shardK, m.manifest.Shards, m.manifest.Shards-1)
		}
		if m.manifest.Shards > 1 {
			m.p.ShardOwner = shard.Owner(m.manifest.SigmaMin, m.shardK, m.manifest.Shards)
		}
	case m.shardN > 1:
		// Resolved after all options so the owner sees the final σmin.
		if m.shardK < 0 || m.shardK >= m.shardN {
			return nil, fmt.Errorf("scpm: WithShard(%d, %d): shard index must be in 0…%d", m.shardK, m.shardN, m.shardN-1)
		}
		if m.naive {
			return nil, fmt.Errorf("scpm: WithShard cannot be combined with WithNaive (the baseline has no partitioned path)")
		}
		m.p.ShardOwner = shard.Owner(m.p.SigmaMin, m.shardK, m.shardN)
	}
	return m, nil
}

// MergeResults deterministically combines the results of n WithShard
// runs over the same graph and options into the unsharded result:
// sets and patterns re-sort into canonical order, stats counters sum
// (Duration reports the slowest shard), recorded lattices union — so
// the merged result feeds Remine exactly like an unsharded one.
// Overlapping shard results are rejected.
func MergeResults(parts ...*Result) (*Result, error) { return core.MergeResults(parts...) }

// WithSigmaMin sets the minimum attribute-set support σmin (≥ 1).
func WithSigmaMin(n int) Option { return func(m *Miner) { m.p.SigmaMin = n } }

// WithGamma sets the quasi-clique density threshold γmin ∈ (0, 1].
func WithGamma(gamma float64) Option { return func(m *Miner) { m.p.Gamma = gamma } }

// WithMinSize sets the minimum quasi-clique size min_size (≥ 2).
func WithMinSize(n int) Option { return func(m *Miner) { m.p.MinSize = n } }

// WithEpsMin sets the minimum structural correlation εmin ∈ [0, 1].
func WithEpsMin(eps float64) Option { return func(m *Miner) { m.p.EpsMin = eps } }

// WithDeltaMin sets the minimum normalized structural correlation δmin.
func WithDeltaMin(delta float64) Option { return func(m *Miner) { m.p.DeltaMin = delta } }

// WithTopK reports the k best quasi-cliques per attribute set
// (size-first, density tie-break); 0 reports attribute sets only.
func WithTopK(k int) Option { return func(m *Miner) { m.p.K = k } }

// WithAllPatterns switches to SCORP-style mining: every maximal
// quasi-clique of each qualifying set is reported and WithTopK is
// ignored.
func WithAllPatterns() Option { return func(m *Miner) { m.p.AllPatterns = true } }

// WithMinAttrs reports only attribute sets of at least n attributes.
func WithMinAttrs(n int) Option { return func(m *Miner) { m.p.MinAttrs = n } }

// WithMaxAttrs bounds the attribute-set size; 0 means unbounded.
func WithMaxAttrs(n int) Option { return func(m *Miner) { m.p.MaxAttrs = n } }

// WithSearchOrder selects the quasi-clique frontier discipline (DFS or
// BFS — the paper's SCPM-DFS / SCPM-BFS variants).
func WithSearchOrder(o SearchOrder) Option { return func(m *Miner) { m.p.Order = o } }

// WithParallelism sets the number of worker goroutines mining top-level
// attribute subtrees; n ≤ 0 uses runtime.NumCPU(). Note that with
// workers > 1, Sink bursts and Sets elements arrive in nondeterministic
// order (batch results are canonically sorted either way).
func WithParallelism(n int) Option {
	return func(m *Miner) {
		if n <= 0 {
			n = runtime.NumCPU()
		}
		m.p.Parallelism = n
	}
}

// ShardManifest is the checksummed shard map written by scpm-gateway
// -plan (internal/shard's Manifest): which shard owns which lattice
// prefix, against which dataset — and, in its v2 form, every sealed
// level-1 verdict. Load one with LoadShardManifest and boot a replica
// from it with WithShardManifest.
type ShardManifest = shard.Manifest

// LoadShardManifest reads and verifies a shard manifest file (v1 or
// v2).
func LoadShardManifest(path string) (*ShardManifest, error) { return shard.LoadManifest(path) }

// WithShardManifest boots shard k of the deployment the manifest
// plans: lattice ownership is the plan the manifest records, derived
// from its σmin and shard count (and re-derived deterministically once
// live updates move the graph past the planned version), and — when
// the manifest is v2 — the sealed level-1 verdicts are injected so the
// boot mine replays every level-1 evaluation instead of re-searching
// it. Mining parameters must match
// the fingerprint the verdicts were sealed under; Mine fails loudly
// otherwise. A v1 manifest behaves exactly like WithShard(k,
// man.Shards).
func WithShardManifest(man *ShardManifest, k int) Option {
	return func(m *Miner) { m.manifest, m.shardK, m.shardN = man, k, man.Shards }
}

// WithShard restricts the run to shard k of an n-way partition of the
// attribute-set lattice (0 ≤ k < n): only the Eclat subtrees the
// partition planner assigns to shard k are emitted, recorded and
// counted, so n such runs (same graph, same options, k = 0…n-1) mine
// disjoint slices whose MergeResults reproduces the unsharded run
// bit-identically — in exact and sampled ε modes, stats counters
// included (only Duration differs: merged runs report the slowest
// shard). The partition is re-derived deterministically per graph
// version, so Remine after updates stays correctly sharded. n ≤ 1
// disables sharding.
func WithShard(k, n int) Option {
	return func(m *Miner) { m.shardK, m.shardN = k, n }
}

// WithNullModel plugs a null model supplying εexp for δ normalization;
// the default is the analytical upper bound of Theorem 2.
func WithNullModel(nm NullModel) Option { return func(m *Miner) { m.p.Model = nm } }

// WithEpsilonSampling switches ε computation to the sampling estimator
// of §6 of the paper: instead of the full coverage search, each
// attribute set draws a deterministic Hoeffding-sized vertex sample from
// V(S) and answers one early-exit quasi-clique membership query per
// draw, so |ε̂−ε| ≤ eps with probability ≥ 1−delta per set. Estimated
// sets carry Estimated=true, EpsilonErr and SampledVertices; sets whose
// support does not exceed the sample size are still computed exactly.
// Non-positive eps or delta use the defaults (0.1, 0.05 — 185 samples).
// Applies to the SCPM algorithm; WithNaive always computes ε exactly.
// Combine with WithSeed to pin the sample randomness.
func WithEpsilonSampling(eps, delta float64) Option {
	return func(m *Miner) {
		m.p.EpsilonMode = core.EpsilonSampled
		// Negative values mean "default" like zero does, matching the
		// documented contract (Params.Validate rejects negatives).
		m.p.SampleEps = max(eps, 0)
		m.p.SampleDelta = max(delta, 0)
	}
}

// WithSeed sets the seed deriving all sampling randomness of the run
// (WithEpsilonSampling): the same seed reproduces every estimate
// bit-for-bit regardless of WithParallelism or evaluation order.
func WithSeed(seed int64) Option { return func(m *Miner) { m.p.Seed = seed } }

// WithSearchBudget bounds the quasi-clique search to n nodes per
// induced graph (0 = unbounded); an exhausted budget ends the run with
// ErrBudget and the partial result.
func WithSearchBudget(n int64) Option { return func(m *Miner) { m.p.SearchBudget = n } }

// WithLiveUpdates makes every run record its search lattice into the
// Result, enabling incremental re-mining after graph updates: apply a
// batch of changes with Graph.NewDelta + Graph.Apply, then call
// Miner.Remine with the old result and the ChangeSet — only attribute
// sets the update could have affected are recomputed. Costs memory
// proportional to the evaluated lattice; leave it off for one-shot
// batch runs.
func WithLiveUpdates() Option { return func(m *Miner) { m.p.RecordLattice = true } }

// WithProgressEvery sets how many attribute-set evaluations elapse
// between Sink.OnProgress callbacks (default 64).
func WithProgressEvery(n int) Option { return func(m *Miner) { m.p.ProgressEvery = n } }

// WithNaive mines with the naive baseline of §3.1 (Eclat × full
// quasi-clique enumeration) instead of SCPM — same output, no search
// and pruning strategies; useful for cross-checking and benchmarks.
func WithNaive() Option { return func(m *Miner) { m.naive = true } }

// WithParams seeds the whole parameter block at once — the migration
// path for callers of the deprecated package-level Mine; later options
// still apply on top.
func WithParams(p Params) Option { return func(m *Miner) { m.p = p } }

// Params returns the miner's resolved parameter block.
func (m *Miner) Params() Params { return m.p }

// Mine runs the configured algorithm on g and blocks until the search
// completes, the context is done, or the search budget runs out. On
// cancellation it returns the partial result together with an error
// satisfying errors.Is(err, ErrCanceled) (which also wraps
// context.Cause(ctx)); on budget exhaustion likewise with ErrBudget.
func (m *Miner) Mine(ctx context.Context, g *Graph) (*Result, error) {
	return m.run(ctx, g, nil)
}

// MineWithProgress is Mine with a Sink attached: the batch result is
// returned as usual while sink receives the run's events in flight —
// the hook scpm-serve uses to keep the mining gauges on /metrics live
// during a boot mine. sink may be nil.
func (m *Miner) MineWithProgress(ctx context.Context, g *Graph, sink Sink) (*Result, error) {
	return m.run(ctx, g, sink)
}

// Remine incrementally re-mines g — a graph produced from a previous
// version by Graph.Apply — reusing old (the previous version's result,
// mined by this same Miner with WithLiveUpdates) wherever changes
// proves the update cannot have altered it: attribute sets disjoint
// from the dirty attributes are carried over by value, only their
// δ-normalization is re-derived, and everything else is recomputed.
// The output is identical to Mine(ctx, g) — sets, ε, δ, patterns,
// stable ids — in both exact and sampled ε modes, with the savings
// reported in Stats.ReusedSets versus Stats.RecomputedSets.
//
// When old carries no recorded lattice (mined without WithLiveUpdates)
// or changes is nil, Remine degrades to a correct full re-mine with
// zero reuse. The naive baseline (WithNaive) has no incremental path;
// Remine then ignores old and mines fully.
func (m *Miner) Remine(ctx context.Context, g *Graph, old *Result, changes *ChangeSet) (*Result, error) {
	if m.naive {
		return core.MineNaive(ctx, g, m.p, nil)
	}
	p, err := m.paramsFor(g)
	if err != nil {
		return nil, err
	}
	return core.Remine(ctx, g, p, old, changes, nil)
}

// Stream mines g, pushing every qualifying attribute set and pattern to
// sink as the search discovers them, plus periodic OnProgress updates.
// It returns nil once the search completes; everything delivered before
// an error is valid output, so a canceled stream's events form a
// well-formed partial result.
func (m *Miner) Stream(ctx context.Context, g *Graph, sink Sink) error {
	_, err := m.run(ctx, g, sink)
	return err
}

// Sets mines g lazily, yielding each qualifying attribute set as the
// search discovers it. Breaking out of the range loop cancels the
// underlying search and releases its goroutine. If mining fails — the
// surrounding context canceled, budget exhausted, invalid parameters —
// the final pair carries the error.
func (m *Miner) Sets(ctx context.Context, g *Graph) iter.Seq2[AttributeSet, error] {
	return func(yield func(AttributeSet, error) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		sets := make(chan AttributeSet)
		done := make(chan error, 1)
		go func() {
			_, err := m.run(ctx, g, SinkFuncs{
				AttributeSet: func(s AttributeSet) {
					select {
					case sets <- s:
					case <-ctx.Done():
					}
				},
			})
			close(sets)
			done <- err
		}()
		for s := range sets {
			if !yield(s, nil) {
				// Consumer broke out: stop the search and wait for the
				// miner goroutine so no callback outlives the loop.
				cancel()
				for range sets {
				}
				<-done
				return
			}
		}
		if err := <-done; err != nil {
			yield(AttributeSet{}, err)
		}
	}
}

func (m *Miner) run(ctx context.Context, g *Graph, sink Sink) (*Result, error) {
	if m.naive {
		return core.MineNaive(ctx, g, m.p, sink)
	}
	p, err := m.paramsFor(g)
	if err != nil {
		return nil, err
	}
	return core.Mine(ctx, g, p, sink)
}

// paramsFor resolves the run's parameter block for one concrete graph:
// when a v2 manifest is attached and g still sits at the sealed graph
// version, the sealed level-1 verdicts are reconstructed and injected.
// Past the sealed version (live updates) the seal is dropped here —
// injecting it would fail the run with core.ErrStaleVerdicts — so Mine
// evaluates level 1 itself and Remine carries it over from the
// previous result's table.
func (m *Miner) paramsFor(g *Graph) (core.Params, error) {
	p := m.p
	if m.manifest != nil && p.Level1Verdicts == nil {
		v, err := m.manifest.Level1Verdicts(g)
		if err != nil {
			return core.Params{}, fmt.Errorf("scpm: %w", err)
		}
		p.Level1Verdicts = v
	}
	return p, nil
}

// IsCanceled reports whether err is a mining cancellation — shorthand
// for errors.Is(err, ErrCanceled).
func IsCanceled(err error) bool { return errors.Is(err, ErrCanceled) }
