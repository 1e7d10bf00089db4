// Package shard partitions the SCPM attribute-set lattice into
// disjoint Eclat DFS prefixes so independent processes can mine one
// slice each, and merges the per-shard results back into output
// bit-identical to a single-process run.
//
// # Ownership rule
//
// Algorithm 2's Eclat enumeration roots one DFS subtree at every
// frequent single attribute, visits the roots in extension order —
// support ascending, attribute id breaking ties — and extends the
// subtree rooted at position i only with the roots to its right
// (positions i+1…). Every attribute set the search can ever evaluate
// therefore lives in exactly one subtree: the one rooted at the set's
// minimal attribute in extension order. Assigning each root to exactly
// one shard hence assigns each attribute SET to exactly one shard —
// the size-1-set ownership rule. A singleton {a} belongs to the shard
// owning root a; a larger set belongs to the shard owning its first
// attribute in extension order. TestOwnershipPartition asserts this
// exactly-one-owner property on randomized graphs.
//
// # Why shard-local pruning is sound
//
// The pruning rules of Theorems 3–5 only ever pass information DOWN
// one subtree, never across subtrees:
//
//   - Theorem 3 (vertex pruning) restricts the coverage search of a
//     set S ∪ {a} to the covered sets handed down from its parents S
//     and {a}. S is an ancestor in the same subtree; {a}'s hand-down is
//     a level-1 verdict.
//   - Theorems 4–5 (set pruning) drop an extension candidate based on
//     that candidate's own ε and δ upper bounds, computed from its
//     members and covered set — again a level-1 verdict, or state local
//     to the subtree.
//
// Level 1 is one table: core.Level1Verdicts, one verdict per frequent
// single, which is the same for every shard at one graph version —
// computed in the run, injected from a sealed manifest
// (core.Params.Level1Verdicts) or, in a Remine, carried over from the
// previous result for the singles the update left clean. Every run
// turns every verdict into its level-1 item, so the owned subtrees'
// right-sibling lists — hand-downs, survival and the exact refinement
// of sampled mode included — match the single-process run bit for bit.
// core.Params.ShardOwner then restricts what the run keeps: only the
// owned singles are emitted, recorded and counted, and only the owned
// subtrees are walked. No information a non-owned subtree would have
// produced is ever consumed, so the per-shard outputs are disjoint
// slices of the single-process output and their stats counters sum to
// the single-process counters exactly; TestShardMergeEquivalence
// asserts both, in exact and sampled ε modes, across 1–4 shards.
//
// # Balance
//
// Plan weighs the subtree rooted at rank i by 2^min(c,24), where c is
// the number of right siblings j whose pairwise intersection with the
// root stays frequent (|V(i)∩V(j)| ≥ σmin). Only those siblings can
// ever extend the subtree, and in the densest case every subset of the
// root plus its frequent siblings survives — so the subtree holds up
// to 2^c sets, and the measured per-root set counts on the committed
// datasets track that exponential almost exactly (the earlier linear
// candidate-count weight misjudged them by orders of magnitude, which
// is why 2-shard walls split 77%/23%). The pair counts cost one bitset
// intersection count per root pair — tens of milliseconds on the
// committed datasets, paid once per plan and cached per graph version
// by Owner. Roots are assigned heaviest-first onto the currently
// lightest shard; the assignment is deterministic and lands within 2×
// of ideal balance on the committed datasets (TestPlanBalance).
package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

// Partition is one shard's slice of the lattice: the top-level Eclat
// roots it owns and their summed candidate-1-set weight.
type Partition struct {
	// Shard is this partition's index in 0…N-1.
	Shard int
	// N is the total number of shards in the plan.
	N int
	// Roots lists the owned root attribute ids, in extension order.
	Roots []int32
	// Weight sums the owned subtrees' estimated set counts (2^frequent-
	// sibling-pairs, capped) — the balance measure Plan optimizes.
	Weight int

	owns map[int32]bool
}

// Plan splits g's attribute-set lattice into n disjoint partitions.
// The frequent singles (support ≥ sigmaMin) are ranked in extension
// order — support ascending, id ascending — matching the order the
// miner sorts surviving roots into, so a set's first attribute in
// extension order is well defined whether or not every single survives
// Theorem-4/5 pruning. Each root is weighed by its estimated subtree
// set count (see the package doc's Balance section) and assigned
// heaviest-first to the currently lightest shard, ties to the lowest
// shard index, which is deterministic for a given graph.
//
// Every frequent single lands in exactly one partition. Shards may own
// zero roots when n exceeds the number of frequent singles; they mine
// (and serve) empty slices, which core.MergeResults handles.
func Plan(g *graph.Graph, sigmaMin, n int) ([]Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: plan needs n ≥ 1 shards, got %d", n)
	}
	if sigmaMin < 1 {
		return nil, fmt.Errorf("shard: plan needs sigmaMin ≥ 1, got %d", sigmaMin)
	}
	roots := rankedRoots(g, sigmaMin)
	weights := subtreeWeights(g, roots, sigmaMin)
	parts := make([]Partition, n)
	for s := range parts {
		parts[s] = Partition{Shard: s, N: n, owns: make(map[int32]bool)}
	}
	// Greedy heaviest-first. The weight order must be explicit now that
	// weights are no longer monotone in rank; rank breaks ties so the
	// assignment stays deterministic.
	order := make([]int, len(roots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	shardOf := make([]int, len(roots))
	for _, rank := range order {
		best := 0
		for s := 1; s < n; s++ {
			if parts[s].Weight < parts[best].Weight {
				best = s
			}
		}
		shardOf[rank] = best
		parts[best].Weight += weights[rank]
	}
	// Partition.Roots lists owned roots in extension order regardless of
	// the assignment order above.
	for rank, r := range roots {
		s := shardOf[rank]
		parts[s].Roots = append(parts[s].Roots, r.attr)
		parts[s].owns[r.attr] = true
	}
	return parts, nil
}

// subtreeWeights estimates each root subtree's share of the mining
// work: 2^min(c,24), where c counts the right siblings whose pairwise
// intersection with the root stays frequent — the only siblings that
// can ever extend the subtree, and in the densest (and empirically
// typical) case all 2^c of their subsets survive. The cap keeps the
// greedy sums well inside int range; relative order among capped roots
// is what the balance needs, not their absolute magnitude.
func subtreeWeights(g *graph.Graph, roots []rankedRoot, sigmaMin int) []int {
	w := make([]int, len(roots))
	for i := range roots {
		mi := g.AttrMembers(roots[i].attr)
		c := 0
		for j := i + 1; j < len(roots); j++ {
			if mi.IntersectCount(g.AttrMembers(roots[j].attr)) >= sigmaMin {
				c++
			}
		}
		if c > 24 {
			c = 24
		}
		w[i] = 1 << c
	}
	return w
}

// rankedRoot is one frequent single in extension order.
type rankedRoot struct {
	attr    int32
	support int
}

// rankedRoots lists the frequent singles of g in extension order
// (support ascending, id ascending) — the order Algorithm 2 visits
// top-level subtrees in.
func rankedRoots(g *graph.Graph, sigmaMin int) []rankedRoot {
	var roots []rankedRoot
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		if sup := g.AttrSupport(a); sup >= sigmaMin {
			roots = append(roots, rankedRoot{attr: a, support: sup})
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		if roots[i].support != roots[j].support {
			return roots[i].support < roots[j].support
		}
		return roots[i].attr < roots[j].attr
	})
	return roots
}

// Owner returns a core.Params.ShardOwner claiming shard k of n. The
// plan is re-derived (and cached) per graph version, so live updates
// that shift level-1 supports re-partition deterministically — every
// replica planning against the same graph version derives the same
// assignment. The returned function is safe for concurrent use by the
// miner's level-1 workers.
//
// Owner panics when k is outside 0…n-1; validate shard coordinates at
// the flag/API boundary.
func Owner(sigmaMin, k, n int) func(*graph.Graph, int32) bool {
	if n < 1 || k < 0 || k >= n {
		panic(fmt.Sprintf("shard: invalid shard %d/%d", k, n))
	}
	var (
		mu      sync.Mutex
		version uint64
		have    bool
		owns    map[int32]bool
	)
	return func(g *graph.Graph, root int32) bool {
		mu.Lock()
		defer mu.Unlock()
		if !have || g.Version() != version {
			parts, err := Plan(g, sigmaMin, n)
			if err != nil {
				// Plan only fails on invalid sigmaMin/n, both validated
				// before mining starts.
				panic(err)
			}
			owns = parts[k].owns
			version = g.Version()
			have = true
		}
		return owns[root]
	}
}

// Params returns p restricted to shard k of n: a copy with ShardOwner
// installed (derived from p.SigmaMin). The result of mining with it is
// shard k's slice; core.MergeResults over all n slices reproduces
// mining with p.
func Params(p core.Params, k, n int) core.Params {
	p.ShardOwner = Owner(p.SigmaMin, k, n)
	return p
}

// Mine mines shard k of n on g — the slice of Mine(g, p) owned by
// partition k of Plan(g, p.SigmaMin, n).
func Mine(ctx context.Context, g *graph.Graph, p core.Params, k, n int) (*core.Result, error) {
	if n < 1 || k < 0 || k >= n {
		return nil, fmt.Errorf("shard: invalid shard %d/%d", k, n)
	}
	return core.Mine(ctx, g, Params(p, k, n), nil)
}

// MineAll mines all n shards concurrently (one goroutine per shard,
// each with p.Parallelism workers inside) and merges the slices. The
// level-1 verdicts are computed once up front and injected into every
// shard, so the per-shard walls contain no duplicated level-1 work.
// The output is bit-identical to core.Mine(ctx, g, p, nil) apart from
// Stats.Duration (the slowest shard) and Stats.ReusedVerdicts (the
// replayed level-1 singles, 0 in an unsharded run).
func MineAll(ctx context.Context, g *graph.Graph, p core.Params, n int) (*core.Result, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: MineAll needs n ≥ 1 shards, got %d", n)
	}
	verdicts, err := core.ComputeLevel1(ctx, g, p)
	if err != nil {
		return nil, err
	}
	p.Level1Verdicts = verdicts
	parts := make([]*core.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			parts[k], errs[k] = Mine(ctx, g, p, k, n)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return core.MergeResults(parts...)
}
