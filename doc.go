// Package scpm mines structural correlation patterns in large attributed
// graphs, implementing the VLDB 2012 paper "Mining Attribute-structure
// Correlated Patterns in Large Attributed Graphs" (Silva, Meira Jr.,
// Zaki; PVLDB 5(5):466–477).
//
// # Concepts
//
// An attributed graph G = (V, E, A, F) attaches an attribute set to every
// vertex. For an attribute set S, G(S) is the subgraph induced by the
// vertices carrying all of S. The structural correlation
//
//	ε(S) = |K_S| / |V(S)|
//
// is the fraction of those vertices covered by at least one
// γ-quasi-clique of size ≥ min_size in G(S); a structural correlation
// pattern (S, Q) pairs S with one such quasi-clique. The normalized
// structural correlation δ(S) = ε(S)/εexp(σ(S)) measures significance
// against a null model: either the analytical upper bound max-εexp
// (Theorem 2) or a Monte-Carlo estimate sim-εexp.
//
// # The Miner
//
// A Miner is a configured, reusable mining pipeline built with
// functional options:
//
//	miner, err := scpm.NewMiner(
//		scpm.WithSigmaMin(3),
//		scpm.WithGamma(0.6),
//		scpm.WithMinSize(4),
//		scpm.WithEpsMin(0.5),
//		scpm.WithTopK(10),
//	)
//
// It offers three consumption modes, all honoring context cancellation
// mid-search (a canceled run stops in bounded time and returns an error
// satisfying errors.Is(err, ErrCanceled) that wraps context.Cause):
//
// Batch — block until done, get the canonically sorted *Result; on
// cancellation the partial result mined so far is returned alongside
// ErrCanceled:
//
//	res, err := miner.Mine(ctx, g)
//
// Push — a Sink receives every qualifying attribute set and pattern the
// moment the search finds it, plus periodic progress updates. Each set
// arrives as one atomic burst (OnAttributeSet, then its patterns):
//
//	err := miner.Stream(ctx, g, scpm.SinkFuncs{
//		AttributeSet: func(s scpm.AttributeSet) { fmt.Println(s) },
//		Pattern:      func(p scpm.Pattern) { fmt.Println(" ", p) },
//	})
//
// Pull — a Go 1.23 range-over-func iterator; breaking out of the loop
// cancels the underlying search:
//
//	for s, err := range miner.Sets(ctx, g) {
//		if err != nil { ... }
//		fmt.Println(s)
//	}
//
// The search algorithm is SCPM (search and pruning strategies of §3.2
// of the paper); WithNaive switches to the frequent-itemset ×
// quasi-clique baseline of §3.1, useful for verification and
// benchmarking. WithSearchBudget bounds the per-induced-graph search,
// surfacing ErrBudget with the partial result when exhausted.
//
// # Migration from the batch-only API
//
// The package-level Mine and MineNaive functions that predated the
// Miner have been removed; the old Mine(g, p) call is
//
//	m, _ := scpm.NewMiner(scpm.WithParams(p))
//	res, _ := m.Mine(context.Background(), g)
//
// which also gains cancellation, streaming sinks, the Sets iterator,
// search budgets and progress reporting.
//
// # Dynamic graphs
//
// A Graph is immutable, but not frozen forever: Graph.NewDelta records
// a batch of updates (edges added/removed, vertices added, attributes
// set/unset) and Graph.Apply produces the next graph version plus a
// ChangeSet naming exactly the attributes the update could have
// affected. A Miner built WithLiveUpdates records its search lattice,
// so Miner.Remine re-mines an updated graph incrementally — attribute
// sets untouched by the update are carried over, everything else is
// recomputed, and the output is identical to a from-scratch Mine:
//
//	m, _ := scpm.NewMiner(scpm.WithParams(p), scpm.WithLiveUpdates())
//	res, _ := m.Mine(ctx, g)
//	d := g.NewDelta()
//	_ = d.AddEdge("alice", "bob")
//	g2, changes, _ := g.Apply(d)
//	res2, _ := m.Remine(ctx, g2, res, changes)
//
// # Serving mined results
//
// A Result can be frozen into an Index — stable-id lookups, exact and
// subset searches of the canonical set table, superset lookups over
// inverted postings, top-k rankings and versioned binary snapshots —
// and served over HTTP with on-demand ε answers for attribute sets the
// run never emitted:
//
//	idx := scpm.NewIndex(res, g)
//	h, _ := scpm.NewServerHandler(idx, g, miner.Params(), scpm.ServerConfig{})
//	_ = scpm.Serve(ctx, ":8080", h)
//
// cmd/scpm-serve wraps this into a binary that mines or restores a
// snapshot on startup; docs/FILE_FORMATS.md specifies the endpoints
// and the snapshot format.
//
// See the examples/ directory for runnable end-to-end scenarios and
// cmd/scpm for a CLI that can stream results incrementally as NDJSON.
package scpm
