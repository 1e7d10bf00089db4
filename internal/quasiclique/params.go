// Package quasiclique implements a Quick-style quasi-clique miner (Liu &
// Wong, PKDD 2008) specialised for the three uses SCPM makes of it:
//
//   - full enumeration of maximal quasi-cliques (the naive algorithm of
//     §3.1 of the paper);
//   - coverage search: decide which vertices belong to at least one
//     quasi-clique, with covered-candidate pruning and a BFS or DFS
//     frontier (Algorithm 1, §3.2.2);
//   - top-k pattern search ranked by size then density, with dynamic
//     min-size raising (§3.2.3).
//
// A quasi-clique (Definition 1) is a maximal vertex set Q with
// deg_Q(v) ≥ ⌈γ·(|Q|−1)⌉ for every v ∈ Q and |Q| ≥ min_size. Maximality
// is by set containment: no proper superset of Q may itself satisfy the
// degree constraint (Table 1 of the paper requires this — {7,8,9,10} is
// a valid 0.67 quasi-clique but is subsumed by {6,…,11}).
package quasiclique

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Params are the quasi-clique definition parameters.
type Params struct {
	// Gamma is the minimum density threshold γmin, in (0, 1].
	Gamma float64
	// MinSize is the minimum quasi-clique size min_size (≥ 2).
	MinSize int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if !(p.Gamma > 0 && p.Gamma <= 1) {
		return fmt.Errorf("quasiclique: gamma %v outside (0,1]", p.Gamma)
	}
	if p.MinSize < 2 {
		return fmt.Errorf("quasiclique: min size %d < 2", p.MinSize)
	}
	return nil
}

// MinDegree returns ⌈γ·(size−1)⌉, the degree every member of a
// quasi-clique of the given size must reach. A small epsilon absorbs
// float noise so that e.g. 0.6·5 = 3.0000000000000004 yields 3, not 4.
func (p Params) MinDegree(size int) int {
	if size <= 1 {
		return 0
	}
	return int(math.Ceil(p.Gamma*float64(size-1) - 1e-9))
}

// MaxSizeFor returns the largest quasi-clique size s a vertex with
// `avail` usable neighbors could belong to: the largest s with
// ⌈γ(s−1)⌉ ≤ avail.
func (p Params) MaxSizeFor(avail int) int {
	if avail < 0 {
		return 0
	}
	return int(float64(avail)/p.Gamma+1e-9) + 1
}

// SearchOrder selects how Algorithm 1 traverses the candidate tree.
type SearchOrder int

const (
	// DFS uses a LIFO stack: vertex sets are extended as much as
	// possible before backtracking.
	DFS SearchOrder = iota
	// BFS uses a FIFO queue: all smaller vertex sets are visited before
	// larger ones.
	BFS
)

// String returns "DFS" or "BFS".
func (o SearchOrder) String() string {
	if o == BFS {
		return "BFS"
	}
	return "DFS"
}

// Options tune the search engine.
type Options struct {
	// Order is the frontier discipline (DFS by default).
	Order SearchOrder
	// DisableDiameterPruning turns off the distance-2 candidate filter
	// (the filter applies only when γ ≥ 0.5, where quasi-cliques are
	// known to have diameter ≤ 2).
	DisableDiameterPruning bool
	// DisableLookahead turns off the X ∪ cand quasi-clique shortcut.
	// Exposed for the ablation study; normal callers keep it on.
	DisableLookahead bool
	// DisableJumps turns off the critical-vertex and cover-vertex
	// jumps (the Quick techniques that commit forced candidates in one
	// step instead of branching on them). Ablation switch.
	DisableJumps bool
	// MaxNodes bounds the number of search-tree nodes processed; 0
	// means unbounded. When exceeded the search returns ErrBudget.
	MaxNodes int64
	// Ctx, when non-nil, is polled periodically by the search loop;
	// once done the search aborts with an error satisfying
	// errors.Is(err, ErrCanceled) that wraps context.Cause(Ctx).
	Ctx context.Context
}

// ErrBudget is returned when Options.MaxNodes is exhausted. The
// message carries no package prefix because the sentinel is re-exported
// through core and the public scpm facade.
var ErrBudget = errors.New("search node budget exceeded")

// ErrCanceled is returned when Options.Ctx is done before the search
// finishes. The concrete error wraps both this sentinel and
// context.Cause, so errors.Is works against either.
var ErrCanceled = errors.New("mining canceled")

// Canceled builds the canonical cancellation error for a done context.
func Canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}
