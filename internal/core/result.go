package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/scpm/scpm/internal/graph"
)

// AttributeSet is one mined attribute set with its correlation metrics.
type AttributeSet struct {
	// Attrs are the attribute ids, ascending.
	Attrs []int32
	// Names are the attribute names, aligned with Attrs.
	Names []string
	// Support is σ(S) = |V(S)|.
	Support int
	// Epsilon is the structural correlation ε(S) = |K_S|/|V(S)|.
	Epsilon float64
	// ExpEps is εexp(σ(S)) under the run's null model.
	ExpEps float64
	// Delta is the normalized structural correlation ε/εexp (math.Inf
	// when εexp underflows to 0 while ε > 0).
	Delta float64
	// Covered is |K_S|, the number of vertices inside quasi-cliques. In
	// sampled mode it is the rounded estimate ε̂·σ.
	Covered int
	// Estimated reports whether Epsilon (and Covered) come from the
	// sampling estimator rather than an exact coverage search.
	Estimated bool
	// EpsilonErr is the Hoeffding half-width of an estimated Epsilon:
	// the true ε lies in [Epsilon−EpsilonErr, Epsilon+EpsilonErr] with
	// probability ≥ 1−δ. 0 when exact.
	EpsilonErr float64
	// SampledVertices is the number of membership samples drawn for an
	// estimated Epsilon; 0 when exact.
	SampledVertices int
}

// Key renders the attribute set canonically ("a,b,c") for map joins.
func (s AttributeSet) Key() string { return strings.Join(s.Names, ",") }

// ID returns the stable identifier of the attribute set: a 16-hex-digit
// hash of the attribute names that does not depend on name order,
// mining order or run parameters, so the CLI exports, the pattern index
// and the HTTP server all agree on it. Two runs over the same dataset
// assign the same id to the same set.
func (s AttributeSet) ID() string { return SetID(s.Names) }

// SetID computes the stable attribute-set identifier for the given
// attribute names (any order): the FNV-1a 64-bit hash of the sorted
// names, NUL-separated, rendered as 16 hex digits.
func SetID(names []string) string {
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, n := range sorted {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// String renders the set like the paper's tables.
func (s AttributeSet) String() string {
	return fmt.Sprintf("{%s} σ=%d ε=%.3f δ=%.3g", strings.Join(s.Names, " "), s.Support, s.Epsilon, s.Delta)
}

// Pattern is a structural correlation pattern (S, Q): a quasi-clique Q
// of the graph induced by attribute set S.
type Pattern struct {
	// Attrs and Names identify S (ascending ids).
	Attrs []int32
	Names []string
	// Vertices are Q's members as parent-graph vertex ids, ascending.
	Vertices []int32
	// MinDeg is the minimum internal degree of Q.
	MinDeg int
	// Edges is the number of internal edges of Q.
	Edges int
}

// Size returns |Q|.
func (p Pattern) Size() int { return len(p.Vertices) }

// SetID returns the stable identifier of the pattern's attribute set S
// (see AttributeSet.ID), joining a pattern to its set across exports
// and server responses.
func (p Pattern) SetID() string { return SetID(p.Names) }

// ID returns the stable identifier of the pattern (S, Q): a
// 16-hex-digit hash over the set identifier and Q's vertex ids. It is
// deterministic for a given dataset — the same (S, Q) pair hashes
// identically in every run and export.
func (p Pattern) ID() string {
	h := fnv.New64a()
	h.Write([]byte(p.SetID()))
	var buf [4]byte
	for _, v := range p.Vertices {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Density returns min_v deg_Q(v)/(|Q|−1) — the γ column of Table 1.
func (p Pattern) Density() float64 {
	if len(p.Vertices) <= 1 {
		return 0
	}
	return float64(p.MinDeg) / float64(len(p.Vertices)-1)
}

// EdgeDensity returns 2|E_Q|/(|Q|(|Q|−1)).
func (p Pattern) EdgeDensity() float64 {
	s := len(p.Vertices)
	if s <= 1 {
		return 0
	}
	return 2 * float64(p.Edges) / float64(s*(s-1))
}

// VertexNames resolves Q's members to their labels in g.
func (p Pattern) VertexNames(g *graph.Graph) []string {
	out := make([]string, len(p.Vertices))
	for i, v := range p.Vertices {
		out[i] = g.VertexName(v)
	}
	return out
}

// String renders the pattern like the paper's Table 1 rows.
func (p Pattern) String() string {
	return fmt.Sprintf("({%s},%v) size=%d γ=%.2f",
		strings.Join(p.Names, ","), p.Vertices, p.Size(), p.Density())
}

// Stats aggregates run counters.
type Stats struct {
	// SetsEvaluated counts attribute sets whose ε was computed.
	SetsEvaluated int64
	// SetsEmitted counts attribute sets passing all output thresholds.
	SetsEmitted int64
	// PatternsEmitted counts (S, Q) pairs reported.
	PatternsEmitted int64
	// SearchNodes counts quasi-clique candidate-tree nodes processed by
	// the coverage searches (the dominant cost of a run; the bench
	// harness records it as a hardware-independent work measure).
	SearchNodes int64
	// SampledVertices counts the membership samples drawn by the
	// sampled ε estimator across all evaluations (0 in exact mode).
	SampledVertices int64
	// ReusedSets counts attribute sets whose evaluation was carried
	// over from a previous run's lattice by Remine instead of being
	// recomputed (always 0 for a full Mine).
	ReusedSets int64
	// RecomputedSets counts attribute sets whose ε the run actually
	// computed — for a full Mine it equals SetsEvaluated; for a Remine
	// the ReusedSets/RecomputedSets split is the incremental saving.
	RecomputedSets int64
	// ReusedVerdicts counts level-1 singles replayed from an injected
	// table (Params.Level1Verdicts) instead of searched. Such singles
	// still count as evaluated — their sealed search-node bill is
	// credited to SearchNodes — so every other counter stays
	// bit-identical to a verdict-free run; like Duration, this counter
	// is excluded from the merge-equivalence contract.
	ReusedVerdicts int64
	// Duration is the wall-clock mining time.
	Duration time.Duration
}

// Result is the output of a mining run, canonically sorted (attribute
// sets by size then lexicographic ids; patterns grouped per set, larger
// and denser first).
type Result struct {
	Sets     []AttributeSet
	Patterns []Pattern
	Stats    Stats

	// lattice memoizes every evaluated attribute set of the run, and
	// level1 is the run's level-1 verdict table, when
	// Params.RecordLattice is on; Remine consumes both to skip clean
	// evaluations. nil otherwise.
	lattice *Lattice
	level1  *Level1Verdicts
}

// HasLattice reports whether the result carries the memoized search
// lattice Remine needs for incremental re-mining (recorded when
// Params.RecordLattice is set).
func (r *Result) HasLattice() bool { return r.lattice != nil }

// SetByNames finds an attribute set result by its names (any order),
// or nil.
func (r *Result) SetByNames(names ...string) *AttributeSet {
	want := slices.Clone(names)
	slices.Sort(want)
	for i := range r.Sets {
		if got := r.Sets[i].Names; len(got) == len(want) && sameNames(got, want) {
			return &r.Sets[i]
		}
	}
	return nil
}

// sameNames reports whether got, in any order, holds exactly the names
// of want, which is sorted and, like every set's names, has no
// duplicates.
func sameNames(got, want []string) bool {
	for _, n := range got {
		if _, ok := slices.BinarySearch(want, n); !ok {
			return false
		}
	}
	return true
}

// PatternsOf returns the patterns mined for the given attribute ids.
func (r *Result) PatternsOf(attrs []int32) []Pattern {
	var out []Pattern
	for _, p := range r.Patterns {
		if slices.Equal(p.Attrs, attrs) {
			out = append(out, p)
		}
	}
	return out
}

// bucket collects the rows one top-level subtree (or level 1) emits.
// Rows, their Attrs and their Names are carved from chunks that never
// move, so a bucket's growth copies nothing and a row costs no
// allocation of its own.
type bucket struct {
	rows  chunks[AttributeSet]
	ids   chunks[int32]
	names chunks[string]
	pats  []Pattern
}

// rowChunk is the largest chunk, in elements, a bucket allocates.
const rowChunk = 4096

// chunks is an append-only sequence stored in chunks. A full chunk is
// kept and the next one is twice as large, up to rowChunk elements.
type chunks[T any] [][]T

// carve appends n zero elements and returns them as one slice, capped
// at n so appending to it never spills into its neighbor.
func (c *chunks[T]) carve(n int) []T {
	k := len(*c)
	if k == 0 || cap((*c)[k-1])-len((*c)[k-1]) < n {
		size := 16
		if k > 0 {
			size = min(2*cap((*c)[k-1]), rowChunk)
		}
		*c = append(*c, make([]T, 0, max(size, n)))
		k++
	}
	last := (*c)[k-1]
	(*c)[k-1] = last[:len(last)+n]
	return last[len(last) : len(last)+n : len(last)+n]
}

// gather moves the buckets' rows into r in canonical order. The sets
// are sorted by reference and copied once, straight into place: sorting
// the wide rows themselves would swap them through reflection.
func (r *Result) gather(buckets []*bucket) {
	nSets, nPats := 0, 0
	for _, b := range buckets {
		if b != nil {
			for _, c := range b.rows {
				nSets += len(c)
			}
			nPats += len(b.pats)
		}
	}
	order := make([]*AttributeSet, 0, nSets)
	for _, b := range buckets {
		if b != nil {
			for _, c := range b.rows {
				for i := range c {
					order = append(order, &c[i])
				}
			}
		}
	}
	slices.SortFunc(order, func(a, b *AttributeSet) int { return CompareAttrs(a.Attrs, b.Attrs) })
	r.Sets = make([]AttributeSet, len(order))
	for i, s := range order {
		r.Sets[i] = *s
	}
	r.Patterns = make([]Pattern, 0, nPats)
	for _, b := range buckets {
		if b != nil {
			r.Patterns = append(r.Patterns, b.pats...)
		}
	}
	sort.Slice(r.Patterns, func(i, j int) bool {
		a, b := r.Patterns[i], r.Patterns[j]
		if c := CompareAttrs(a.Attrs, b.Attrs); c != 0 {
			return c < 0
		}
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		da, db := a.Density(), b.Density()
		if da != db {
			return da > db
		}
		return lessVertices(a.Vertices, b.Vertices)
	})
}

// CompareAttrs is the canonical attribute-set order: size first, then
// elementwise ids — the order of Result.Sets and of the index.
func CompareAttrs(a, b []int32) int {
	if len(a) != len(b) {
		return len(a) - len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return int(a[i]) - int(b[i])
		}
	}
	return 0
}

func lessVertices(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// NormalizeDelta computes δ = ε/εexp with the documented conventions:
// +Inf when εexp underflows to 0 while ε > 0, and 0 when both are 0.
// Exported so the serving layer reports on-demand answers with exactly
// the mining-side semantics.
func NormalizeDelta(eps, exp float64) float64 {
	switch {
	case exp > 0:
		return eps / exp
	case eps > 0:
		return math.Inf(1)
	default:
		return 0
	}
}
