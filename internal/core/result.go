package core

import (
	"fmt"
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
	var buf [16]string
	sorted := append(buf[:0], names...)
	slices.Sort(sorted)
	h := uint64(fnvOffset)
	for _, n := range sorted {
		h = fnvString(h, n) * fnvPrime // the NUL separator: (h ^ 0) * fnvPrime
	}
	return hex16(h)
}

// The 64-bit FNV-1a parameters, hashed by hand so a string goes in
// without a []byte copy.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds the bytes of s into the FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// hex16 renders h as 16 lowercase hex digits, as %016x does.
func hex16(h uint64) string {
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = "0123456789abcdef"[h&15]
		h >>= 4
	}
	return string(b[:])
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
	h := fnvString(fnvOffset, p.SetID())
	for _, v := range p.Vertices {
		for b := 0; b < 32; b += 8 { // little-endian bytes
			h = (h ^ uint64(uint32(v)>>b&0xff)) * fnvPrime
		}
	}
	return hex16(h)
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

// bucket collects the rows one top-level subtree (or level 1) emits. A
// row is a pointer-free record whose ascending ids sit in ids, which
// holds no pointers either, so the collector has nothing to scan in a
// bucket until gather builds the result. Rows and ids are carved from
// chunks that never move, so a bucket's growth copies nothing and a row
// costs no allocation of its own. names holds the Names of the sets
// streamed to a sink; it stays empty when the run has none.
type bucket struct {
	rows  chunks[row]
	ids   chunks[int32]
	names chunks[string]
	pats  []Pattern
}

// row is a bucket's record of one emitted set: the numeric fields of its
// AttributeSet and where its ascending ids sit in the bucket,
// ids[chunk][off : off+size]. It must hold no pointer (see bucket).
type row struct {
	epsilon, expEps, delta, epsErr float64
	support, covered, sampled      int32
	chunk, off, size               int32
	estimated                      bool
}

// put writes r to dst, a zero AttributeSet, with the given ids and
// names. It stores field by field: building the wide set as a value
// and copying it costs more than the row itself.
func (r *row) put(dst *AttributeSet, attrs []int32, names []string) {
	dst.Attrs, dst.Names = attrs, names
	dst.Support, dst.Covered, dst.SampledVertices = int(r.support), int(r.covered), int(r.sampled)
	dst.Epsilon, dst.ExpEps, dst.Delta, dst.EpsilonErr = r.epsilon, r.expEps, r.delta, r.epsErr
	dst.Estimated = r.estimated
}

// add stores r as the bucket's next row, with a copy of attrs sorted
// ascending as its ids, and returns that copy.
func (b *bucket) add(r row, attrs []int32) []int32 {
	ids := b.ids.carve(len(attrs))
	copy(ids, attrs)
	slices.Sort(ids)
	k := len(b.ids) - 1
	r.chunk, r.off, r.size = int32(k), int32(len(b.ids[k])-len(ids)), int32(len(ids))
	b.rows.carve(1)[0] = r
	return ids
}

// emit stores one qualifying set, r with the ids attrs, and its patterns
// in b, counts them, and streams them to em's sink. The set a sink gets
// has its ids and names carved from b, so nothing written later changes
// it.
func (b *bucket) emit(em *emitter, g *graph.Graph, r row, attrs []int32, pats []Pattern) {
	ids := b.add(r, attrs)
	b.pats = append(b.pats, pats...)
	em.noteEmitted(1, int64(len(pats)))
	if em.sink == nil {
		return
	}
	names := b.names.carve(len(ids))
	for i, a := range ids {
		names[i] = g.AttrName(a)
	}
	var set AttributeSet
	r.put(&set, ids, names)
	em.deliver(&set, pats)
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

// eachRow calls fn on every row of buckets in storage order: bucket by
// bucket, each bucket's rows in the order they were added.
func eachRow(buckets []*bucket, fn func(b *bucket, r *row)) {
	for _, b := range buckets {
		if b == nil {
			continue
		}
		for _, c := range b.rows {
			for i := range c {
				fn(b, &c[i])
			}
		}
	}
}

// gather moves the buckets' rows into r in canonical order, naming each
// id with name. The rows are grouped by size, and each group's ids are
// copied into one key block for keySorter to order. One walk over the
// rows in storage order then writes each row once, straight to its
// rank. Its Attrs stay in the bucket's id chunks and its Names are
// carved from chunks in the same order, so a Remine's carried rows keep
// only the chunks they use alive, not every row a generation stored.
func (r *Result) gather(buckets []*bucket, name func(int32) string) {
	// A set of s ids is row j of group s, in storage order: its ids are
	// keys[at[s]+j*s:][:s], and its rank is first[s] plus rank[first[s]+j],
	// its rank inside the group.
	var count []int
	eachRow(buckets, func(_ *bucket, rw *row) {
		for int(rw.size) >= len(count) {
			count = append(count, 0)
		}
		count[rw.size]++
	})
	first, at, next := make([]int, len(count)), make([]int, len(count)), make([]int, len(count))
	nSets, nIDs, largest := 0, 0, 0
	for s, c := range count {
		first[s], at[s] = nSets, nIDs
		nSets, nIDs, largest = nSets+c, nIDs+s*c, max(largest, c)
	}
	keys := make([]int32, nIDs)
	var top int32
	eachRow(buckets, func(b *bucket, rw *row) {
		s := int(rw.size)
		ids := b.ids[rw.chunk][rw.off : rw.off+rw.size]
		copy(keys[at[s]+next[s]*s:], ids)
		next[s]++
		if s > 0 {
			top = max(top, ids[s-1])
		}
	})
	rank := make([]uint32, nSets)
	ks := newKeySorter(top, largest)
	for s, c := range count {
		group := rank[first[s] : first[s]+c]
		for x, j := range ks.order(keys[at[s]:at[s]+s*c], s, c) {
			group[j] = uint32(x)
		}
	}
	r.Sets = make([]AttributeSet, nSets)
	var names chunks[string]
	clear(next)
	eachRow(buckets, func(b *bucket, rw *row) {
		s := int(rw.size)
		j := next[s]
		next[s]++
		ids := b.ids[rw.chunk][rw.off : rw.off+rw.size : rw.off+rw.size]
		ns := names.carve(s)
		for k, a := range ids {
			ns[k] = name(a)
		}
		rw.put(&r.Sets[first[s]+int(rank[first[s]+j])], ids, ns)
	})

	nPats := 0
	for _, b := range buckets {
		if b != nil {
			nPats += len(b.pats)
		}
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

// radixBits is the digit width of keySorter's radix passes: an id
// position takes one pass per radixBits bits of the largest id, so one
// pass for up to 2,048 attributes.
const radixBits = 11

// keySorter orders the rows of size groups lexicographically by their
// ids. It keeps its counters and permutation buffers across groups.
type keySorter struct {
	digits    int
	hist      []int32
	perm, tmp []uint32
}

// newKeySorter returns a keySorter for ids up to top and groups of up
// to largest rows.
func newKeySorter(top int32, largest int) *keySorter {
	digits := 1
	for uint64(top)>>(digits*radixBits) != 0 {
		digits++
	}
	return &keySorter{digits: digits, hist: make([]int32, 1<<radixBits),
		perm: make([]uint32, largest), tmp: make([]uint32, largest)}
}

// order returns the stable permutation that sorts the m rows of keys,
// row j being keys[j*s:(j+1)*s], lexicographically: x-th in order is
// row order[x]. It is a least-significant-digit radix sort, digit by
// digit from the last id position to the first. The returned slice is
// overwritten by the next call.
func (k *keySorter) order(keys []int32, s, m int) []uint32 {
	perm, tmp := k.perm[:m], k.tmp[:m]
	for j := range perm {
		perm[j] = uint32(j)
	}
	const mask = 1<<radixBits - 1
	hist := k.hist
	for p := s - 1; p >= 0 && m > 1; p-- {
		for shift := 0; shift < k.digits*radixBits; shift += radixBits {
			clear(hist)
			for i := p; i < len(keys); i += s {
				hist[uint32(keys[i])>>shift&mask]++
			}
			if hist[uint32(keys[p])>>shift&mask] == int32(m) {
				continue // every row has this digit: the pass moves none
			}
			sum := int32(0)
			for d, c := range hist {
				hist[d], sum = sum, sum+c
			}
			for _, j := range perm {
				d := uint32(keys[int(j)*s+p]) >> shift & mask
				tmp[hist[d]] = j
				hist[d]++
			}
			perm, tmp = tmp, perm
		}
	}
	return perm
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
