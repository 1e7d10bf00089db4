// Package epsilon is the pluggable ε-estimation layer of SCPM: given an
// attribute set S (its member vertices V(S) and the Theorem-3 candidate
// restriction), an Estimator produces the structural correlation ε(S)
// together with everything the miner's pruning rules need — the
// covered-set hand-down for Theorem 3 and an upper bound on |K_S| for
// Theorems 4–5.
//
// Two implementations are provided:
//
//   - Exact runs the full quasi-clique coverage search of §3.2.2 and is
//     bit-identical to computing ε inline;
//   - Sampled draws a deterministic seeded vertex sample from V(S) and
//     answers a per-vertex "is v inside some γ-quasi-clique of G(S)?"
//     membership query for each draw (§6 of the paper), with a
//     Hoeffding-bounded sample size, falling back to Exact whenever the
//     sample would not be smaller than the population.
package epsilon

import (
	"math"
	"math/rand"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/quasiclique"
	"github.com/scpm/scpm/internal/stats"
)

// Default sampling accuracy: |ε̂−ε| ≤ 0.1 with probability ≥ 95% per
// estimate, i.e. 185 membership samples.
const (
	// DefaultSampleEps is the Hoeffding half-width used when a
	// non-positive SampleEps is configured.
	DefaultSampleEps = 0.1
	// DefaultSampleDelta is the failure probability used when a
	// non-positive SampleDelta is configured.
	DefaultSampleDelta = 0.05
)

// Estimate is the outcome of one ε(S) computation.
type Estimate struct {
	// Epsilon is ε(S) — exact, or the sampling estimate ε̂(S).
	Epsilon float64
	// Covered is |K_S| in exact mode; in sampled mode it is the rounded
	// estimate ε̂·σ.
	Covered int
	// Handdown is a superset of K_S over parent-graph vertex ids: the
	// exact K_S in exact mode, and in sampled mode the candidate set
	// minus the sampled vertices proven uncovered. Theorem 3 lets child
	// attribute sets restrict their searches to it in either mode.
	Handdown *bitset.Set
	// KMass upper-bounds |K_S| = ε(S)·σ(S) — exactly in exact mode, with
	// probability ≥ 1−δ in sampled mode — which is what the Theorem-4/5
	// survival bounds consume.
	KMass float64
	// Estimated reports whether Epsilon (and Covered) are sampling
	// estimates rather than exact counts.
	Estimated bool
	// SampledVertices is the number of membership queries drawn; 0 when
	// the estimate is exact.
	SampledVertices int
	// ErrBound is the Hoeffding half-width w of the estimate: |ε̂−ε| ≤ w
	// with probability ≥ 1−δ. 0 when the estimate is exact.
	ErrBound float64
	// Nodes is the number of quasi-clique search-tree nodes spent.
	Nodes int64
}

// Estimator computes the structural correlation of attribute sets.
// Implementations must be safe for concurrent use by mining workers and
// deterministic: the same (attrs, members, candidates) input always
// yields the same Estimate.
type Estimator interface {
	// EstimateWithCerts computes ε(S) for the attribute set S = attrs,
	// whose member vertices are members = V(S) and whose coverage
	// search may be restricted to candidates ⊆ members (Theorem 3; pass
	// members when no restriction applies). attrs identifies S for
	// deterministic per-set seeding and must be in canonical (ascending)
	// order.
	//
	// certs is an optional certificate store: coverage already proven
	// by certs is not re-searched, and quasi-cliques discovered along
	// the way are captured into certs for later evaluations. The
	// Estimate itself must be bit-identical to the store-free call —
	// certificates only shrink Nodes. Pass nil to search without one.
	EstimateWithCerts(g *graph.Graph, attrs []int32, members, candidates *bitset.Set, certs *CertStore) (Estimate, error)
	// Name identifies the estimator in reports ("exact", "sampled").
	Name() string
}

// Exact computes ε(S) with the full coverage search of §3.2.2 —
// bit-identical to the pre-refactor inline computation in the miner.
type Exact struct {
	p quasiclique.Params
	o quasiclique.Options
}

// NewExact builds the exact estimator for the given quasi-clique
// definition and engine options.
func NewExact(p quasiclique.Params, o quasiclique.Options) *Exact {
	return &Exact{p: p, o: o}
}

// Name implements Estimator.
func (e *Exact) Name() string { return "exact" }

// EstimateWithCerts implements Estimator: it slices G(S) down to the
// candidate set, runs the coverage search and maps the covered set
// back to parent-graph ids. Applicable certificates seed the coverage
// search's covered set, and every quasi-clique the search reports is
// captured back into the store. The covered set K_S is a fixed
// property of G(S), so the result is bit-identical either way.
//
// An empty candidate set short-circuits: K_S ⊆ candidates = ∅
// (Theorem 3), so ε = 0 with no slice, no certificate scan and no
// search, and the hand-down is candidates itself.
func (e *Exact) EstimateWithCerts(g *graph.Graph, attrs []int32, members, candidates *bitset.Set, certs *CertStore) (Estimate, error) {
	if candidates.IsEmpty() {
		return Estimate{Handdown: candidates}, nil
	}
	sigma := members.Count()
	sub := g.InducedByMembers(candidates)
	seed := certs.seedLocal(sub, candidates)
	cov, err := quasiclique.CoverageSeeded(quasiclique.NewGraphCSR(sub.CSR()), e.p, e.o, seed, certs.capture(sub))
	if err != nil {
		return Estimate{}, err
	}
	covered := bitset.New(g.NumVertices())
	cov.Covered.ForEach(func(local int) bool {
		covered.Add(int(sub.Orig[local]))
		return true
	})
	nCov := covered.Count()
	eps := 0.0
	if sigma > 0 {
		eps = float64(nCov) / float64(sigma)
	}
	return Estimate{
		Epsilon:  eps,
		Covered:  nCov,
		Handdown: covered,
		KMass:    float64(nCov),
		Nodes:    cov.Nodes,
	}, nil
}

// Sampled estimates ε(S) by sampling vertices from V(S) without
// replacement and running one anchored membership query per draw. The
// sample size m = ⌈ln(2/δ)/(2ε²)⌉ guarantees |ε̂−ε| ≤ ε with
// probability ≥ 1−δ (Hoeffding; sampling without replacement only
// concentrates harder). Randomness is derived from (Seed, attrs), so a
// run's estimates are deterministic and independent of worker
// scheduling. Sets whose support does not exceed the sample size are
// delegated to the exact estimator — there the full search is the
// cheaper option and the result carries no error.
type Sampled struct {
	eps   float64
	delta float64
	seed  int64
	m     int
	exact *Exact
	p     quasiclique.Params
	o     quasiclique.Options
}

// NewSampled builds the sampling estimator. Non-positive eps or delta
// fall back to DefaultSampleEps / DefaultSampleDelta.
func NewSampled(p quasiclique.Params, o quasiclique.Options, eps, delta float64, seed int64) *Sampled {
	if eps <= 0 {
		eps = DefaultSampleEps
	}
	if delta <= 0 {
		delta = DefaultSampleDelta
	}
	return &Sampled{
		eps:   eps,
		delta: delta,
		seed:  seed,
		m:     SampleSize(eps, delta),
		exact: NewExact(p, o),
		p:     p,
		o:     o,
	}
}

// Name implements Estimator.
func (s *Sampled) Name() string { return "sampled" }

// SampleSize returns the Hoeffding sample count m = ⌈ln(2/δ)/(2ε²)⌉
// needed for |ε̂−ε| ≤ eps with probability ≥ 1−delta.
func SampleSize(eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return math.MaxInt32
	}
	m := math.Ceil(math.Log(2/delta) / (2 * eps * eps))
	if m < 1 {
		return 1
	}
	return int(m)
}

// SampleWorthFactor is the minimum σ/m ratio for sampling to engage.
// Each anchored query re-derives structure the full coverage search
// amortizes across all vertices, so probing a large fraction of V(S)
// one vertex at a time costs more than one exact search; sampling only
// pays off once the sample is a small fraction of the population.
const SampleWorthFactor = 2

// EstimateWithCerts implements Estimator: sampled vertices covered by an
// applicable certificate count as hits without an anchored search —
// identical to the verdict the search would reach, since the anchored
// query is complete — and quasi-cliques reported by the searches that
// do run are captured into the store. ε̂, the hand-down and the node
// budget semantics are bit-identical to the store-free call.
func (s *Sampled) EstimateWithCerts(g *graph.Graph, attrs []int32, members, candidates *bitset.Set, certs *CertStore) (Estimate, error) {
	sigma := members.Count()
	if sigma <= SampleWorthFactor*s.m {
		return s.exact.EstimateWithCerts(g, attrs, members, candidates, certs)
	}

	// Deterministic per-set sample: m draws without replacement from
	// V(S) by partial Fisher–Yates over the member slice.
	rng := rand.New(rand.NewSource(setSeed(s.seed, attrs)))
	verts := members.Slice()
	for i := 0; i < s.m; i++ {
		j := i + rng.Intn(len(verts)-i)
		verts[i], verts[j] = verts[j], verts[i]
	}
	sample := verts[:s.m]

	sub := g.InducedByMembers(candidates)
	eng, err := quasiclique.NewEngine(quasiclique.NewGraphCSR(sub.CSR()), s.p, s.o)
	if err != nil {
		return Estimate{}, err
	}
	seed := certs.seedLocal(sub, candidates)
	if sink := certs.capture(sub); sink != nil {
		eng.SetCertSink(sink)
	}
	handdown := candidates.Clone()
	hits := 0
	for _, v := range sample {
		// Vertices outside the candidate restriction are already known
		// to lie outside every quasi-clique of G(S) (Theorem 3): they
		// count as misses without a search.
		local := sub.LocalOf(v)
		if local < 0 {
			continue
		}
		if seed != nil && seed.Contains(int(local)) {
			// A certificate proves v covered; the anchored search —
			// which is complete — would return the same verdict.
			hits++
			continue
		}
		ok, err := eng.CoversVertex(local)
		if err != nil {
			return Estimate{}, err
		}
		if ok {
			hits++
		} else {
			// A sampled vertex proven uncovered cannot be in K_S, so the
			// hand-down set for child searches sheds it.
			handdown.Remove(int(v))
		}
	}
	epsHat := float64(hits) / float64(s.m)
	// |K_S| ≤ (ε̂+w)·σ with probability ≥ 1−δ, and always ≤ |handdown|.
	kMass := (epsHat + s.eps) * float64(sigma)
	if hc := float64(handdown.Count()); kMass > hc {
		kMass = hc
	}
	return Estimate{
		Epsilon:         epsHat,
		Covered:         int(math.Round(epsHat * float64(sigma))),
		Handdown:        handdown,
		KMass:           kMass,
		Estimated:       true,
		SampledVertices: s.m,
		ErrBound:        s.eps,
		Nodes:           eng.NodesVisited(),
	}, nil
}

// setSeed derives a per-attribute-set rng seed from the run seed by
// folding the attribute ids through the shared avalanche mixer, so
// nearby sets decorrelate and results do not depend on evaluation
// order.
func setSeed(seed int64, attrs []int32) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, a := range attrs {
		h = stats.Mix64(h + uint64(uint32(a)) + 1)
	}
	return int64(stats.Mix64(h + uint64(len(attrs))))
}
