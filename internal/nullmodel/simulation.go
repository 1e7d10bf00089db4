package nullmodel

import (
	"math/rand"
	"sync"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/quasiclique"
	"github.com/scpm/scpm/internal/stats"
)

// Simulation is sim-εexp: the Monte-Carlo expected structural
// correlation. For a given support σ it draws R uniform σ-vertex samples
// of G, runs the quasi-clique coverage search on each induced subgraph
// and averages the covered fraction.
//
// Sample randomness is derived from (Seed, σ, sample index), so results
// are deterministic and independent of call order — including calls from
// concurrent SCPM workers.
type Simulation struct {
	g    *graph.Graph
	p    quasiclique.Params
	R    int
	seed int64
	est  epsilon.Estimator

	mu    sync.Mutex
	cache map[int]meanStd
}

type meanStd struct{ mean, std float64 }

// NewSimulation configures a simulation model with R samples per
// support value; each sample's covered fraction is computed with the
// exact coverage search.
func NewSimulation(g *graph.Graph, p quasiclique.Params, r int, seed int64) *Simulation {
	if r < 1 {
		r = 1
	}
	return &Simulation{g: g, p: p, R: r, seed: seed, cache: make(map[int]meanStd)}
}

// NewSimulationApprox configures a simulation model whose per-sample
// covered fraction is itself estimated with the sampled ε estimator:
// instead of one full coverage search per Monte-Carlo draw, each draw
// runs a Hoeffding-bounded batch of early-exit membership queries
// (anchored quasi-clique searches). For supports well above the sample
// size this removes most of the simulation's cost; small draws still
// run the exact search. Non-positive sampleEps / sampleDelta use the
// estimator defaults. The estimator's randomness is derived from seed,
// so results stay deterministic.
func NewSimulationApprox(g *graph.Graph, p quasiclique.Params, r int, seed int64, sampleEps, sampleDelta float64) *Simulation {
	s := NewSimulation(g, p, r, seed)
	s.est = epsilon.NewSampled(p, quasiclique.Options{}, sampleEps, sampleDelta, seed)
	return s
}

// Name implements Model ("sim-exp-approx" when the covered fraction is
// itself estimated by membership sampling).
func (s *Simulation) Name() string {
	if s.est != nil {
		return "sim-exp-approx"
	}
	return "sim-exp"
}

// Exp implements Model.
func (s *Simulation) Exp(sigma int) float64 {
	m, _ := s.ExpStd(sigma)
	return m
}

// ExpStd returns the sample mean and standard deviation of the
// structural correlation over the R random samples (the error bars of
// Figures 4, 7 and 9).
func (s *Simulation) ExpStd(sigma int) (mean, std float64) {
	s.mu.Lock()
	if v, ok := s.cache[sigma]; ok {
		s.mu.Unlock()
		return v.mean, v.std
	}
	s.mu.Unlock()

	n := s.g.NumVertices()
	if sigma < s.p.MinSize || n == 0 {
		// no sample smaller than min_size can contain a quasi-clique
		s.store(sigma, 0, 0)
		return 0, 0
	}
	if sigma > n {
		sigma = n
	}
	vals := make([]float64, s.R)
	for i := 0; i < s.R; i++ {
		vals[i] = s.sampleOnce(sigma, i, s.sampleSeed(sigma, i))
	}
	mean, std = stats.MeanStd(vals)
	s.store(sigma, mean, std)
	return mean, std
}

func (s *Simulation) store(sigma int, mean, std float64) {
	s.mu.Lock()
	s.cache[sigma] = meanStd{mean, std}
	s.mu.Unlock()
}

func (s *Simulation) sampleSeed(sigma, i int) int64 {
	h := uint64(s.seed)
	h = h*1000003 + uint64(sigma)
	h = h*1000003 + uint64(i)
	// full avalanche so nearby (σ, i) pairs decorrelate
	return int64(stats.Mix64(h))
}

// sampleOnce draws one σ-vertex sample and returns its covered
// fraction — exactly, or through the configured estimator (whose own
// membership sampling only does the work the mean actually needs).
func (s *Simulation) sampleOnce(sigma, idx int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	n := s.g.NumVertices()
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	// partial Fisher–Yates: the first σ entries become the sample
	for i := 0; i < sigma; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	sample := perm[:sigma]
	if s.est != nil {
		// The estimator keys its per-call randomness on the "attribute
		// set" identity; (σ, draw index) plays that role here.
		members := bitset.FromSlice(n, sample)
		e, err := s.est.EstimateWithCerts(s.g, []int32{int32(sigma), int32(idx)}, members, members, nil)
		if err != nil {
			// The sampled estimator runs without budget or context, so
			// like Coverage below it cannot fail on valid params.
			panic(err)
		}
		return e.Epsilon
	}
	sg := s.g.InducedByVertices(sample)
	res, err := quasiclique.Coverage(quasiclique.NewGraphCSR(sg.CSR()), s.p, quasiclique.Options{})
	if err != nil {
		// Coverage only errors on invalid params or an explicit node
		// budget; neither applies here.
		panic(err)
	}
	return float64(res.Covered.Count()) / float64(sigma)
}
