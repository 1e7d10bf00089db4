package core

// Cross-cutting invariant tests: properties the paper states (or that
// follow from its definitions) checked on random attributed graphs.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/scpm/scpm/internal/bitset"
)

// TestQuickTheorem4Invariant checks |K_Sj| ≤ |K_Si| for Si ⊆ Sj on the
// mined output: ε(S)·σ(S) is anti-monotone under attribute extension,
// which is exactly what the Theorem-4 pruning rule relies on.
func TestQuickTheorem4Invariant(t *testing.T) {
	f := func(seed int64) bool {
		g := randomAttributedGraph(seed, 14)
		p := Params{SigmaMin: 1, Gamma: 0.5, MinSize: 3}
		res, err := mineBatch(g, p)
		if err != nil {
			return false
		}
		byKey := map[string]AttributeSet{}
		for _, s := range res.Sets {
			byKey[fmt.Sprint(s.Attrs)] = s
		}
		for _, s := range res.Sets {
			if len(s.Attrs) < 2 {
				continue
			}
			// every (|S|-1)-subset must cover at least as many vertices
			for drop := range s.Attrs {
				sub := make([]int32, 0, len(s.Attrs)-1)
				for i, a := range s.Attrs {
					if i != drop {
						sub = append(sub, a)
					}
				}
				parent, ok := byKey[fmt.Sprint(sub)]
				if !ok {
					// the subset always has support ≥ superset ≥ σmin,
					// so with εmin = δmin = 0 it must have been emitted
					return false
				}
				if s.Covered > parent.Covered {
					t.Logf("K anti-monotonicity violated: %v (%d) ⊃ %v (%d)",
						s.Names, s.Covered, parent.Names, parent.Covered)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEpsilonBounds checks 0 ≤ ε ≤ 1 and Covered = ε·σ exactly.
func TestQuickEpsilonBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := randomAttributedGraph(seed, 15)
		res, err := mineBatch(g, Params{SigmaMin: 2, Gamma: 0.6, MinSize: 3})
		if err != nil {
			return false
		}
		for _, s := range res.Sets {
			if s.Epsilon < 0 || s.Epsilon > 1 {
				return false
			}
			if s.Covered < 0 || s.Covered > s.Support {
				return false
			}
			want := float64(s.Covered) / float64(s.Support)
			if diff := s.Epsilon - want; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPatternsLiveInsideTheirInducedGraph checks Definition 3:
// every reported pattern (S, Q) satisfies Q ⊆ V(S), the quasi-clique
// degree constraint within G(S), and min-size.
func TestQuickPatternsLiveInsideTheirInducedGraph(t *testing.T) {
	f := func(seed int64) bool {
		g := randomAttributedGraph(seed, 15)
		p := Params{SigmaMin: 2, Gamma: 0.5, MinSize: 3, K: 4}
		res, err := mineBatch(g, p)
		if err != nil {
			return false
		}
		qp := p.QuasiCliqueParams()
		for _, pat := range res.Patterns {
			members := g.Members(pat.Attrs)
			inQ := bitset.New(g.NumVertices())
			for _, v := range pat.Vertices {
				if !members.Contains(int(v)) {
					return false // Q ⊄ V(S)
				}
				inQ.Add(int(v))
			}
			if pat.Size() < p.MinSize {
				return false
			}
			need := qp.MinDegree(pat.Size())
			for _, v := range pat.Vertices {
				deg := 0
				for _, u := range g.Neighbors(v) {
					if inQ.Contains(int(u)) {
						deg++
					}
				}
				if deg < need {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPatternVerticesAreCovered checks that every pattern vertex
// is counted in its set's K_S (patterns are witnesses of coverage).
func TestQuickPatternVerticesAreCovered(t *testing.T) {
	f := func(seed int64) bool {
		g := randomAttributedGraph(seed, 14)
		res, err := mineBatch(g, Params{SigmaMin: 2, Gamma: 0.5, MinSize: 3, K: 3})
		if err != nil {
			return false
		}
		for _, s := range res.Sets {
			cov := map[int32]bool{}
			for _, pat := range res.PatternsOf(s.Attrs) {
				for _, v := range pat.Vertices {
					cov[v] = true
				}
			}
			// pattern vertices are a subset of K_S, so never exceed it
			if len(cov) > s.Covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeltaConsistentWithModel re-derives δ from ε and the model.
func TestQuickDeltaConsistentWithModel(t *testing.T) {
	f := func(seed int64) bool {
		g := randomAttributedGraph(seed, 16)
		p := Params{SigmaMin: 2, Gamma: 0.5, MinSize: 3}
		model := p.model(g)
		res, err := mineBatch(g, p)
		if err != nil {
			return false
		}
		for _, s := range res.Sets {
			// +Inf == +Inf holds in Go, so plain equality covers the
			// εexp-underflow case too
			if s.Delta != NormalizeDelta(s.Epsilon, model.Exp(s.Support)) {
				return false
			}
			if s.ExpEps != model.Exp(s.Support) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSupportsRespectSigmaMin checks the σmin contract on output.
func TestQuickSupportsRespectSigmaMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sigmaMin := 2 + rng.Intn(4)
		g := randomAttributedGraph(seed, 15)
		res, err := mineBatch(g, Params{SigmaMin: sigmaMin, Gamma: 0.5, MinSize: 3})
		if err != nil {
			return false
		}
		for _, s := range res.Sets {
			if s.Support < sigmaMin {
				return false
			}
			if s.Support != g.Support(s.Attrs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
