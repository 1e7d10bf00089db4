package epsilon

import (
	"math"
	"reflect"
	"testing"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/quasiclique"
)

// testGraph generates a small synthetic attributed graph (deterministic
// per seed offset) with planted communities, so supports are large
// enough for real sampling.
func testGraph(t *testing.T, seedOffset int64) *graph.Graph {
	t.Helper()
	prof := datagen.SmallDBLP(0.2)
	prof.Config.Seed += seedOffset
	g, _, err := datagen.Generate(prof.Config)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func qcParams() quasiclique.Params { return quasiclique.Params{Gamma: 0.5, MinSize: 4} }

func TestSampleSize(t *testing.T) {
	cases := []struct {
		eps, delta float64
		want       int
	}{
		{0.1, 0.05, 185},  // ⌈ln(40)/0.02⌉
		{0.25, 0.2, 19},   // ⌈ln(10)/0.125⌉
		{0.05, 0.05, 738}, // ⌈ln(40)/0.005⌉
	}
	for _, c := range cases {
		if got := SampleSize(c.eps, c.delta); got != c.want {
			t.Errorf("SampleSize(%g, %g) = %d, want %d", c.eps, c.delta, got, c.want)
		}
	}
	if SampleSize(0, 0.1) != math.MaxInt32 || SampleSize(0.1, 0) != math.MaxInt32 {
		t.Error("degenerate inputs should disable sampling")
	}
}

// TestExactAgainstCoverage checks the exact estimator against a direct
// coverage computation for every frequent single attribute.
func TestExactAgainstCoverage(t *testing.T) {
	g := testGraph(t, 0)
	qp := qcParams()
	est := NewExact(qp, quasiclique.Options{})
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		members := g.AttrMembers(a)
		sigma := members.Count()
		if sigma < 10 {
			continue
		}
		e, err := est.EstimateWithCerts(g, []int32{a}, members, members, nil)
		if err != nil {
			t.Fatal(err)
		}
		sub := g.InducedByAttrs([]int32{a})
		cov, err := quasiclique.Coverage(quasiclique.NewGraphCSR(sub.CSR()), qp, quasiclique.Options{})
		if err != nil {
			t.Fatal(err)
		}
		nCov := cov.Covered.Count()
		if e.Covered != nCov || e.Estimated || e.ErrBound != 0 || e.SampledVertices != 0 {
			t.Fatalf("attr %d: estimate %+v, want covered %d exact", a, e, nCov)
		}
		if want := float64(nCov) / float64(sigma); e.Epsilon != want {
			t.Fatalf("attr %d: ε = %v, want %v", a, e.Epsilon, want)
		}
		if e.Handdown.Count() != nCov || e.KMass != float64(nCov) {
			t.Fatalf("attr %d: handdown/KMass inconsistent: %+v", a, e)
		}
	}
}

// TestSampledWithinHoeffdingBound is the accuracy property test: across
// every frequent attribute of several generated graphs, |ε̂ − ε| must
// stay within the configured half-width except for a δ-bounded fraction
// of violations, the hand-down set must remain a superset of K_S, and
// KMass must upper-bound |K_S| whenever the estimate is in bound.
func TestSampledWithinHoeffdingBound(t *testing.T) {
	const sampleEps, sampleDelta = 0.25, 0.1
	qp := qcParams()
	exact := NewExact(qp, quasiclique.Options{})
	sampled := NewSampled(qp, quasiclique.Options{}, sampleEps, sampleDelta, 42)
	trials, violations := 0, 0
	for off := int64(0); off < 3; off++ {
		g := testGraph(t, off)
		for a := int32(0); a < int32(g.NumAttributes()); a++ {
			members := g.AttrMembers(a)
			if members.Count() <= SampleWorthFactor*SampleSize(sampleEps, sampleDelta) {
				continue // would fall back to exact — not a sampling trial
			}
			want, err := exact.EstimateWithCerts(g, []int32{a}, members, members, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sampled.EstimateWithCerts(g, []int32{a}, members, members, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Estimated || got.SampledVertices == 0 || got.ErrBound != sampleEps {
				t.Fatalf("attr %d: not a sampled estimate: %+v", a, got)
			}
			if !got.Handdown.ContainsAll(want.Handdown) {
				t.Fatalf("attr %d: hand-down set lost covered vertices", a)
			}
			trials++
			if math.Abs(got.Epsilon-want.Epsilon) > sampleEps {
				violations++
				continue
			}
			if got.KMass < float64(want.Covered) {
				t.Fatalf("attr %d: KMass %v below |K_S| %d despite in-bound ε̂", a, got.KMass, want.Covered)
			}
		}
	}
	if trials == 0 {
		t.Fatal("no sampling trials — generated supports too small")
	}
	// Hoeffding allows a δ fraction of misses; give it 2× headroom plus
	// one so tiny trial counts cannot flake.
	allowed := int(2*sampleDelta*float64(trials)) + 1
	if violations > allowed {
		t.Fatalf("%d/%d estimates outside ±%g (allowed %d)", violations, trials, sampleEps, allowed)
	}
	t.Logf("sampled accuracy: %d trials, %d outside ±%g (allowed %d)", trials, violations, sampleEps, allowed)
}

// TestSampledDeterminism: the same seed must reproduce every estimate
// bit-for-bit; estimation must not mutate its inputs.
func TestSampledDeterminism(t *testing.T) {
	g := testGraph(t, 1)
	qp := qcParams()
	a := mostFrequentAttr(g)
	members := g.AttrMembers(a)
	snapshot := members.Clone()

	first := NewSampled(qp, quasiclique.Options{}, 0.2, 0.1, 7)
	second := NewSampled(qp, quasiclique.Options{}, 0.2, 0.1, 7)
	e1, err := first.EstimateWithCerts(g, []int32{a}, members, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := second.EstimateWithCerts(g, []int32{a}, members, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Epsilon != e2.Epsilon || e1.Covered != e2.Covered || !e1.Handdown.Equal(e2.Handdown) {
		t.Fatalf("same seed diverged: %+v vs %+v", e1, e2)
	}
	// A re-run on the same estimator instance must agree too.
	e3, err := first.EstimateWithCerts(g, []int32{a}, members, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Epsilon != e3.Epsilon {
		t.Fatalf("re-run diverged: %v vs %v", e1.Epsilon, e3.Epsilon)
	}
	if !members.Equal(snapshot) {
		t.Fatal("Estimate mutated the member set")
	}
}

// TestSampledFallsBackToExact: supports at or below the sample size must
// delegate to the exact estimator.
func TestSampledFallsBackToExact(t *testing.T) {
	g := graph.PaperExample()
	qp := quasiclique.Params{Gamma: 0.6, MinSize: 4}
	sampled := NewSampled(qp, quasiclique.Options{}, 0.1, 0.05, 1)
	exact := NewExact(qp, quasiclique.Options{})
	a, ok := g.AttrID("A")
	if !ok {
		t.Fatal("paper example lost attribute A")
	}
	members := g.AttrMembers(a)
	got, err := sampled.EstimateWithCerts(g, []int32{a}, members, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.EstimateWithCerts(g, []int32{a}, members, members, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Estimated || !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback not exact: got %+v want %+v", got, want)
	}
}

// TestSampledCandidateRestriction: vertices outside the Theorem-3
// candidate set count as misses and never enter the hand-down set.
func TestSampledCandidateRestriction(t *testing.T) {
	g := testGraph(t, 2)
	qp := qcParams()
	a := mostFrequentAttr(g)
	members := g.AttrMembers(a)
	empty := bitset.New(g.NumVertices())
	sampled := NewSampled(qp, quasiclique.Options{}, 0.2, 0.1, 3)
	e, err := sampled.EstimateWithCerts(g, []int32{a}, members, empty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Epsilon != 0 || e.Covered != 0 || e.KMass != 0 || e.Handdown.Count() != 0 {
		t.Fatalf("empty candidates must force ε̂ = 0: %+v", e)
	}
}

// TestExactEmptyCandidates: an empty Theorem-3 restriction answers
// ε = 0 with no search and an empty hand-down over the parent graph,
// and leaves the certificate store untouched, with or without one.
func TestExactEmptyCandidates(t *testing.T) {
	g := testGraph(t, 0)
	exact := NewExact(qcParams(), quasiclique.Options{})
	a := mostFrequentAttr(g)
	members := g.AttrMembers(a)

	base := NewCertStore()
	if _, err := exact.EstimateWithCerts(g, []int32{a}, members, members, base); err != nil {
		t.Fatal(err)
	}
	if base.Len() == 0 {
		t.Fatal("fixture: the base store captured no certificate")
	}
	stores := map[string]*CertStore{"none": nil, "layered": NewCertStoreFrom(base)}
	for name, store := range stores {
		before := store.Len()
		empty := bitset.New(g.NumVertices())
		e, err := exact.EstimateWithCerts(g, []int32{a}, members, empty, store)
		if err != nil {
			t.Fatal(err)
		}
		if e.Epsilon != 0 || e.Covered != 0 || e.KMass != 0 || e.Nodes != 0 {
			t.Errorf("%s store: empty candidates must answer ε 0 with no search: %+v", name, e)
		}
		if e.Handdown == nil || e.Handdown.Len() != g.NumVertices() || !e.Handdown.IsEmpty() {
			t.Errorf("%s store: hand-down must be empty with capacity %d, got %v", name, g.NumVertices(), e.Handdown)
		}
		if got := store.Len(); got != before {
			t.Errorf("%s store: Len %d → %d", name, before, got)
		}
	}
}

// TestSampledEmptyCandidatesStaysEstimated: the empty-restriction
// short-circuit is Exact's alone. A set large enough to sample still
// draws its sample and reports an estimated ε̂ = 0 with its error bound.
func TestSampledEmptyCandidatesStaysEstimated(t *testing.T) {
	g := testGraph(t, 2)
	a := mostFrequentAttr(g)
	members := g.AttrMembers(a)
	sampled := NewSampled(qcParams(), quasiclique.Options{}, 0.2, 0.1, 3)
	if sigma := members.Count(); sigma <= SampleWorthFactor*sampled.m {
		t.Fatalf("fixture: support %d does not exceed %d×%d", sigma, SampleWorthFactor, sampled.m)
	}
	e, err := sampled.EstimateWithCerts(g, []int32{a}, members, bitset.New(g.NumVertices()), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Estimate{
		Handdown:        bitset.New(g.NumVertices()),
		Estimated:       true,
		SampledVertices: sampled.m,
		ErrBound:        sampled.eps,
	}
	if !reflect.DeepEqual(e, want) {
		t.Fatalf("got %+v, want %+v", e, want)
	}
}

// TestNames pins the estimator names used in reports and bench files.
func TestNames(t *testing.T) {
	qp := qcParams()
	if NewExact(qp, quasiclique.Options{}).Name() != "exact" {
		t.Error("exact name")
	}
	if NewSampled(qp, quasiclique.Options{}, 0, 0, 0).Name() != "sampled" {
		t.Error("sampled name")
	}
}

// TestDefaultsApplied: non-positive sampling parameters take the
// documented defaults.
func TestDefaultsApplied(t *testing.T) {
	s := NewSampled(qcParams(), quasiclique.Options{}, 0, 0, 0)
	if s.eps != DefaultSampleEps || s.delta != DefaultSampleDelta {
		t.Fatalf("defaults not applied: eps=%v delta=%v", s.eps, s.delta)
	}
	if s.m != SampleSize(DefaultSampleEps, DefaultSampleDelta) {
		t.Fatalf("sample size %d inconsistent with defaults", s.m)
	}
}

// mostFrequentAttr returns the attribute with the largest support.
func mostFrequentAttr(g *graph.Graph) int32 {
	best, bestSup := int32(0), -1
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		if s := g.AttrSupport(a); s > bestSup {
			best, bestSup = a, s
		}
	}
	return best
}
