package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/core"
)

// testScale keeps the experiment tests fast; the full-scale runs live in
// bench_test.go and cmd/scpm-bench.
const testScale = 0.25

func load(t *testing.T, name string) *Dataset {
	t.Helper()
	d, err := Load(name, testScale)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadUnknownDataset(t *testing.T) {
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLoadCaches(t *testing.T) {
	d1 := load(t, "smalldblp")
	d2 := load(t, "smalldblp")
	if d1 != d2 {
		t.Fatal("cache miss for identical load")
	}
	if d1.Summary() == "" {
		t.Fatal("empty summary")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	r, err := Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Match {
		t.Fatalf("Table 1 mismatch:\n%s", r.Format())
	}
	out := r.Format()
	if !strings.Contains(out, "matches Table 1") {
		t.Fatalf("format verdict missing:\n%s", out)
	}
}

// meanOf averages one metric over a ranking block.
func meanOf(sets []core.AttributeSet, metric func(core.AttributeSet) float64) float64 {
	if len(sets) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range sets {
		s += metric(x)
	}
	return s / float64(len(sets))
}

// TestTopSetsQualitativeShape verifies the paper's headline claims on
// each dataset: top-σ sets have much lower ε than top-ε sets, and the
// δ ranking differs from the σ ranking.
func TestTopSetsQualitativeShape(t *testing.T) {
	for _, name := range []string{"dblp", "lastfm", "citeseer"} {
		t.Run(name, func(t *testing.T) {
			d := load(t, name)
			r, err := TopSets(context.Background(), d, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.TopSigma) == 0 || len(r.TopEps) == 0 || len(r.TopDelta) == 0 {
				t.Fatalf("empty rankings: %+v", r)
			}
			// σ ranking is descending in σ, ε in ε, δ in δ
			for i := 1; i < len(r.TopSigma); i++ {
				if r.TopSigma[i].Support > r.TopSigma[i-1].Support {
					t.Fatal("σ ranking not sorted")
				}
			}
			for i := 1; i < len(r.TopEps); i++ {
				if r.TopEps[i].Epsilon > r.TopEps[i-1].Epsilon {
					t.Fatal("ε ranking not sorted")
				}
			}
			// top-ε sets must dominate top-σ sets on ε (the paper's
			// "high support sets do not present high structural
			// correlation")
			eps := func(s core.AttributeSet) float64 { return s.Epsilon }
			sigma := func(s core.AttributeSet) float64 { return float64(s.Support) }
			if meanOf(r.TopEps, eps) <= meanOf(r.TopSigma, eps) {
				t.Fatalf("ε shape violated: top-ε mean %v vs top-σ mean %v",
					meanOf(r.TopEps, eps), meanOf(r.TopSigma, eps))
			}
			// top-σ sets must dominate top-ε sets on support
			if meanOf(r.TopSigma, sigma) <= meanOf(r.TopEps, sigma) {
				t.Fatalf("σ shape violated")
			}
			if r.Format() == "" {
				t.Fatal("empty format")
			}
		})
	}
}

func TestExpectedCurveShape(t *testing.T) {
	d := load(t, "dblp")
	sigmas := DefaultSigmas(d.Graph.NumVertices(), 0.10, 5)
	r, err := ExpectedCurve(d, sigmas, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if !r.BoundHolds {
		t.Fatalf("max-εexp fell below sim-εexp:\n%s", r.Format())
	}
	if !r.BothGrow {
		t.Fatalf("curves not growing:\n%s", r.Format())
	}
	for _, p := range r.Points {
		if p.MaxExp < 0 || p.MaxExp > 1 || p.SimMean < 0 || p.SimMean > 1 {
			t.Fatalf("out of range point %+v", p)
		}
	}
}

func TestDefaultSigmas(t *testing.T) {
	s := DefaultSigmas(1000, 0.1, 4)
	want := []int{25, 50, 75, 100}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sigmas = %v", s)
		}
	}
	if got := DefaultSigmas(10, 0.1, 1); len(got) != 2 {
		t.Fatalf("min points: %v", got)
	}
}

func TestPerfPanel(t *testing.T) {
	d := load(t, "smalldblp")
	r, err := Perf(context.Background(), d, "gamma", []float64{0.6, 0.8}, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.DFS <= 0 || p.BFS <= 0 || p.Naive <= 0 {
			t.Fatalf("non-positive timing: %+v", p)
		}
	}
	if !strings.Contains(r.Format(), "runtime vs gamma") {
		t.Fatal("format broken")
	}
}

func TestPerfSkipsNaive(t *testing.T) {
	d := load(t, "smalldblp")
	r, err := Perf(context.Background(), d, "k", []float64{2}, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Points[0].Naive != 0 || !r.SkippedNaive {
		t.Fatal("naive should be skipped")
	}
	if !strings.Contains(r.Format(), "-") {
		t.Fatal("format should mark skipped naive")
	}
}

func TestPerfUnknownParameter(t *testing.T) {
	d := load(t, "smalldblp")
	if _, err := Perf(context.Background(), d, "bogus", []float64{1}, false, 1); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestDefaultSweepsCoverPanels(t *testing.T) {
	d := load(t, "smalldblp")
	sweeps := DefaultPerfSweeps(d)
	for _, panel := range PerfPanels {
		if len(sweeps[panel]) == 0 {
			t.Fatalf("no sweep for %s", panel)
		}
	}
	ssweeps := DefaultSensitivitySweeps(d)
	for _, panel := range SensitivityPanels {
		if len(ssweeps[panel]) == 0 {
			t.Fatalf("no sensitivity sweep for %s", panel)
		}
	}
}

// TestSensitivityShape verifies §4.3: restrictive quasi-clique
// parameters reduce average ε, and higher σmin increases average ε.
func TestSensitivityShape(t *testing.T) {
	d := load(t, "smalldblp")
	r, err := Sensitivity(context.Background(), d, "gamma", []float64{0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 2 {
		t.Fatal("points")
	}
	if r.Points[1].GlobalEps > r.Points[0].GlobalEps {
		t.Fatalf("ε should not grow with γmin: %+v", r.Points)
	}
	if r.Points[0].TopEps < r.Points[0].GlobalEps {
		t.Fatalf("top-10%% ε below global ε: %+v", r.Points[0])
	}
	base := d.Params()
	r2, err := Sensitivity(context.Background(), d, "sigma_min",
		[]float64{float64(base.SigmaMin), float64(base.SigmaMin * 3)})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Points[1].GlobalEps < r2.Points[0].GlobalEps {
		t.Fatalf("ε should grow with σmin: %+v", r2.Points)
	}
	if r2.Points[1].Sets >= r2.Points[0].Sets {
		t.Fatalf("higher σmin should yield fewer sets")
	}
	if !strings.Contains(r.Format(), "sensitivity") {
		t.Fatal("format")
	}
}

func TestAvgAndTopFiltersInf(t *testing.T) {
	var sets []core.AttributeSet
	for _, d := range []float64{1, 2, math.Inf(1), 3} {
		sets = append(sets, core.AttributeSet{Delta: d})
	}
	global, top := avgAndTop(sets, func(s core.AttributeSet) float64 { return s.Delta })
	if global != 2 {
		t.Fatalf("global = %v, want 2 (Inf excluded)", global)
	}
	if top != 3 {
		t.Fatalf("top = %v, want 3", top)
	}
	if g, tp := avgAndTop(nil, func(s core.AttributeSet) float64 { return s.Delta }); g != 0 || tp != 0 {
		t.Fatal("empty input should give zeros")
	}
}

func TestAblationRuns(t *testing.T) {
	d := load(t, "smalldblp")
	r, err := Ablation(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(ablationVariants) {
		t.Fatalf("points = %d", len(r.Points))
	}
	emitted := r.Points[0].SetsEmitted
	for _, p := range r.Points {
		if p.SetsEmitted != emitted {
			t.Fatalf("variant %s changed output: %d vs %d", p.Variant, p.SetsEmitted, emitted)
		}
		if p.Duration <= 0 {
			t.Fatalf("variant %s has no duration", p.Variant)
		}
	}
	// disabling set pruning must evaluate at least as many sets
	var full, noset int64
	for _, p := range r.Points {
		switch p.Variant {
		case "scpm-dfs (full)":
			full = p.SetsEvaluated
		case "no set pruning (Thms 4-5)":
			noset = p.SetsEvaluated
		}
	}
	if noset < full {
		t.Fatalf("set pruning increased evaluations: %d < %d", noset, full)
	}
	if !strings.Contains(r.Format(), "ablation") {
		t.Fatal("format")
	}
}

// TestApproxStudy runs the exact-vs-sampled study on the dense dataset
// with one loose configuration and checks its accounting invariants.
func TestApproxStudy(t *testing.T) {
	d := load(t, "dense")
	r, err := Approx(context.Background(), d, [][2]float64{{0.25, 0.1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1 {
		t.Fatalf("got %d points", len(r.Points))
	}
	p := r.Points[0]
	if p.SampleSize != 24 { // ⌈ln(20)/0.125⌉
		t.Errorf("sample size = %d", p.SampleSize)
	}
	if p.Compared == 0 || p.Estimated == 0 {
		t.Fatalf("study compared nothing: %+v", p)
	}
	if p.Estimated > p.Compared || p.WithinBound > p.Estimated {
		t.Fatalf("inconsistent counts: %+v", p)
	}
	if p.SampledVertices != int64(p.Estimated*p.SampleSize) {
		t.Errorf("sampled vertices %d, want %d", p.SampledVertices, p.Estimated*p.SampleSize)
	}
	if p.MaxAbsErr < p.MeanAbsErr {
		t.Errorf("max err %v below mean %v", p.MaxAbsErr, p.MeanAbsErr)
	}
	if p.Exact <= 0 || p.Sampled <= 0 || p.Speedup() <= 0 {
		t.Errorf("missing timings: %+v", p)
	}
	if !strings.Contains(r.Format(), "speedup") {
		t.Error("format output missing header")
	}
}
