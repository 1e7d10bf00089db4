package scpm_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	scpm "github.com/scpm/scpm"
)

// paperMiner builds a Miner with the worked-example parameters of
// Figure 1 / Table 1.
func paperMiner(t *testing.T, extra ...scpm.Option) *scpm.Miner {
	t.Helper()
	opts := append([]scpm.Option{
		scpm.WithSigmaMin(3),
		scpm.WithGamma(0.6),
		scpm.WithMinSize(4),
		scpm.WithEpsMin(0.5),
		scpm.WithTopK(10),
	}, extra...)
	m, err := scpm.NewMiner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// generated returns a small deterministic synthetic graph plus a Miner
// tuned for it.
func generated(t *testing.T, extra ...scpm.Option) (*scpm.Graph, *scpm.Miner) {
	t.Helper()
	g, _, err := scpm.Generate(scpm.GeneratorConfig{
		Name:             "stream-test",
		Seed:             99,
		NumVertices:      600,
		AvgDegree:        4,
		DegreeExponent:   2.3,
		VocabSize:        120,
		AttrsPerVertex:   5,
		ZipfS:            0.6,
		NumCommunities:   18,
		CommunitySizeMin: 5,
		CommunitySizeMax: 10,
		IntraProb:        0.8,
		TopicAttrs:       2,
		NumAreas:         6,
		TopicAdoption:    0.85,
		TopicNoise:       1,
		SparseFrac:       0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]scpm.Option{
		scpm.WithSigmaMin(5),
		scpm.WithGamma(0.5),
		scpm.WithMinSize(4),
		scpm.WithTopK(2),
		scpm.WithMaxAttrs(2),
	}, extra...)
	m, err := scpm.NewMiner(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func setKeys(sets []scpm.AttributeSet) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = fmt.Sprintf("%s|σ=%d|ε=%.6f|δ=%.6g|cov=%d",
			s.Key(), s.Support, s.Epsilon, s.Delta, s.Covered)
	}
	sort.Strings(out)
	return out
}

func patternKeys(pats []scpm.Pattern) []string {
	out := make([]string, len(pats))
	for i, p := range pats {
		out[i] = fmt.Sprintf("%s|%v|deg=%d|e=%d", strings.Join(p.Names, ","), p.Vertices, p.MinDeg, p.Edges)
	}
	sort.Strings(out)
	return out
}

func equalStrings(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]:\ngot:  %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

// collectSink records every event it receives in arrival order.
type collectSink struct {
	sets     []scpm.AttributeSet
	patterns []scpm.Pattern
	progress []scpm.Stats
}

func (c *collectSink) OnAttributeSet(s scpm.AttributeSet) { c.sets = append(c.sets, s) }
func (c *collectSink) OnPattern(p scpm.Pattern)           { c.patterns = append(c.patterns, p) }
func (c *collectSink) OnProgress(st scpm.Stats)           { c.progress = append(c.progress, st) }

// TestStreamMatchesBatch is the core API-parity check: all three
// consumption modes must produce identical attribute sets and patterns
// on the paper's worked example and on a generated graph.
func TestStreamMatchesBatch(t *testing.T) {
	ctx := context.Background()
	type scenario struct {
		name  string
		graph *scpm.Graph
		miner *scpm.Miner
	}
	genGraph, genMiner := generated(t)
	scenarios := []scenario{
		{"paper", scpm.PaperExample(), paperMiner(t)},
		{"generated", genGraph, genMiner},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			batch, err := sc.miner.Mine(ctx, sc.graph)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Sets) == 0 {
				t.Fatal("scenario mined nothing; thresholds too strict for a meaningful test")
			}

			var sink collectSink
			if err := sc.miner.Stream(ctx, sc.graph, &sink); err != nil {
				t.Fatal(err)
			}
			equalStrings(t, "stream sets", setKeys(sink.sets), setKeys(batch.Sets))
			equalStrings(t, "stream patterns", patternKeys(sink.patterns), patternKeys(batch.Patterns))

			var iterated []scpm.AttributeSet
			for s, err := range sc.miner.Sets(ctx, sc.graph) {
				if err != nil {
					t.Fatal(err)
				}
				iterated = append(iterated, s)
			}
			equalStrings(t, "iterator sets", setKeys(iterated), setKeys(batch.Sets))
		})
	}
}

// TestParallelMatchesSequential pins down that worker parallelism only
// changes scheduling, never output.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	g, seq := generated(t)
	_, par := generated(t, scpm.WithParallelism(4))
	want, err := seq.Mine(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Mine(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	equalStrings(t, "parallel sets", setKeys(got.Sets), setKeys(want.Sets))
	equalStrings(t, "parallel patterns", patternKeys(got.Patterns), patternKeys(want.Patterns))

	var sink collectSink
	if err := par.Stream(ctx, g, &sink); err != nil {
		t.Fatal(err)
	}
	equalStrings(t, "parallel stream sets", setKeys(sink.sets), setKeys(want.Sets))
}

// orderSink asserts the canonical event order: every OnPattern belongs
// to the most recent OnAttributeSet.
type orderSink struct {
	t       *testing.T
	current []string
	bursts  int
}

func (o *orderSink) OnAttributeSet(s scpm.AttributeSet) {
	o.current = s.Names
	o.bursts++
}

func (o *orderSink) OnPattern(p scpm.Pattern) {
	if o.current == nil {
		o.t.Error("OnPattern before any OnAttributeSet")
		return
	}
	if strings.Join(p.Names, ",") != strings.Join(o.current, ",") {
		o.t.Errorf("pattern for %v arrived during burst of %v", p.Names, o.current)
	}
}

func (o *orderSink) OnProgress(scpm.Stats) {}

// TestStreamEventOrder verifies the per-set burst contract and that
// progress events fire.
func TestStreamEventOrder(t *testing.T) {
	g := scpm.PaperExample()
	m := paperMiner(t, scpm.WithProgressEvery(1))
	sink := &orderSink{t: t}
	var progress int
	wrapped := scpm.SinkFuncs{
		AttributeSet: sink.OnAttributeSet,
		Pattern:      sink.OnPattern,
		Progress:     func(scpm.Stats) { progress++ },
	}
	if err := m.Stream(context.Background(), g, wrapped); err != nil {
		t.Fatal(err)
	}
	if sink.bursts != 3 {
		t.Fatalf("expected 3 attribute-set bursts, got %d", sink.bursts)
	}
	if progress < 2 {
		t.Fatalf("expected periodic progress events, got %d", progress)
	}
}

// cancelingSink cancels the run's context once it has received a fixed
// number of attribute sets — a deterministic way to interrupt mining
// mid-search. (A run consults its null model once per distinct support,
// too few times to count on.)
type cancelingSink struct {
	cancel context.CancelCauseFunc
	left   int
}

func (c *cancelingSink) OnAttributeSet(scpm.AttributeSet) {
	c.left--
	if c.left == 0 {
		c.cancel(errTestCause)
	}
}

func (c *cancelingSink) OnPattern(scpm.Pattern) {}

func (c *cancelingSink) OnProgress(scpm.Stats) {}

var errTestCause = errors.New("test cause: enough mining")

// TestCancelMidMine cancels a context mid-run on a generated graph and
// checks for ErrCanceled, the wrapped cause, and a well-formed partial
// result that is a subset of the full output.
func TestCancelMidMine(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	g, plain := generated(t)
	full, err := plain.Mine(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Sets) < 4 {
		t.Fatalf("need a graph with several qualifying sets, got %d", len(full.Sets))
	}

	sink := &cancelingSink{cancel: cancel, left: len(full.Sets)/2 + 1}

	start := time.Now()
	res, err := plain.MineWithProgress(ctx, g, sink)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v, not bounded", elapsed)
	}
	if !errors.Is(err, scpm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !scpm.IsCanceled(err) {
		t.Fatal("IsCanceled must agree with errors.Is")
	}
	if !errors.Is(err, errTestCause) {
		t.Fatalf("err = %v, should wrap context.Cause", err)
	}
	if res == nil {
		t.Fatal("canceled Mine must still return the partial result")
	}
	if len(res.Sets) >= len(full.Sets) {
		t.Fatalf("expected a strict partial result, got %d of %d sets", len(res.Sets), len(full.Sets))
	}
	// Every partial set must appear in the full result with identical
	// metrics: partial means truncated, never wrong.
	fullKeys := make(map[string]bool)
	for _, k := range setKeys(full.Sets) {
		fullKeys[k] = true
	}
	for _, k := range setKeys(res.Sets) {
		if !fullKeys[k] {
			t.Fatalf("partial result contains set absent from full output: %s", k)
		}
	}
	if res.Stats.Duration <= 0 {
		t.Fatal("partial result must carry run stats")
	}
}

// TestCancelBeforeMine: an already-done context yields ErrCanceled
// immediately with an empty but well-formed result.
func TestCancelBeforeMine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := paperMiner(t)
	res, err := m.Mine(ctx, scpm.PaperExample())
	if !errors.Is(err, scpm.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if res == nil || len(res.Sets) != 0 {
		t.Fatalf("want empty well-formed result, got %+v", res)
	}
}

// TestCancelNaive: the naive baseline observes cancellation too.
func TestCancelNaive(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := paperMiner(t, scpm.WithNaive())
	res, err := m.Mine(ctx, scpm.PaperExample())
	if !errors.Is(err, scpm.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled naive mine must return a partial result")
	}
}

// TestSearchBudget: an exhausted node budget surfaces ErrBudget with
// the partial result.
func TestSearchBudget(t *testing.T) {
	g, _ := generated(t)
	m, err := scpm.NewMiner(
		scpm.WithSigmaMin(5), scpm.WithGamma(0.5), scpm.WithMinSize(4),
		scpm.WithSearchBudget(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine(context.Background(), g)
	if !errors.Is(err, scpm.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if res == nil {
		t.Fatal("budget-stopped mine must return a partial result")
	}
}

// TestSetsEarlyBreak: breaking out of the iterator cancels the search
// cleanly instead of leaking the mining goroutine.
func TestSetsEarlyBreak(t *testing.T) {
	g, m := generated(t)
	var got int
	for _, err := range m.Sets(context.Background(), g) {
		if err != nil {
			t.Fatal(err)
		}
		got++
		if got == 1 {
			break
		}
	}
	if got != 1 {
		t.Fatalf("yielded %d sets after break", got)
	}
}

// TestSetsSurfacesError: a canceled context reaches the consumer as the
// iterator's final error pair.
func TestSetsSurfacesError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := paperMiner(t)
	var sawErr error
	for _, err := range m.Sets(ctx, scpm.PaperExample()) {
		if err != nil {
			sawErr = err
		}
	}
	if !errors.Is(sawErr, scpm.ErrCanceled) {
		t.Fatalf("iterator error = %v, want ErrCanceled", sawErr)
	}
}

// TestNewMinerValidates: invalid configurations are rejected at
// construction, not mid-run.
func TestNewMinerValidates(t *testing.T) {
	cases := [][]scpm.Option{
		{scpm.WithGamma(7)},
		{scpm.WithGamma(0)},
		{scpm.WithSigmaMin(0)},
		{scpm.WithMinSize(1)},
		{scpm.WithEpsMin(1.5)},
		{scpm.WithTopK(-1)},
	}
	for i, opts := range cases {
		if _, err := scpm.NewMiner(opts...); err == nil {
			t.Errorf("case %d: NewMiner accepted invalid options", i)
		}
	}
}

// TestQuasiCliqueHelpersValidate: the structural helpers reject invalid
// parameters up front instead of failing deep in the search.
func TestQuasiCliqueHelpersValidate(t *testing.T) {
	g := scpm.PaperExample()
	if _, err := scpm.FindQuasiCliques(g, 0, 4); err == nil {
		t.Error("FindQuasiCliques accepted gamma=0")
	}
	if _, err := scpm.FindQuasiCliques(g, 1.5, 4); err == nil {
		t.Error("FindQuasiCliques accepted gamma=1.5")
	}
	if _, err := scpm.TopQuasiCliques(g, 0.6, 1, 3); err == nil {
		t.Error("TopQuasiCliques accepted minSize=1")
	}
	qcs, err := scpm.FindQuasiCliques(g, 0.6, 4)
	if err != nil || len(qcs) == 0 {
		t.Fatalf("valid enumeration failed: %v (%d results)", err, len(qcs))
	}
}

// TestWithParamsMatchesOptions: seeding a Miner from a whole parameter
// block (the migration path of the removed package-level Mine shim)
// produces the same output as the equivalent functional options.
func TestWithParamsMatchesOptions(t *testing.T) {
	g := scpm.PaperExample()
	p := scpm.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10}
	fromParams, err := scpm.NewMiner(scpm.WithParams(p))
	if err != nil {
		t.Fatal(err)
	}
	old, err := fromParams.Mine(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := paperMiner(t).Mine(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	equalStrings(t, "params sets", setKeys(old.Sets), setKeys(res.Sets))
	equalStrings(t, "params patterns", patternKeys(old.Patterns), patternKeys(res.Patterns))
}

// TestRemineThroughFacade: the live-update flow end to end on the
// public API — mine with WithLiveUpdates, apply a delta, Remine, and
// match a from-scratch mine of the updated graph.
func TestRemineThroughFacade(t *testing.T) {
	ctx := context.Background()
	g := scpm.PaperExample()
	m := paperMiner(t, scpm.WithLiveUpdates())
	old, err := m.Mine(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if !old.HasLattice() {
		t.Fatal("WithLiveUpdates run did not record a lattice")
	}

	d := g.NewDelta()
	if err := d.AddVertex("12", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdge("12", "1"); err != nil {
		t.Fatal(err)
	}
	ng, cs, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if ng.Version() != 2 || cs.ToVersion != 2 {
		t.Fatalf("versions after apply: graph %d, changes →%d", ng.Version(), cs.ToVersion)
	}

	scratch, err := m.Mine(ctx, ng)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := m.Remine(ctx, ng, old, cs)
	if err != nil {
		t.Fatal(err)
	}
	equalStrings(t, "remine sets", setKeys(inc.Sets), setKeys(scratch.Sets))
	equalStrings(t, "remine patterns", patternKeys(inc.Patterns), patternKeys(scratch.Patterns))
	if inc.Stats.ReusedSets == 0 {
		t.Fatalf("facade remine reused nothing: %+v", inc.Stats)
	}
}
