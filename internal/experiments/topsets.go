package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/scpm/scpm/internal/core"
)

// TopSetsResult is experiments E2–E4 (Tables 2–4): the top attribute
// sets of a dataset ranked by support, structural correlation and
// normalized structural correlation. The paper's headline qualitative
// findings, checked by the tests:
//
//   - top-σ sets (generic head terms) have low ε and low δ;
//   - top-ε sets are topical, with far smaller σ;
//   - top-δ re-ranks again: high ε alone does not imply high δ.
type TopSetsResult struct {
	Dataset   string
	TopN      int
	TopSigma  []core.AttributeSet
	TopEps    []core.AttributeSet
	TopDelta  []core.AttributeSet
	Sets      int
	Stats     core.Stats
	LargestQC *core.Pattern
}

// TopSets runs E2/E3/E4 on the given dataset: a full SCPM pass with
// εmin = δmin = 0 (so every frequent set is scored), then three top-N
// rankings.
func TopSets(ctx context.Context, d *Dataset, topN int) (*TopSetsResult, error) {
	p := d.Params()
	p.EpsMin = 0
	p.DeltaMin = 0
	p.K = 1 // only the largest pattern per set is needed here
	p.MaxAttrs = 3
	res, err := core.Mine(ctx, d.Graph, p, nil)
	if err != nil {
		return nil, err
	}
	out := &TopSetsResult{
		Dataset:  d.Name,
		TopN:     topN,
		TopSigma: core.TopSets(res.Sets, core.BySupport, topN),
		TopEps:   core.TopSets(res.Sets, core.ByEpsilon, topN),
		TopDelta: core.TopSets(res.Sets, core.ByDelta, topN),
		Sets:     len(res.Sets),
		Stats:    res.Stats,
	}
	for i := range res.Patterns {
		if out.LargestQC == nil || res.Patterns[i].Size() > out.LargestQC.Size() {
			out.LargestQC = &res.Patterns[i]
		}
	}
	return out, nil
}

// Format renders the three ranking blocks like Tables 2–4.
func (r *TopSetsResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — top-%d attribute sets (%d sets scored)\n", r.Dataset, r.TopN, r.Sets)
	blocks := []struct {
		title string
		sets  []core.AttributeSet
	}{
		{"top σ (support)", r.TopSigma},
		{"top ε (structural correlation)", r.TopEps},
		{"top δlb (normalized structural correlation)", r.TopDelta},
	}
	for _, b := range blocks {
		fmt.Fprintf(&sb, "\n%s\n", b.title)
		fmt.Fprintf(&sb, "%-38s %8s %8s %12s\n", "S", "σ", "ε", "δlb")
		for _, s := range b.sets {
			fmt.Fprintf(&sb, "%-38s %8d %8.3f %12.4g\n",
				strings.Join(s.Names, " "), s.Support, s.Epsilon, s.Delta)
		}
	}
	if r.LargestQC != nil {
		fmt.Fprintf(&sb, "\nlargest pattern: {%s}, %d vertices, γ=%.2f\n",
			strings.Join(r.LargestQC.Names, ","), r.LargestQC.Size(), r.LargestQC.Density())
	}
	fmt.Fprintf(&sb, "mining time: %v (sets evaluated: %d)\n", r.Stats.Duration, r.Stats.SetsEvaluated)
	return sb.String()
}
