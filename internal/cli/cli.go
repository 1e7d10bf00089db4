// Package cli holds what the scpm commands share at the command-line
// edge. A structural correlation pattern is only defined once its
// thresholds are fixed — σmin, γmin, min_size, εmin, δmin, k and the ε
// estimator (paper §3, §6) — so scpm, scpm-serve and scpm-gateway -plan
// register those flags from the one definition here: the same
// arguments give every command the same parameters, and a manifest
// sealed by the planner boots the replicas that parse them. The package
// also resolves the -attrs/-edges/-example dataset selection.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"strings"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/graph"
)

// Mining holds the values of the shared mining flags once the flag set
// is parsed.
type Mining struct {
	SigmaMin, MinSize, K, MinAttrs, MaxAttrs int
	Gamma, EpsMin, DeltaMin                  float64
	Budget                                   int64
	EpsMode                                  string
	SampleEps, SampleDelta                   float64
	Seed                                     int64
}

// MiningFlags registers the shared mining flags on fs and returns the
// Mining their values land in.
func MiningFlags(fs *flag.FlagSet) *Mining {
	m := new(Mining)
	fs.IntVar(&m.SigmaMin, "sigma", 100, "minimum support σmin")
	fs.Float64Var(&m.Gamma, "gamma", 0.5, "quasi-clique density γmin (0,1]")
	fs.IntVar(&m.MinSize, "minsize", 5, "minimum quasi-clique size")
	fs.Float64Var(&m.EpsMin, "eps", 0, "minimum structural correlation εmin")
	fs.Float64Var(&m.DeltaMin, "delta", 0, "minimum normalized structural correlation δmin")
	fs.IntVar(&m.K, "k", 5, "top-k patterns per attribute set (0 = sets only)")
	fs.IntVar(&m.MinAttrs, "minattrs", 1, "report only sets with ≥ this many attributes")
	fs.IntVar(&m.MaxAttrs, "maxattrs", 0, "bound attribute-set size (0 = unbounded)")
	fs.Int64Var(&m.Budget, "budget", 0, "search-node budget per quasi-clique search (0 = unbounded)")
	fs.StringVar(&m.EpsMode, "eps-mode", "exact", "ε computation: exact or sampled (Hoeffding-bounded vertex sampling)")
	fs.Float64Var(&m.SampleEps, "sample-eps", 0, "sampled mode: ε̂ half-width bound (0 = default 0.1)")
	fs.Float64Var(&m.SampleDelta, "sample-delta", 0, "sampled mode: per-set failure probability (0 = default 0.05)")
	fs.Int64Var(&m.Seed, "seed", 0, "sampled mode: sampling seed (same seed ⇒ same ε̂)")
	return m
}

// Options turns the parsed flags into miner options. An -eps-mode other
// than exact or sampled is an error.
func (m *Mining) Options() ([]scpm.Option, error) {
	opts := []scpm.Option{
		scpm.WithSigmaMin(m.SigmaMin),
		scpm.WithGamma(m.Gamma),
		scpm.WithMinSize(m.MinSize),
		scpm.WithEpsMin(m.EpsMin),
		scpm.WithDeltaMin(m.DeltaMin),
		scpm.WithTopK(m.K),
		scpm.WithMinAttrs(m.MinAttrs),
		scpm.WithMaxAttrs(m.MaxAttrs),
		scpm.WithSearchBudget(m.Budget),
	}
	switch strings.ToLower(m.EpsMode) {
	case "exact":
	case "sampled":
		opts = append(opts, scpm.WithEpsilonSampling(m.SampleEps, m.SampleDelta), scpm.WithSeed(m.Seed))
	default:
		return nil, fmt.Errorf("unknown -eps-mode %q (want exact or sampled)", m.EpsMode)
	}
	return opts, nil
}

// ErrNoDataset is LoadGraph's error when neither the two dataset files
// nor an example is given.
var ErrNoDataset = errors.New("-attrs and -edges are required (or use -example paper)")

// LoadGraph resolves the dataset selection: two files, or a built-in
// example ("paper", the worked example of the paper's Figure 1).
func LoadGraph(attrsPath, edgesPath, example string) (*scpm.Graph, error) {
	switch {
	case example != "" && (attrsPath != "" || edgesPath != ""):
		return nil, errors.New("-example cannot be combined with -attrs/-edges")
	case example == "paper":
		return scpm.PaperExample(), nil
	case example != "":
		return nil, fmt.Errorf("unknown -example %q (want paper)", example)
	case attrsPath == "" || edgesPath == "":
		return nil, ErrNoDataset
	}
	return graph.ReadDatasetFiles(attrsPath, edgesPath)
}
