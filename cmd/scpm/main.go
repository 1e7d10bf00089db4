// Command scpm mines structural correlation patterns from an attributed
// graph given as two text files (vertex attributes + edge list).
//
// Usage:
//
//	scpm -attrs graph.attrs -edges graph.edges \
//	     -sigma 100 -gamma 0.5 -minsize 5 -eps 0.1 -delta 1 -k 5
//
// The output lists the qualifying attribute sets (σ, ε, δ) and the
// top-k quasi-cliques each induces. With -rank the tool instead prints
// the paper-style top-N tables by σ, ε and δ. With -ndjson results are
// streamed incrementally as NDJSON events (one JSON object per line:
// set, pattern, progress, done) the moment the search finds them —
// point it at a pipe and watch patterns appear while mining is still
// running. -json and -csv export the full result for downstream
// analysis.
//
// With -eps-mode sampled the structural correlation ε is estimated by
// deterministic seeded vertex sampling (per-vertex quasi-clique
// membership queries with a Hoeffding-bounded sample size) instead of
// the full coverage search — a large speedup on big supports at a
// configurable accuracy (-sample-eps, -sample-delta, -seed). Estimated
// sets are annotated in every output format.
//
// The process honors SIGINT/SIGTERM: interrupting a long run stops the
// search in bounded time and reports the partial results mined so far
// (exit code 130). A run stopped by an exhausted -budget likewise
// reports its partial results, with exit code 3.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/cli"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scpm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		attrsPath = fs.String("attrs", "", "vertex attribute file (required)")
		edgesPath = fs.String("edges", "", "edge list file (required)")
		mining    = cli.MiningFlags(fs)
		allPats   = fs.Bool("all-patterns", false, "SCORP mode: report every maximal pattern (ignores -k)")
		order     = fs.String("order", "dfs", "quasi-clique search order: dfs or bfs")
		algo      = fs.String("algo", "scpm", "algorithm: scpm or naive")
		par       = fs.Int("parallel", runtime.NumCPU(), "worker goroutines")
		model     = fs.String("model", "analytical", "null model: analytical or sim:<r>:<seed>")
		rank      = fs.Int("rank", 0, "print top-N σ/ε/δ tables instead of the full output")
		ndjson    = fs.Bool("ndjson", false, "stream results incrementally as NDJSON events")
		jsonPath  = fs.String("json", "", "write the full result as JSON to this file")
		csvPrefix = fs.String("csv", "", "write <prefix>-sets.csv and <prefix>-patterns.csv")
		quiet     = fs.Bool("quiet", false, "suppress per-pattern output")
		metrics   = fs.String("metrics-addr", "", "serve /metrics and /debug/pprof from this address while mining (e.g. 127.0.0.1:9090)")
		showVer   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("scpm"))
		return 0
	}
	if *attrsPath == "" || *edgesPath == "" {
		fmt.Fprintln(stderr, "scpm: -attrs and -edges are required")
		fs.Usage()
		return 2
	}

	g, err := graph.ReadDatasetFiles(*attrsPath, *edgesPath)
	if err != nil {
		fmt.Fprintln(stderr, "scpm:", err)
		return 1
	}
	if !*ndjson {
		fmt.Fprintf(stdout, "loaded %d vertices, %d edges, %d attributes\n",
			g.NumVertices(), g.NumEdges(), g.NumAttributes())
	}

	opts, err := mining.Options()
	if err != nil {
		fmt.Fprintln(stderr, "scpm:", err)
		return 2
	}
	opts = append(opts, scpm.WithParallelism(*par))
	if *allPats {
		opts = append(opts, scpm.WithAllPatterns())
	}
	switch strings.ToLower(*order) {
	case "dfs":
		opts = append(opts, scpm.WithSearchOrder(scpm.DFS))
	case "bfs":
		opts = append(opts, scpm.WithSearchOrder(scpm.BFS))
	default:
		fmt.Fprintf(stderr, "scpm: unknown -order %q\n", *order)
		return 2
	}
	switch strings.ToLower(*algo) {
	case "scpm":
	case "naive":
		opts = append(opts, scpm.WithNaive())
	default:
		fmt.Fprintf(stderr, "scpm: unknown -algo %q\n", *algo)
		return 2
	}
	modelOpt, err := modelOption(g, *model, mining.Gamma, mining.MinSize)
	if err != nil {
		fmt.Fprintln(stderr, "scpm:", err)
		return 2
	}
	if modelOpt != nil {
		opts = append(opts, modelOpt)
	}

	miner, err := scpm.NewMiner(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "scpm:", err)
		return 2
	}

	// -metrics-addr side-serves /metrics + pprof for the run's lifetime:
	// the mining gauges advance with every progress snapshot, so a long
	// mine can be watched and CPU-profiled from outside.
	var mm *obs.MiningMetrics
	if *metrics != "" {
		reg := scpm.NewMetricsRegistry()
		mm = obs.NewMiningMetrics(reg)
		maddr, stopMetrics, err := obs.Start(*metrics, reg)
		if err != nil {
			fmt.Fprintln(stderr, "scpm:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stderr, "scpm: metrics on %s\n", maddr)
	}

	if *ndjson {
		// The batch-only output flags would be silently dead in
		// streaming mode; refuse the combination loudly instead of
		// letting a pipeline lose its artifacts.
		if *jsonPath != "" || *csvPrefix != "" || *rank > 0 {
			fmt.Fprintln(stderr, "scpm: -ndjson cannot be combined with -json, -csv or -rank")
			return 2
		}
		return streamNDJSON(ctx, miner, g, mm, stdout, stderr)
	}

	var sink scpm.Sink
	if mm != nil {
		mm.Active.Set(1)
		defer mm.Active.Set(0)
		sink = scpm.SinkFuncs{Progress: mm.ObserveProgress}
	}
	res, err := miner.MineWithProgress(ctx, g, sink)
	canceled := errors.Is(err, scpm.ErrCanceled)
	budgeted := errors.Is(err, scpm.ErrBudget)
	if err != nil && !canceled && !budgeted {
		fmt.Fprintln(stderr, "scpm:", err)
		return 1
	}
	if canceled || budgeted {
		fmt.Fprintf(stderr, "%v — reporting partial results\n", err)
	}

	if *rank > 0 {
		printRankings(stdout, res, *rank)
	} else {
		printFull(stdout, g, res, *quiet)
	}

	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(w io.Writer) error { return res.WriteJSON(w, g) }); err != nil {
			fmt.Fprintln(stderr, "scpm:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *csvPrefix != "" {
		setsPath := *csvPrefix + "-sets.csv"
		patsPath := *csvPrefix + "-patterns.csv"
		if err := writeFile(setsPath, res.WriteSetsCSV); err != nil {
			fmt.Fprintln(stderr, "scpm:", err)
			return 1
		}
		if err := writeFile(patsPath, func(w io.Writer) error { return res.WritePatternsCSV(w, g) }); err != nil {
			fmt.Fprintln(stderr, "scpm:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s and %s\n", setsPath, patsPath)
	}
	// 130 mirrors the shell convention for an interrupted process;
	// a deliberately bounded query hitting its -budget is a different
	// outcome and gets its own code.
	if canceled {
		return 130
	}
	if budgeted {
		return 3
	}
	return 0
}

// ndjsonEvent is one streamed output line. Type is "set", "pattern",
// "progress" or "done"; the other fields apply per type.
type ndjsonEvent struct {
	Type string `json:"type"`
	// ID is the stable identifier of the set or pattern (shared with
	// the JSON/CSV exports and server responses); Set joins a pattern
	// event to its set event.
	ID       string   `json:"id,omitempty"`
	Set      string   `json:"set,omitempty"`
	Attrs    []string `json:"attrs,omitempty"`
	Support  int      `json:"support,omitempty"`
	Epsilon  *float64 `json:"epsilon,omitempty"`
	Delta    string   `json:"delta,omitempty"` // core.FormatDelta: "inf" when εexp = 0
	Covered  *int     `json:"covered,omitempty"`
	Vertices []string `json:"vertices,omitempty"`
	Size     int      `json:"size,omitempty"`
	Gamma    *float64 `json:"gamma,omitempty"`
	// Estimated/EpsilonErr/Sampled annotate sets whose ε is a sampling
	// estimate (-eps-mode sampled); omitted for exact sets.
	Estimated  bool     `json:"estimated,omitempty"`
	EpsilonErr *float64 `json:"epsilon_err,omitempty"`
	Sampled    int      `json:"sampled,omitempty"`

	SetsEvaluated   int64   `json:"sets_evaluated,omitempty"`
	SetsEmitted     int64   `json:"sets_emitted,omitempty"`
	PatternsEmitted int64   `json:"patterns_emitted,omitempty"`
	SearchNodes     int64   `json:"search_nodes,omitempty"`
	SampledVertices int64   `json:"sampled_vertices,omitempty"`
	Seconds         float64 `json:"seconds,omitempty"`
	Canceled        bool    `json:"canceled,omitempty"`
	Budget          bool    `json:"budget,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// streamNDJSON mines g pushing one JSON line per event to stdout as the
// search proceeds.
func streamNDJSON(ctx context.Context, miner *scpm.Miner, g *scpm.Graph, mm *obs.MiningMetrics, stdout, stderr io.Writer) int {
	// A failed write (closed pipe, full disk) makes further mining
	// pointless: record the first encode error and cancel the search.
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	enc := json.NewEncoder(stdout)
	var encErr error
	emit := func(ev ndjsonEvent) {
		if encErr != nil {
			return
		}
		if err := enc.Encode(ev); err != nil {
			encErr = fmt.Errorf("writing output: %w", err)
			cancel(encErr)
		}
	}
	f := func(v float64) *float64 { return &v }
	n := func(v int) *int { return &v }
	// The terminal OnProgress fires before Stream returns (the Sink
	// contract), so lastStats holds the final counters for the done
	// event.
	var lastStats scpm.Stats
	if mm != nil {
		mm.Active.Set(1)
		defer mm.Active.Set(0)
	}
	err := miner.Stream(ctx, g, scpm.SinkFuncs{
		AttributeSet: func(s scpm.AttributeSet) {
			ev := ndjsonEvent{
				Type: "set", ID: s.ID(), Attrs: s.Names, Support: s.Support,
				Epsilon: f(s.Epsilon), Delta: core.FormatDelta(s.Delta), Covered: n(s.Covered),
			}
			if s.Estimated {
				ev.Estimated = true
				ev.EpsilonErr = f(s.EpsilonErr)
				ev.Sampled = s.SampledVertices
			}
			emit(ev)
		},
		Pattern: func(p scpm.Pattern) {
			emit(ndjsonEvent{
				Type: "pattern", ID: p.ID(), Set: p.SetID(),
				Attrs: p.Names, Vertices: p.VertexNames(g),
				Size: p.Size(), Gamma: f(p.Density()),
			})
		},
		Progress: func(st scpm.Stats) {
			lastStats = st
			mm.ObserveProgress(st)
			emit(ndjsonEvent{
				Type: "progress", SetsEvaluated: st.SetsEvaluated,
				SetsEmitted: st.SetsEmitted, PatternsEmitted: st.PatternsEmitted,
				SearchNodes: st.SearchNodes, SampledVertices: st.SampledVertices,
				Seconds: st.Duration.Seconds(),
			})
		},
	})
	if encErr != nil {
		fmt.Fprintln(stderr, "scpm:", encErr)
		return 1
	}
	done := ndjsonEvent{
		Type:          "done",
		SetsEvaluated: lastStats.SetsEvaluated,
		SetsEmitted:   lastStats.SetsEmitted, PatternsEmitted: lastStats.PatternsEmitted,
		SearchNodes: lastStats.SearchNodes, SampledVertices: lastStats.SampledVertices,
		Seconds: lastStats.Duration.Seconds(),
	}
	code := 0
	switch {
	case errors.Is(err, scpm.ErrCanceled):
		done.Canceled = true
		done.Error = err.Error()
		code = 130
	case errors.Is(err, scpm.ErrBudget):
		done.Budget = true
		done.Error = err.Error()
		code = 3
	case err != nil:
		fmt.Fprintln(stderr, "scpm:", err)
		return 1
	}
	emit(done)
	if encErr != nil {
		fmt.Fprintln(stderr, "scpm:", encErr)
		return 1
	}
	return code
}

func printRankings(w io.Writer, res *scpm.Result, n int) {
	for _, r := range []scpm.Ranking{scpm.BySupport, scpm.ByEpsilon, scpm.ByDelta} {
		fmt.Fprintf(w, "\ntop %d by %v\n", n, r)
		for _, s := range scpm.TopSets(res.Sets, r, n) {
			fmt.Fprintf(w, "  {%s} σ=%d ε=%.3f δ=%.4g\n",
				strings.Join(s.Names, " "), s.Support, s.Epsilon, s.Delta)
		}
	}
}

func printFull(w io.Writer, g *scpm.Graph, res *scpm.Result, quiet bool) {
	fmt.Fprintf(w, "\n%d attribute sets, %d patterns (%.2fs)\n",
		len(res.Sets), len(res.Patterns), res.Stats.Duration.Seconds())
	for _, s := range res.Sets {
		fmt.Fprintf(w, "{%s} σ=%d ε=%.3f δ=%.4g\n",
			strings.Join(s.Names, " "), s.Support, s.Epsilon, s.Delta)
		if quiet {
			continue
		}
		for _, pat := range res.PatternsOf(s.Attrs) {
			fmt.Fprintf(w, "  Q=%v size=%d γ=%.2f\n",
				pat.VertexNames(g), pat.Size(), pat.Density())
		}
	}
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modelOption resolves the -model flag into a Miner option (nil for the
// default analytical bound).
func modelOption(g *scpm.Graph, spec string, gamma float64, minSize int) (scpm.Option, error) {
	if spec == "" || spec == "analytical" {
		return nil, nil
	}
	var r int
	var seed int64
	if n, _ := fmt.Sscanf(spec, "sim:%d:%d", &r, &seed); n == 2 {
		p := scpm.Params{Gamma: gamma, MinSize: minSize}
		return scpm.WithNullModel(scpm.NewSimulationModel(g, p, r, seed)), nil
	}
	return nil, fmt.Errorf("unknown -model %q (want analytical or sim:<r>:<seed>)", spec)
}
