// Command scpm-bench regenerates the paper's tables and figures on the
// synthetic stand-in datasets (see DESIGN.md §4 for the experiment
// index).
//
// Usage:
//
//	scpm-bench -exp all            # every experiment (E1..E10)
//	scpm-bench -exp table2         # one experiment
//	scpm-bench -exp fig8 -repeats 5
//	scpm-bench -exp bench -out .   # machine-readable BENCH_<dataset>.json baselines
//
// Experiments: table1, table2 (DBLP), table3 (LastFm), table4
// (CiteSeer), fig4, fig7, fig9 (expected ε curves), fig8 (performance),
// fig10 (sensitivity), ablation.
//
// Four more experiment ids are not part of "all" (which stays
// stdout-only):
//
//   - "approx" compares exact and sampled ε estimation on one dataset
//     (-approx-dataset): per-set |ε̂−ε| accuracy against the Hoeffding
//     bound and the wall-clock speedup, per sampling configuration;
//   - "shard" measures the sharded deployment: mining each dataset
//     (-shard-datasets) as 1, 2 and 4 lattice partitions in parallel
//     (merge verified against the single-process result), into
//     BENCH_shard.json;
//   - "boot" measures the v3 snapshot cold-boot path: each dataset
//     (-boot-datasets) is mined, written as a v3 snapshot and booted
//     twice through the one snapshot.Open path — a full boot (every
//     section checksum and the set order verified, row tables and id
//     maps built) versus the lazy default boot (best of -repeats,
//     loaded contents cross-checked) — recording wall, heap and
//     resident bytes per boot into BENCH_boot.json;
//   - "bench" mines the synthetic datasets (-bench-datasets, by
//     default the two that CI gates) at several scales — once per
//     ε-estimator mode (exact and sampled) — and writes one
//     BENCH_<dataset>.json per dataset with wall time, search nodes,
//     sampled-vertex counts, result counts and allocation figures, so
//     every future change has a comparable baseline (see
//     docs/ARCHITECTURE.md and the README's Benchmarks section).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/experiments"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(runMain(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scpm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment id (table1..table4, fig4, fig7, fig8, fig9, fig10, ablation, approx, bench, shard, boot, all)")
		scale   = fs.Float64("scale", 1.0, "dataset scale factor")
		repeats = fs.Int("repeats", 3, "timing repetitions for fig8 (best-of)")
		samples = fs.Int("samples", 100, "simulation samples per support value for fig4/7/9")
		naive   = fs.Bool("naive", true, "include the naive baseline in fig8")
		topN    = fs.Int("top", 10, "rows per ranking block in table2-4")

		benchOut      = fs.String("out", ".", "directory for the BENCH_<dataset>.json files written by -exp bench")
		benchScales   = fs.String("bench-scales", "0.1,0.2,0.4", "comma-separated dataset scales for -exp bench")
		benchDatasets = fs.String("bench-datasets", "dblp,dense", "comma-separated datasets for -exp bench")
		benchParallel = fs.Int("parallel", 1, "mining worker goroutines for -exp bench (recorded in the JSON; result and search-node columns are identical for every value)")

		approxDataset = fs.String("approx-dataset", "dense", "dataset for -exp approx (exact vs sampled ε)")

		shardDatasets = fs.String("shard-datasets", "dblp,dense", "comma-separated datasets for -exp shard")
		shardScale    = fs.Float64("shard-scale", 0.2, "dataset scale for -exp shard")

		bootDatasets = fs.String("boot-datasets", "dblp,dense", "comma-separated datasets for -exp boot")
		bootScale    = fs.Float64("boot-scale", 0.2, "dataset scale for -exp boot")

		metrics = fs.String("metrics-addr", "", "serve /metrics and /debug/pprof from this address while experiments run (e.g. 127.0.0.1:9090)")
		showVer = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("scpm-bench"))
		return 0
	}
	if *metrics != "" {
		maddr, stopMetrics, err := obs.Start(*metrics, scpm.NewMetricsRegistry())
		if err != nil {
			fmt.Fprintln(stderr, "scpm-bench:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stderr, "scpm-bench: metrics on %s\n", maddr)
	}

	run := func(id string) error {
		switch id {
		case "table1":
			r, err := experiments.Table1(ctx)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "table2", "table3", "table4":
			name := map[string]string{"table2": "dblp", "table3": "lastfm", "table4": "citeseer"}[id]
			d, err := experiments.Load(name, *scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "E"+id[len(id)-1:]+" / "+paperName(id))
			fmt.Fprintln(stdout, d.Summary())
			r, err := experiments.TopSets(ctx, d, *topN)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "fig4", "fig7", "fig9":
			name := map[string]string{"fig4": "dblp", "fig7": "lastfm", "fig9": "citeseer"}[id]
			frac := 0.10
			if name == "lastfm" {
				frac = 0.37
			}
			d, err := experiments.Load(name, *scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, paperName(id))
			sigmas := experiments.DefaultSigmas(d.Graph.NumVertices(), frac, 8)
			r, err := experiments.ExpectedCurve(d, sigmas, *samples, 99)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "fig8":
			d, err := experiments.Load("smalldblp", *scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "Figure 8 — performance evaluation on "+d.Summary())
			sweeps := experiments.DefaultPerfSweeps(d)
			for _, panel := range experiments.PerfPanels {
				r, err := experiments.Perf(ctx, d, panel, sweeps[panel], *naive, *repeats)
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, r.Format())
			}
		case "fig10":
			d, err := experiments.Load("smalldblp", *scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "Figure 10 — parameter sensitivity on "+d.Summary())
			sweeps := experiments.DefaultSensitivitySweeps(d)
			for _, panel := range experiments.SensitivityPanels {
				r, err := experiments.Sensitivity(ctx, d, panel, sweeps[panel])
				if err != nil {
					return err
				}
				fmt.Fprintln(stdout, r.Format())
			}
		case "ablation":
			d, err := experiments.Load("smalldblp", *scale)
			if err != nil {
				return err
			}
			r, err := experiments.Ablation(ctx, d)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "approx":
			d, err := experiments.Load(*approxDataset, *scale)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "Exact vs sampled ε estimation on "+d.Summary())
			r, err := experiments.Approx(ctx, d, experiments.DefaultApproxConfigs, *repeats)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, r.Format())
		case "bench":
			return runBenchSuite(ctx, *benchDatasets, *benchScales, *benchParallel, *benchOut, stdout)
		case "shard":
			return runShardBench(ctx, *shardDatasets, *shardScale, *repeats, *benchOut, stdout)
		case "boot":
			return runBootBench(ctx, *bootDatasets, *bootScale, *repeats, *benchOut, stdout)
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		return nil
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"table1", "table2", "table3", "table4",
			"fig4", "fig7", "fig9", "fig8", "fig10", "ablation"}
	}
	for _, id := range ids {
		if err := run(id); err != nil {
			if errors.Is(err, scpm.ErrCanceled) {
				fmt.Fprintln(stderr, "scpm-bench: interrupted")
				return 130
			}
			fmt.Fprintln(stderr, "scpm-bench:", err)
			return 1
		}
	}
	return 0
}

func paperName(id string) string {
	switch id {
	case "table2":
		return "Table 2 — DBLP top attribute sets"
	case "table3":
		return "Table 3 — LastFm top attribute sets"
	case "table4":
		return "Table 4 — CiteSeer top attribute sets"
	case "fig4":
		return "Figure 4 — DBLP expected structural correlation"
	case "fig7":
		return "Figure 7 — LastFm expected structural correlation"
	case "fig9":
		return "Figure 9 — CiteSeer expected structural correlation"
	}
	return id
}
