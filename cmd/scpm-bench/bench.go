package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/experiments"
)

// benchSchema versions the BENCH_*.json layout so downstream tooling
// can detect incompatible changes. v2 added the ε-estimator columns
// (epsilon_mode, sample_eps, sample_delta, sampled_vertices) and one
// run per (scale, estimator mode); v3 added the optional serve section
// written by -exp serve (index build time + endpoint throughput); v4
// added the optional update section written by -exp update (full vs
// incremental remine after single-op graph deltas); v5 added the
// optional shard section written by -exp shard (1/2/4-shard mining
// wall time vs single-process, plus scatter-gather gateway throughput
// vs a direct server); v6 added the parallelism column (the -parallel
// worker count a run was mined with — search_nodes and the result
// columns are identical for every value; only the timing and
// allocation columns move); v7 reworked the shard section's mining
// methodology — per-shard walls are measured sequentially with sealed
// level-1 verdicts injected (core.ComputeLevel1 timed once as
// verdict_ms) and wall_ms models the deployment critical path
// verdict_ms + max(shard_walls_ms) + merge_ms, with the per-run
// replayed-verdict count in reused_verdicts — so speedups reflect
// shards on separate machines rather than goroutines contending for
// one CPU; v8 added the optional boot section written by -exp boot
// (v3 snapshot cold-boot wall and heap, contents cross-checked); v9
// renamed its materialize_ms/materialize_heap_bytes columns to
// full_boot_ms/full_boot_heap_bytes, the full boot through the same
// decode path as the lazy one; v10 removed the serve and update
// sections (-exp serve and -exp update are gone: perfbench's
// dblp-query and dblp-update workloads measure those paths) and the
// shard section's gateway object (perfbench's dblp-gateway does).
const benchSchema = "scpm-bench/v10"

// benchRun is one (dataset, scale, estimator mode) measurement.
type benchRun struct {
	Scale      float64 `json:"scale"`
	Vertices   int     `json:"vertices"`
	Edges      int     `json:"edges"`
	Attributes int     `json:"attributes"`

	SigmaMin int     `json:"sigma_min"`
	Gamma    float64 `json:"gamma"`
	MinSize  int     `json:"min_size"`
	K        int     `json:"k"`

	// Parallelism is the worker count the run was mined with. The
	// result and search_nodes columns are deterministic across values
	// (per-worker counters summed at merge); wall/alloc columns are not.
	Parallelism int `json:"parallelism"`

	// EpsilonMode is "exact" or "sampled"; the sampling columns are
	// omitted for exact runs.
	EpsilonMode string  `json:"epsilon_mode"`
	SampleEps   float64 `json:"sample_eps,omitempty"`
	SampleDelta float64 `json:"sample_delta,omitempty"`

	WallMS          float64 `json:"wall_ms"`
	Sets            int     `json:"sets"`
	Patterns        int     `json:"patterns"`
	SetsEvaluated   int64   `json:"sets_evaluated"`
	SearchNodes     int64   `json:"search_nodes"`
	SampledVertices int64   `json:"sampled_vertices,omitempty"`

	Allocs        uint64 `json:"allocs"`
	AllocBytes    uint64 `json:"alloc_bytes"`
	HeapPeakBytes uint64 `json:"heap_peak_bytes"`
}

// benchReport is the full content of one BENCH_<dataset>.json file.
// Mining suites fill Runs; -exp shard fills Shard; -exp boot fills
// Boot.
type benchReport struct {
	Schema  string       `json:"schema"`
	Dataset string       `json:"dataset"`
	Go      string       `json:"go"`
	GOOS    string       `json:"goos"`
	GOARCH  string       `json:"goarch"`
	Runs    []benchRun   `json:"runs,omitempty"`
	Shard   *shardReport `json:"shard,omitempty"`
	Boot    *bootReport  `json:"boot,omitempty"`
}

// runBenchSuite generates each dataset at every scale, mines it with
// the dataset's paper parameters and writes BENCH_<dataset>.json into
// outDir. Generation and mining are deterministic, so two runs on the
// same machine differ only in the timing and allocation columns.
func runBenchSuite(ctx context.Context, datasets string, scales string, parallel int, outDir string, stdout io.Writer) error {
	scaleList, err := parseScales(scales)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("bench: creating %s: %w", outDir, err)
	}
	for _, name := range strings.Split(datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		report := benchReport{
			Schema:  benchSchema,
			Dataset: name,
			Go:      runtime.Version(),
			GOOS:    runtime.GOOS,
			GOARCH:  runtime.GOARCH,
		}
		for _, scale := range scaleList {
			for _, mode := range []core.EpsilonMode{core.EpsilonExact, core.EpsilonSampled} {
				run, err := benchOne(ctx, name, scale, mode, parallel)
				if err != nil {
					return fmt.Errorf("bench %s@%g/%v: %w", name, scale, mode, err)
				}
				report.Runs = append(report.Runs, run)
				fmt.Fprintf(stdout, "bench %s scale=%g mode=%s: |V|=%d |E|=%d wall=%.1fms sets=%d patterns=%d nodes=%d sampled=%d allocs=%d\n",
					name, scale, run.EpsilonMode, run.Vertices, run.Edges, run.WallMS, run.Sets, run.Patterns, run.SearchNodes, run.SampledVertices, run.Allocs)
			}
		}
		path := filepath.Join(outDir, "BENCH_"+name+".json")
		if err := writeBenchReport(path, report); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

// benchSampleEps / benchSampleDelta parameterize the sampled-mode
// baseline runs: ±0.1 at 95% per-set confidence (185 samples) — the
// estimator defaults, recorded explicitly so the JSON stands alone.
const (
	benchSampleEps   = 0.1
	benchSampleDelta = 0.05
)

// benchOne mines one generated dataset and measures the run. Only the
// mining phase is measured; dataset generation happens before the
// clocks start (and is cached across scales by the experiments loader).
func benchOne(ctx context.Context, name string, scale float64, mode core.EpsilonMode, parallel int) (benchRun, error) {
	d, err := experiments.Load(name, scale)
	if err != nil {
		return benchRun{}, err
	}
	p := d.Params()
	if parallel < 1 {
		parallel = 1
	}
	p.Parallelism = parallel
	if mode == core.EpsilonSampled {
		p.EpsilonMode = core.EpsilonSampled
		p.SampleEps = benchSampleEps
		p.SampleDelta = benchSampleDelta
		p.Seed = 1
	}

	// Track the heap high-water mark while mining. runtime.MemStats has
	// no true peak counter, so a sampler polls HeapAlloc; the resolution
	// is coarse but stable enough to flag regressions between PRs.
	stopSampler := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go func() {
		var peak uint64
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stopSampler:
				peakCh <- peak
				return
			case <-ticker.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	res, err := core.Mine(ctx, d.Graph, p, nil)
	wall := time.Since(start)

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	close(stopSampler)
	peak := <-peakCh
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}
	if err != nil {
		return benchRun{}, err
	}

	run := benchRun{
		Scale:           scale,
		Vertices:        d.Graph.NumVertices(),
		Edges:           d.Graph.NumEdges(),
		Attributes:      d.Graph.NumAttributes(),
		SigmaMin:        p.SigmaMin,
		Gamma:           p.Gamma,
		MinSize:         p.MinSize,
		K:               p.K,
		Parallelism:     parallel,
		EpsilonMode:     p.EpsilonMode.String(),
		WallMS:          float64(wall.Microseconds()) / 1000,
		Sets:            len(res.Sets),
		Patterns:        len(res.Patterns),
		SetsEvaluated:   res.Stats.SetsEvaluated,
		SearchNodes:     res.Stats.SearchNodes,
		SampledVertices: res.Stats.SampledVertices,
		Allocs:          after.Mallocs - before.Mallocs,
		AllocBytes:      after.TotalAlloc - before.TotalAlloc,
		HeapPeakBytes:   peak,
	}
	if p.EpsilonMode == core.EpsilonSampled {
		run.SampleEps = p.SampleEps
		run.SampleDelta = p.SampleDelta
	}
	return run, nil
}

func writeBenchReport(path string, report benchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return fmt.Errorf("bench: encoding %s: %w", path, err)
	}
	return f.Close()
}

func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		// !(v > 0) also rejects NaN, which compares false to everything.
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: bad scale %q (want a positive float list like \"0.1,0.2\")", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: empty scale list")
	}
	return out, nil
}
