package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/experiments"
	"github.com/scpm/scpm/internal/shard"
)

// shardMineRun is one (dataset, shard count) cell of the shard
// experiment. Each shard's wall is measured sequentially on an
// otherwise idle process with the sealed level-1 verdicts injected, so
// the recorded wall models the critical path of a real deployment —
// one coordinator sealing verdicts once, n machines mining their
// partitions concurrently, one merge:
//
//	wall_ms = verdict_ms + max(shard_walls_ms) + merge_ms
//
// (Timing shard.MineAll directly would interleave all n shards'
// goroutines on this benchmark's single CPU and measure their SUM, a
// methodology under which sharding can never win wall time.)
type shardMineRun struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Shards  int     `json:"shards"`
	// VerdictMS times core.ComputeLevel1 — the one-shot sealed level-1
	// precomputation every shard replays instead of re-searching.
	VerdictMS float64 `json:"verdict_ms"`
	// ShardWallsMS are the per-shard mining walls (sequential, verdicts
	// injected); MergeMS is the deterministic k-way merge of the slices.
	ShardWallsMS []float64 `json:"shard_walls_ms"`
	MergeMS      float64   `json:"merge_ms"`
	// WallMS is the critical-path wall above; SingleMS is the
	// single-process core.Mine baseline on the same dataset and
	// parameters; Speedup is SingleMS/WallMS.
	WallMS   float64 `json:"wall_ms"`
	SingleMS float64 `json:"single_ms"`
	Speedup  float64 `json:"speedup"`
	Sets     int     `json:"sets"`
	Patterns int     `json:"patterns"`
	// ReusedVerdicts is the merged count of level-1 evaluations the
	// shards replayed from the sealed verdicts.
	ReusedVerdicts int64 `json:"reused_verdicts"`
	// MergeVerified reports that the merged sharded result was checked
	// set-for-set (keys and ε values) against the single-process run.
	MergeVerified bool `json:"merge_verified"`
}

// shardReport is the "shard" section of BENCH_shard.json.
type shardReport struct {
	Repeats int            `json:"repeats"`
	Mining  []shardMineRun `json:"mining"`
}

// shardBenchCounts are the shard widths the mining half measures, per
// the sharding design's target deployment sizes.
var shardBenchCounts = []int{1, 2, 4}

// runShardBench measures the sharded mining path (shard.MineAll at 1,
// 2 and 4 partitions vs single-process core.Mine, merge verified),
// writing BENCH_shard.json.
func runShardBench(ctx context.Context, datasets string, scale float64, repeats int, outDir string, stdout io.Writer) error {
	if repeats < 1 {
		repeats = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("shard: creating %s: %w", outDir, err)
	}
	report := benchReport{
		Schema:  benchSchema,
		Dataset: "shard",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Shard:   &shardReport{Repeats: repeats},
	}
	for _, name := range strings.Split(datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		runs, err := shardMineOne(ctx, name, scale, repeats)
		if err != nil {
			return fmt.Errorf("shard %s: %w", name, err)
		}
		report.Shard.Mining = append(report.Shard.Mining, runs...)
		for _, r := range runs {
			fmt.Fprintf(stdout, "shard %s n=%d wall=%8.1fms (verdict=%.1f max_shard=%.1f merge=%.1f) single=%8.1fms speedup=%4.2fx sets=%d reused=%d merge_ok=%v\n",
				r.Dataset, r.Shards, r.WallMS, r.VerdictMS, r.WallMS-r.VerdictMS-r.MergeMS, r.MergeMS,
				r.SingleMS, r.Speedup, r.Sets, r.ReusedVerdicts, r.MergeVerified)
		}
	}
	path := filepath.Join(outDir, "BENCH_shard.json")
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// shardMineOne times single-process mining and each sharded width on
// one dataset, verifying every merged result against the baseline.
// The sealed level-1 verdicts are computed (and timed) once and shared
// by every width; each shard's partition is then mined sequentially so
// its wall is uncontended, and the published wall is the deployment
// critical path verdict + slowest shard + merge.
func shardMineOne(ctx context.Context, name string, scale float64, repeats int) ([]shardMineRun, error) {
	d, err := experiments.Load(name, scale)
	if err != nil {
		return nil, err
	}
	p := d.Params()

	var single *core.Result
	singleMS := bestOfMS(repeats, func() error {
		single, err = core.Mine(ctx, d.Graph, p, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	var verdicts *core.Level1Verdicts
	verdictMS := bestOfMS(repeats, func() error {
		verdicts, err = core.ComputeLevel1(ctx, d.Graph, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	pv := p
	pv.Level1Verdicts = verdicts

	var runs []shardMineRun
	for _, n := range shardBenchCounts {
		parts := make([]*core.Result, n)
		walls := make([]float64, n)
		maxWall := 0.0
		for k := 0; k < n; k++ {
			k := k
			walls[k] = bestOfMS(repeats, func() error {
				parts[k], err = shard.Mine(ctx, d.Graph, pv, k, n)
				return err
			})
			if err != nil {
				return nil, err
			}
			if walls[k] > maxWall {
				maxWall = walls[k]
			}
		}
		var merged *core.Result
		mergeMS := bestOfMS(repeats, func() error {
			merged, err = core.MergeResults(parts...)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := sameMinedResult(single, merged); err != nil {
			return nil, fmt.Errorf("%d-shard merge diverged from single-process: %w", n, err)
		}
		wallMS := verdictMS + maxWall + mergeMS
		runs = append(runs, shardMineRun{
			Dataset:        name,
			Scale:          scale,
			Shards:         n,
			VerdictMS:      verdictMS,
			ShardWallsMS:   walls,
			MergeMS:        mergeMS,
			WallMS:         wallMS,
			SingleMS:       singleMS,
			Speedup:        singleMS / wallMS,
			Sets:           len(merged.Sets),
			Patterns:       len(merged.Patterns),
			ReusedVerdicts: merged.Stats.ReusedVerdicts,
			MergeVerified:  true,
		})
	}
	return runs, nil
}

// sameMinedResult checks the merged sharded result set-for-set against
// the single-process baseline (the property tests in internal/shard
// prove full bit-identity; the bench re-checks the cheap invariants so
// a broken merge can never publish a timing).
func sameMinedResult(want, got *core.Result) error {
	if len(want.Sets) != len(got.Sets) || len(want.Patterns) != len(got.Patterns) {
		return fmt.Errorf("%d/%d sets, %d/%d patterns",
			len(got.Sets), len(want.Sets), len(got.Patterns), len(want.Patterns))
	}
	for i := range want.Sets {
		if want.Sets[i].Key() != got.Sets[i].Key() || want.Sets[i].Epsilon != got.Sets[i].Epsilon {
			return fmt.Errorf("set %d: %s ε=%g vs %s ε=%g", i,
				got.Sets[i].Key(), got.Sets[i].Epsilon, want.Sets[i].Key(), want.Sets[i].Epsilon)
		}
	}
	return nil
}

// bestOfMS returns the fastest of n timed calls in milliseconds.
func bestOfMS(n int, fn func() error) float64 {
	best := 0.0
	for i := 0; i < n; i++ {
		start := time.Now()
		if fn() != nil {
			return 0
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if i == 0 || ms < best {
			best = ms
		}
	}
	return best
}
