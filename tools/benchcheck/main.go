// Command benchcheck compares a candidate BENCH_<dataset>.json against
// a committed baseline and enforces the regression gates:
//
//   - search nodes: any run whose search_nodes grew more than
//     -tolerance (default 5%) over the baseline run with the same
//     (scale, epsilon_mode) fails. search_nodes is deterministic —
//     same input, same count, on any machine at any -parallel value —
//     so this gate has no noise floor.
//   - answers: any run whose sets, patterns or sets_evaluated differ
//     at all from the baseline run with the same (scale, epsilon_mode)
//     fails. They are as deterministic as search_nodes, and an
//     optimisation must not change them, even one that searches less.
//   - shard speedup (BENCH_shard.json only): the 2-shard critical-path
//     speedup must stay above the hard floor of 1.0 — sharding that
//     does not divide wall time is a regression by definition — and no
//     row's speedup may fall more than -shard-tolerance (default 25%,
//     loose because speedups are wall-clock ratios and carry timing
//     noise) below its baseline.
//   - boot speedup (BENCH_boot.json only): every row's lazy-vs-full
//     boot speedup (a full boot checksums every section and builds
//     every table the lazy one defers) must exceed 1.0 and carry a
//     verified cross-check; the row with the largest snapshot (the
//     representative dataset — small snapshots boot in microseconds
//     either way, so their ratios are noise) must meet the -boot-floor
//     (default 10, the lazy-boot acceptance criterion); and no row may
//     fall more than -boot-tolerance below its baseline speedup. A boot
//     speedup is a ratio of two wall times on one machine, so
//     -candidate may list several boot reports, comma-separated: each
//     row is then gated on its median speedup over them (the lower
//     middle for an even count), and is verified only when every run
//     verified it.
//
// Wall-clock and allocation columns are advisory only: CI machines are
// too noisy to gate on, so deltas are printed benchstat-style for the
// reviewer and never affect the exit code.
//
// Usage:
//
//	benchcheck -baseline BENCH_dense.json -candidate out/BENCH_dense.json
//	benchcheck -baseline BENCH_shard.json -candidate out/BENCH_shard.json
//	benchcheck -baseline BENCH_boot.json -candidate a/BENCH_boot.json,b/BENCH_boot.json,c/BENCH_boot.json
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// run mirrors the benchRun columns the gate consumes; unknown fields
// are ignored so the tool tolerates additive schema growth.
type run struct {
	Scale         float64 `json:"scale"`
	EpsilonMode   string  `json:"epsilon_mode"`
	WallMS        float64 `json:"wall_ms"`
	Sets          int64   `json:"sets"`
	Patterns      int64   `json:"patterns"`
	SetsEvaluated int64   `json:"sets_evaluated"`
	SearchNodes   int64   `json:"search_nodes"`
	Allocs        uint64  `json:"allocs"`
}

// shardRun mirrors the shard-section mining columns the speedup gate
// consumes.
type shardRun struct {
	Dataset string  `json:"dataset"`
	Scale   float64 `json:"scale"`
	Shards  int     `json:"shards"`
	Speedup float64 `json:"speedup"`
}

type shardSection struct {
	Mining []shardRun `json:"mining"`
}

// bootRun mirrors the boot-section columns the speedup gate consumes.
type bootRun struct {
	Dataset       string  `json:"dataset"`
	Scale         float64 `json:"scale"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	Speedup       float64 `json:"speedup"`
	Verified      bool    `json:"verified"`
}

type bootSection struct {
	Runs []bootRun `json:"runs"`
}

type report struct {
	Schema  string        `json:"schema"`
	Dataset string        `json:"dataset"`
	Runs    []run         `json:"runs"`
	Shard   *shardSection `json:"shard"`
	Boot    *bootSection  `json:"boot"`
}

func main() {
	baseline := flag.String("baseline", "", "committed baseline BENCH_*.json")
	candidate := flag.String("candidate", "", "freshly generated BENCH_*.json to check; for boot reports, a comma-separated list gated on each row's median")
	tolerance := flag.Float64("tolerance", 0.05, "allowed fractional search_nodes growth over baseline")
	shardTolerance := flag.Float64("shard-tolerance", 0.25, "allowed fractional shard-speedup decline below baseline")
	bootFloor := flag.Float64("boot-floor", 10, "minimum lazy-vs-full boot speedup for the largest-snapshot row")
	bootTolerance := flag.Float64("boot-tolerance", 0.25, "allowed fractional boot-speedup decline below baseline")
	flag.Parse()
	if *baseline == "" || *candidate == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -baseline and -candidate are required")
		os.Exit(2)
	}
	if err := check(*baseline, *candidate, gates{
		tolerance:      *tolerance,
		shardTolerance: *shardTolerance,
		bootFloor:      *bootFloor,
		bootTolerance:  *bootTolerance,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func load(path string) (report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 && (r.Shard == nil || len(r.Shard.Mining) == 0) &&
		(r.Boot == nil || len(r.Boot.Runs) == 0) {
		return report{}, fmt.Errorf("%s: no runs", path)
	}
	return r, nil
}

// loadCandidates loads the candidate report. A comma-separated list of
// boot reports loads as one report whose row for each boot is the run
// with the median speedup among the reports' rows for it (the lower
// middle for an even count), verified only when every report holds a
// verified row for it.
func loadCandidates(paths string, out io.Writer) (report, error) {
	list := strings.Split(paths, ",")
	var reps []report
	for _, p := range list {
		r, err := load(p)
		if err != nil {
			return report{}, err
		}
		if len(list) > 1 && (r.Boot == nil || len(r.Runs) > 0 || r.Shard != nil || len(reps) > 0 && r.Dataset != reps[0].Dataset) {
			return report{}, fmt.Errorf("%s: only boot reports of one dataset can be gated together", p)
		}
		reps = append(reps, r)
	}
	if len(reps) == 1 {
		return reps[0], nil
	}
	var order []string
	byKey := make(map[string][]bootRun)
	for _, r := range reps {
		for _, row := range r.Boot.Runs {
			k := bootKey(row)
			if byKey[k] == nil {
				order = append(order, k)
			}
			byKey[k] = append(byKey[k], row)
		}
	}
	merged := reps[0]
	merged.Boot = &bootSection{}
	for _, k := range order {
		rows := byKey[k]
		slices.SortFunc(rows, func(a, b bootRun) int { return cmp.Compare(a.Speedup, b.Speedup) })
		median := rows[(len(rows)-1)/2]
		median.Verified = len(rows) == len(reps)
		speedups := make([]string, len(rows))
		for i, row := range rows {
			median.Verified = median.Verified && row.Verified
			speedups[i] = fmt.Sprintf("%.1fx", row.Speedup)
		}
		fmt.Fprintf(out, "%-20s  boot speedups of %d runs %s: median %.1fx\n", k, len(reps), strings.Join(speedups, " "), median.Speedup)
		merged.Boot.Runs = append(merged.Boot.Runs, median)
	}
	return merged, nil
}

// gates bundles the per-section thresholds.
type gates struct {
	tolerance      float64 // search_nodes growth
	shardTolerance float64 // shard-speedup decline
	bootFloor      float64 // boot-speedup hard floor (largest snapshot)
	bootTolerance  float64 // boot-speedup decline
}

// key identifies the baseline run a candidate run is compared against.
func key(r run) string { return fmt.Sprintf("%g/%s", r.Scale, r.EpsilonMode) }

func check(basePath, candPath string, g gates, out io.Writer) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cand, err := loadCandidates(candPath, out)
	if err != nil {
		return err
	}
	if base.Dataset != cand.Dataset {
		return fmt.Errorf("dataset mismatch: baseline %q vs candidate %q", base.Dataset, cand.Dataset)
	}
	if cand.Shard != nil {
		if err := checkShard(base, cand, g.shardTolerance, out); err != nil {
			return err
		}
	}
	if cand.Boot != nil {
		if err := checkBoot(base, cand, g.bootFloor, g.bootTolerance, out); err != nil {
			return err
		}
	}
	tolerance := g.tolerance
	byKey := make(map[string]run, len(base.Runs))
	for _, r := range base.Runs {
		byKey[key(r)] = r
	}
	var failures, changed int
	for _, c := range cand.Runs {
		b, ok := byKey[key(c)]
		if !ok {
			fmt.Fprintf(out, "%-16s  new run, no baseline — skipped\n", key(c))
			continue
		}
		answers := "ok"
		if c.Sets != b.Sets || c.Patterns != b.Patterns || c.SetsEvaluated != b.SetsEvaluated {
			answers = "FAIL (answers changed)"
			changed++
		}
		fmt.Fprintf(out, "%-16s  sets/patterns/evaluated %d/%d/%d → %d/%d/%d  %s\n",
			key(c), b.Sets, b.Patterns, b.SetsEvaluated, c.Sets, c.Patterns, c.SetsEvaluated, answers)
		nodesDelta := delta(float64(b.SearchNodes), float64(c.SearchNodes))
		wallDelta := delta(b.WallMS, c.WallMS)
		allocDelta := delta(float64(b.Allocs), float64(c.Allocs))
		verdict := "ok"
		if float64(c.SearchNodes) > float64(b.SearchNodes)*(1+tolerance) {
			verdict = fmt.Sprintf("FAIL (> +%.0f%%)", tolerance*100)
			failures++
		}
		fmt.Fprintf(out, "%-16s  search_nodes %8d → %8d (%+7.2f%%)  %s\n",
			key(c), b.SearchNodes, c.SearchNodes, nodesDelta, verdict)
		fmt.Fprintf(out, "%-16s  wall_ms      %8.1f → %8.1f (%+7.2f%%)  advisory\n",
			"", b.WallMS, c.WallMS, wallDelta)
		fmt.Fprintf(out, "%-16s  allocs       %8d → %8d (%+7.2f%%)  advisory\n",
			"", b.Allocs, c.Allocs, allocDelta)
	}
	if changed > 0 {
		return fmt.Errorf("%d run(s) changed sets, patterns or sets_evaluated on %s", changed, base.Dataset)
	}
	if failures > 0 {
		return fmt.Errorf("%d run(s) regressed search_nodes beyond %.0f%% on %s", failures, tolerance*100, base.Dataset)
	}
	return nil
}

// shardKey identifies the baseline shard row a candidate row is
// compared against.
func shardKey(r shardRun) string { return fmt.Sprintf("%s@%g/n=%d", r.Dataset, r.Scale, r.Shards) }

// checkShard enforces the shard-speedup gate: every 2-shard row must
// beat the 1.0 hard floor (speedup is single_ms over the critical-path
// wall, so ≤ 1.0 means sharding did not divide wall time at the
// canonical deployment width), and no row may fall more than tolerance
// below its baseline speedup. Rows without a baseline face only the
// floor.
func checkShard(base, cand report, tolerance float64, out io.Writer) error {
	byKey := make(map[string]shardRun)
	if base.Shard != nil {
		for _, r := range base.Shard.Mining {
			byKey[shardKey(r)] = r
		}
	}
	var failures int
	for _, c := range cand.Shard.Mining {
		verdict := "ok"
		b, hasBase := byKey[shardKey(c)]
		switch {
		case c.Shards == 2 && c.Speedup <= 1.0:
			verdict = "FAIL (floor: 2-shard speedup must exceed 1.0)"
			failures++
		case hasBase && c.Speedup < b.Speedup*(1-tolerance):
			verdict = fmt.Sprintf("FAIL (> -%.0f%% vs baseline)", tolerance*100)
			failures++
		case !hasBase:
			verdict = "ok (new row, floor only)"
		}
		if hasBase {
			fmt.Fprintf(out, "%-20s  speedup %5.2fx → %5.2fx (%+7.2f%%)  %s\n",
				shardKey(c), b.Speedup, c.Speedup, delta(b.Speedup, c.Speedup), verdict)
		} else {
			fmt.Fprintf(out, "%-20s  speedup          %5.2fx           %s\n", shardKey(c), c.Speedup, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d shard row(s) failed the speedup gate", failures)
	}
	return nil
}

// bootKey identifies the baseline boot row a candidate row is compared
// against.
func bootKey(r bootRun) string { return fmt.Sprintf("%s@%g", r.Dataset, r.Scale) }

// checkBoot enforces the lazy-boot gate: every row must be verified
// (contents cross-checked between the two boots) and faster than a
// full boot; the row with the largest snapshot must meet the
// hard floor — that row is the one whose O(file) + O(sets) costs are
// big enough for the ratio to be signal rather than noise — and no row
// may fall more than tolerance below its baseline speedup.
func checkBoot(base, cand report, floor, tolerance float64, out io.Writer) error {
	byKey := make(map[string]bootRun)
	if base.Boot != nil {
		for _, r := range base.Boot.Runs {
			byKey[bootKey(r)] = r
		}
	}
	var biggest string
	var maxBytes int64 = -1
	for _, c := range cand.Boot.Runs {
		if c.SnapshotBytes > maxBytes {
			biggest, maxBytes = bootKey(c), c.SnapshotBytes
		}
	}
	var failures int
	for _, c := range cand.Boot.Runs {
		verdict := "ok"
		b, hasBase := byKey[bootKey(c)]
		switch {
		case !c.Verified:
			verdict = "FAIL (boots not cross-checked)"
			failures++
		case c.Speedup <= 1.0:
			verdict = "FAIL (floor: lazy boot must beat the full boot)"
			failures++
		case bootKey(c) == biggest && c.Speedup < floor:
			verdict = fmt.Sprintf("FAIL (floor: largest snapshot must boot ≥ %gx faster)", floor)
			failures++
		case hasBase && c.Speedup < b.Speedup*(1-tolerance):
			verdict = fmt.Sprintf("FAIL (> -%.0f%% vs baseline)", tolerance*100)
			failures++
		case !hasBase:
			verdict = "ok (new row, floors only)"
		}
		if hasBase {
			fmt.Fprintf(out, "%-20s  boot speedup %6.1fx → %6.1fx (%+7.2f%%)  %s\n",
				bootKey(c), b.Speedup, c.Speedup, delta(b.Speedup, c.Speedup), verdict)
		} else {
			fmt.Fprintf(out, "%-20s  boot speedup          %6.1fx           %s\n", bootKey(c), c.Speedup, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d boot row(s) failed the speedup gate", failures)
	}
	return nil
}

// delta returns the percent change from old to new (0 when old is 0).
func delta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}
