package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/core"
)

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := runMain(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBenchTable1(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "matches Table 1 of the paper exactly") {
		t.Fatalf("verdict missing:\n%s", out)
	}
}

func TestBenchTable2Scaled(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "table2", "-scale", "0.15", "-top", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"Table 2", "top σ", "top ε", "top δlb"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestBenchFig4Scaled(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "fig4", "-scale", "0.15", "-samples", "10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "bound holds (max ≥ sim): true") {
		t.Fatalf("bound claim missing:\n%s", out)
	}
}

func TestBenchFig8Scaled(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "fig8", "-scale", "0.15", "-repeats", "1", "-naive=false")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "runtime vs gamma") || !strings.Contains(out, "runtime vs k") {
		t.Fatalf("panels missing:\n%s", out)
	}
}

func TestBenchFig10Scaled(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "fig10", "-scale", "0.15")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "sensitivity vs gamma") {
		t.Fatalf("panel missing:\n%s", out)
	}
}

func TestBenchAblationScaled(t *testing.T) {
	code, out, errOut := runBench(t, "-exp", "ablation", "-scale", "0.15")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "no set pruning") {
		t.Fatalf("variants missing:\n%s", out)
	}
}

func TestBenchBaselineJSON(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runBench(t,
		"-exp", "bench", "-out", dir,
		"-bench-datasets", "lastfm", "-bench-scales", "0.1,0.15")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	path := filepath.Join(dir, "BENCH_lastfm.json")
	if !strings.Contains(out, path) {
		t.Fatalf("output does not mention %s:\n%s", path, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if report.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", report.Schema, benchSchema)
	}
	if report.Dataset != "lastfm" {
		t.Errorf("dataset = %q", report.Dataset)
	}
	// one exact + one sampled run per scale
	if len(report.Runs) != 4 {
		t.Fatalf("got %d runs, want 4", len(report.Runs))
	}
	for i, run := range report.Runs {
		if run.Vertices <= 0 || run.Edges <= 0 || run.Attributes <= 0 {
			t.Errorf("run %d: empty graph: %+v", i, run)
		}
		if run.WallMS <= 0 || run.Allocs == 0 || run.SearchNodes == 0 {
			t.Errorf("run %d: missing measurements: %+v", i, run)
		}
		if run.SigmaMin <= 0 || run.Gamma <= 0 || run.MinSize <= 0 {
			t.Errorf("run %d: missing parameters: %+v", i, run)
		}
		wantMode := "exact"
		if i%2 == 1 {
			wantMode = "sampled"
		}
		if run.EpsilonMode != wantMode {
			t.Errorf("run %d: mode = %q, want %q", i, run.EpsilonMode, wantMode)
		}
		if wantMode == "sampled" && (run.SampleEps <= 0 || run.SampleDelta <= 0) {
			t.Errorf("run %d: sampled run without sampling parameters: %+v", i, run)
		}
		// Exact and its sampled sibling must describe the same dataset.
		if i%2 == 1 && (run.Vertices != report.Runs[i-1].Vertices || run.Scale != report.Runs[i-1].Scale) {
			t.Errorf("run %d: mode pair describes different graphs", i)
		}
	}
	if report.Runs[0].Scale >= report.Runs[2].Scale {
		t.Errorf("runs not in scale order: %g, %g", report.Runs[0].Scale, report.Runs[2].Scale)
	}
}

// TestBenchParallelDeterministicSearchNodes pins the counter contract
// of the v6 schema: the same (dataset, scale, mode) benchmarked at
// -parallel 1 and -parallel 4 must report identical search_nodes and
// result counts — only the timing/allocation columns may move — and
// the worker count must be recorded in the run.
func TestBenchParallelDeterministicSearchNodes(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []core.EpsilonMode{core.EpsilonExact, core.EpsilonSampled} {
		seq, err := benchOne(ctx, "dense", 0.1, mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := benchOne(ctx, "dense", 0.1, mode, 4)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Parallelism != 1 || par.Parallelism != 4 {
			t.Errorf("%v: parallelism recorded as (%d, %d), want (1, 4)", mode, seq.Parallelism, par.Parallelism)
		}
		if seq.SearchNodes == 0 {
			t.Fatalf("%v: sequential run reports zero search nodes", mode)
		}
		if par.SearchNodes != seq.SearchNodes {
			t.Errorf("%v: search_nodes = %d at -parallel 4, want %d (same as -parallel 1)",
				mode, par.SearchNodes, seq.SearchNodes)
		}
		if par.SetsEvaluated != seq.SetsEvaluated || par.Sets != seq.Sets || par.Patterns != seq.Patterns {
			t.Errorf("%v: result counts differ across -parallel: (%d,%d,%d) vs (%d,%d,%d)",
				mode, par.SetsEvaluated, par.Sets, par.Patterns, seq.SetsEvaluated, seq.Sets, seq.Patterns)
		}
		if par.SampledVertices != seq.SampledVertices {
			t.Errorf("%v: sampled_vertices = %d at -parallel 4, want %d",
				mode, par.SampledVertices, seq.SampledVertices)
		}
	}
}

func TestBenchBadScales(t *testing.T) {
	for _, scales := range []string{"", "abc", "-1", "0", "NaN", "+Inf", "-Inf"} {
		if code, _, _ := runBench(t, "-exp", "bench", "-out", t.TempDir(), "-bench-scales", scales); code == 0 {
			t.Errorf("scales %q accepted", scales)
		}
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	if code, _, _ := runBench(t, "-exp", "table99"); code == 0 {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPaperNames(t *testing.T) {
	for _, id := range []string{"table2", "table3", "table4", "fig4", "fig7", "fig9"} {
		if paperName(id) == id {
			t.Errorf("no paper name for %s", id)
		}
	}
	if paperName("zzz") != "zzz" {
		t.Error("fallback broken")
	}
}

func TestBenchVersionFlag(t *testing.T) {
	code, out, errOut := runBench(t, "-version")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "scpm-bench") {
		t.Fatalf("version output %q", out)
	}
}

// TestBenchShard runs the shard experiment on one small dataset and
// validates the report shape: three shard widths per dataset, merges
// verified, and a populated gateway-vs-direct comparison.
func TestBenchShard(t *testing.T) {
	if testing.Short() {
		t.Skip("shard bench mines three widths and drives 20k gateway requests")
	}
	dir := t.TempDir()
	code, out, errOut := runBench(t, "-exp", "shard", "-out", dir,
		"-shard-datasets", "dense", "-shard-scale", "0.1", "-repeats", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "merge_ok=true") {
		t.Fatalf("summary missing merge verification:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_shard.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("invalid BENCH_shard.json: %v", err)
	}
	if report.Schema != benchSchema || report.Shard == nil {
		t.Fatalf("report envelope: %s", raw)
	}
	sh := report.Shard
	if len(sh.Mining) != len(shardBenchCounts) {
		t.Fatalf("got %d mining rows, want %d", len(sh.Mining), len(shardBenchCounts))
	}
	for i, run := range sh.Mining {
		if run.Shards != shardBenchCounts[i] || !run.MergeVerified {
			t.Errorf("row %d: %+v", i, run)
		}
		if run.WallMS <= 0 || run.SingleMS <= 0 || run.Sets == 0 {
			t.Errorf("row %d: missing measurements: %+v", i, run)
		}
		if run.VerdictMS <= 0 || run.MergeMS < 0 || len(run.ShardWallsMS) != run.Shards {
			t.Errorf("row %d: critical-path breakdown incomplete: %+v", i, run)
		}
		maxShard := 0.0
		for _, w := range run.ShardWallsMS {
			if w <= 0 {
				t.Errorf("row %d: non-positive shard wall: %+v", i, run)
			}
			if w > maxShard {
				maxShard = w
			}
		}
		if got, want := run.WallMS, run.VerdictMS+maxShard+run.MergeMS; got != want {
			t.Errorf("row %d: wall_ms %g ≠ verdict+max(shard)+merge %g", i, got, want)
		}
		if run.ReusedVerdicts == 0 {
			t.Errorf("row %d: shards replayed no sealed verdicts: %+v", i, run)
		}
		if run.Sets != sh.Mining[0].Sets || run.Patterns != sh.Mining[0].Patterns {
			t.Errorf("row %d: result counts differ across widths: %+v", i, run)
		}
	}
	if sh.Gateway == nil || sh.Gateway.Shards != 2 || len(sh.Gateway.Endpoints) == 0 {
		t.Fatalf("gateway section: %+v", sh.Gateway)
	}
	for _, ep := range sh.Gateway.Endpoints {
		if ep.GatewayQPS <= 0 || ep.DirectQPS <= 0 {
			t.Errorf("endpoint %s: non-positive qps: %+v", ep.Name, ep)
		}
	}
}

// TestBenchBoot runs the boot experiment on one small dataset and
// validates the report shape: both boots timed, contents cross-checked
// and the lazy boot never slower than a full one.
func TestBenchBoot(t *testing.T) {
	dir := t.TempDir()
	code, out, errOut := runBench(t, "-exp", "boot", "-out", dir,
		"-boot-datasets", "dense", "-boot-scale", "0.1", "-repeats", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "speedup=") {
		t.Fatalf("summary missing:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_boot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("invalid BENCH_boot.json: %v", err)
	}
	if report.Schema != benchSchema || report.Boot == nil {
		t.Fatalf("report envelope: %s", raw)
	}
	if report.Boot.Repeats != 2 || len(report.Boot.Runs) != 1 {
		t.Fatalf("boot section: %+v", report.Boot)
	}
	run := report.Boot.Runs[0]
	if run.Dataset != "dense" || run.SnapshotBytes == 0 || run.Sets == 0 || !run.Verified {
		t.Fatalf("run: %+v", run)
	}
	if run.FullBootMS <= 0 || run.MmapMS <= 0 {
		t.Fatalf("non-positive boot walls: %+v", run)
	}
	// The lazy path skips the per-section checksums and every O(sets)
	// table build — being slower than a full boot means the deferral
	// regressed outright.
	if run.Speedup <= 1.0 {
		t.Fatalf("lazy boot slower than full boot: %+v", run)
	}
}

// TestBenchServe runs the serve experiment end to end (a reduced check:
// the full request volume runs in CI) and validates the report shape.
func TestBenchServe(t *testing.T) {
	if testing.Short() {
		t.Skip("serve bench drives 160k requests")
	}
	if raceEnabled {
		t.Skip("race instrumentation invalidates the throughput floor")
	}
	dir := t.TempDir()
	code, out, errOut := runBench(t, "-exp", "serve", "-out", dir)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "index_build=") {
		t.Fatalf("summary missing:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Schema string `json:"schema"`
		Serve  *struct {
			Sets          int     `json:"sets"`
			IndexBuildMS  float64 `json:"index_build_ms"`
			SnapshotBytes int     `json:"snapshot_bytes"`
			TotalQPS      float64 `json:"total_qps"`
			Endpoints     []struct {
				Name string  `json:"name"`
				QPS  float64 `json:"qps"`
			} `json:"endpoints"`
		} `json:"serve"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("invalid BENCH_serve.json: %v", err)
	}
	if report.Schema != benchSchema || report.Serve == nil {
		t.Fatalf("report envelope: %s", raw)
	}
	sv := report.Serve
	if sv.Sets != 3 || sv.SnapshotBytes == 0 || len(sv.Endpoints) == 0 {
		t.Fatalf("serve section: %+v", sv)
	}
	// The acceptance floor is 10k queries/sec on the quickstart
	// dataset; the in-process handler clears it by an order of
	// magnitude, so a failure here means a real serving regression.
	for _, ep := range sv.Endpoints {
		if ep.QPS < 10000 {
			t.Fatalf("endpoint %s below 10k qps: %.0f", ep.Name, ep.QPS)
		}
	}
	if sv.TotalQPS < 10000 {
		t.Fatalf("total qps %.0f below acceptance floor", sv.TotalQPS)
	}
}
