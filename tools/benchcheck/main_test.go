package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, dataset string, nodes int64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	content := `{
  "schema": "scpm-bench/v7",
  "dataset": "` + dataset + `",
  "runs": [
    {"scale": 0.1, "epsilon_mode": "exact", "wall_ms": 50.0, "search_nodes": ` +
		itoa(nodes) + `, "allocs": 9000}
  ]
}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeShardReport writes a shard-section-only report whose three rows
// (n=1,2,4 on dblp@0.2) carry the given speedups.
func writeShardReport(t *testing.T, dir, name string, speedups [3]float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	content := fmt.Sprintf(`{
  "schema": "scpm-bench/v7",
  "dataset": "shard",
  "shard": {
    "mining": [
      {"dataset": "dblp", "scale": 0.2, "shards": 1, "speedup": %g},
      {"dataset": "dblp", "scale": 0.2, "shards": 2, "speedup": %g},
      {"dataset": "dblp", "scale": 0.2, "shards": 4, "speedup": %g}
    ]
  }
}`, speedups[0], speedups[1], speedups[2])
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// defGates returns the flag defaults, matching main.
func defGates() gates {
	return gates{tolerance: 0.05, shardTolerance: 0.25, bootFloor: 10, bootTolerance: 0.25}
}

// writeBootReport writes a boot-section-only report with two rows: a
// large dblp snapshot (the one facing the hard floor) and a small
// dense one.
func writeBootReport(t *testing.T, dir, name string, dblpSpeedup, denseSpeedup float64, verified bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	content := fmt.Sprintf(`{
  "schema": "scpm-bench/v9",
  "dataset": "boot",
  "boot": {
    "repeats": 5,
    "runs": [
      {"dataset": "dblp", "scale": 0.2, "snapshot_bytes": 26000000, "speedup": %g, "verified": %t},
      {"dataset": "dense", "scale": 0.2, "snapshot_bytes": 112000, "speedup": %g, "verified": %t}
    ]
  }
}`, dblpSpeedup, verified, denseSpeedup, verified)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func itoa(n int64) string {
	var b []byte
	if n == 0 {
		return "0"
	}
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", "dense", 10000)
	cand := writeReport(t, dir, "cand.json", "dense", 10400) // +4%
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err != nil {
		t.Fatalf("within-tolerance growth rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("missing verdict:\n%s", out.String())
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", "dense", 10000)
	cand := writeReport(t, dir, "cand.json", "dense", 10600) // +6%
	var out bytes.Buffer
	err := check(base, cand, defGates(), &out)
	if err == nil {
		t.Fatalf("+6%% search_nodes accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL verdict:\n%s", out.String())
	}
}

func TestCheckImprovementPasses(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", "dense", 10000)
	cand := writeReport(t, dir, "cand.json", "dense", 4000)
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err != nil {
		t.Fatalf("improvement rejected: %v", err)
	}
}

func TestCheckDatasetMismatch(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", "dense", 10000)
	cand := writeReport(t, dir, "cand.json", "dblp", 10000)
	if err := check(base, cand, defGates(), &bytes.Buffer{}); err == nil {
		t.Fatal("dataset mismatch accepted")
	}
}

func TestShardGatePassesWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	base := writeShardReport(t, dir, "base.json", [3]float64{0.95, 1.60, 2.10})
	cand := writeShardReport(t, dir, "cand.json", [3]float64{0.90, 1.30, 1.80}) // −19% at n=2
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err != nil {
		t.Fatalf("within-tolerance speedup decline rejected: %v\n%s", err, out.String())
	}
}

func TestShardGateFailsBelowFloor(t *testing.T) {
	dir := t.TempDir()
	base := writeShardReport(t, dir, "base.json", [3]float64{0.95, 1.60, 2.10})
	// n=2 at 0.98 is within 25% of baseline 1.60? No — but even if the
	// baseline itself were low, the hard floor alone must reject ≤ 1.0.
	floorBase := writeShardReport(t, dir, "floorbase.json", [3]float64{0.95, 1.01, 1.10})
	cand := writeShardReport(t, dir, "cand.json", [3]float64{0.95, 0.98, 1.05})
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err == nil {
		t.Fatalf("2-shard speedup 0.98 accepted:\n%s", out.String())
	}
	out.Reset()
	if err := check(floorBase, cand, gates{tolerance: 0.05, shardTolerance: 0.99, bootFloor: 10, bootTolerance: 0.25}, &out); err == nil {
		t.Fatalf("floor not enforced independently of tolerance:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "floor") {
		t.Fatalf("missing floor verdict:\n%s", out.String())
	}
}

func TestShardGateFailsOnSpeedupRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeShardReport(t, dir, "base.json", [3]float64{0.95, 1.60, 2.10})
	cand := writeShardReport(t, dir, "cand.json", [3]float64{0.95, 1.10, 2.00}) // −31% at n=2
	var out bytes.Buffer
	err := check(base, cand, defGates(), &out)
	if err == nil {
		t.Fatalf("−31%% 2-shard speedup accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL verdict:\n%s", out.String())
	}
}

func TestBootGatePassesAboveFloor(t *testing.T) {
	dir := t.TempDir()
	base := writeBootReport(t, dir, "base.json", 100, 5, true)
	cand := writeBootReport(t, dir, "cand.json", 85, 4.5, true) // −15%, above floor
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err != nil {
		t.Fatalf("within-tolerance boot decline rejected: %v\n%s", err, out.String())
	}
}

func TestBootGateFloorOnlyBindsLargestSnapshot(t *testing.T) {
	dir := t.TempDir()
	base := writeBootReport(t, dir, "base.json", 100, 5, true)
	// dense at 4.5x is below the 10x floor but is the small snapshot —
	// only dblp (the largest) faces the floor.
	cand := writeBootReport(t, dir, "cand.json", 8, 4.5, true)
	var out bytes.Buffer
	if err := check(base, cand, gates{tolerance: 0.05, shardTolerance: 0.25, bootFloor: 10, bootTolerance: 0.95}, &out); err == nil {
		t.Fatalf("largest snapshot below 10x floor accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "floor") {
		t.Fatalf("missing floor verdict:\n%s", out.String())
	}
}

func TestBootGateFailsOnSpeedupRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeBootReport(t, dir, "base.json", 100, 5, true)
	cand := writeBootReport(t, dir, "cand.json", 40, 4.5, true) // −60% on dblp
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err == nil {
		t.Fatalf("−60%% boot speedup accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL verdict:\n%s", out.String())
	}
}

func TestBootGateRequiresVerification(t *testing.T) {
	dir := t.TempDir()
	base := writeBootReport(t, dir, "base.json", 100, 5, true)
	cand := writeBootReport(t, dir, "cand.json", 100, 5, false)
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err == nil {
		t.Fatalf("unverified boot rows accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cross-checked") {
		t.Fatalf("missing verification verdict:\n%s", out.String())
	}
}

func TestBootGateFailsWhenMmapSlower(t *testing.T) {
	dir := t.TempDir()
	base := writeBootReport(t, dir, "base.json", 100, 5, true)
	cand := writeBootReport(t, dir, "cand.json", 90, 0.8, true) // dense lazy boot slower
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err == nil {
		t.Fatalf("lazy-slower-than-full row accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "lazy boot must beat the full boot") {
		t.Fatalf("missing floor verdict:\n%s", out.String())
	}
}

// bootRuns writes one boot report per dblp speedup, dense at 5x, and
// returns their paths comma-separated.
func bootRuns(t *testing.T, dir string, verified []bool, dblp ...float64) string {
	t.Helper()
	paths := make([]string, len(dblp))
	for i, sp := range dblp {
		paths[i] = writeBootReport(t, dir, fmt.Sprintf("cand%d.json", i), sp, 5, verified[i])
	}
	return strings.Join(paths, ",")
}

func TestBootGateOnMedianOfRuns(t *testing.T) {
	dir := t.TempDir()
	base := writeBootReport(t, dir, "base.json", 100, 5, true)
	all := []bool{true, true, true}
	// One run at −40% alone would fail; the median run is at −5%.
	var out bytes.Buffer
	if err := check(base, bootRuns(t, dir, all, 60, 100, 95), defGates(), &out); err != nil {
		t.Fatalf("median within tolerance rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "60.0x 95.0x 100.0x: median 95.0x") {
		t.Fatalf("missing median line:\n%s", out.String())
	}
	// Two runs at −30% or worse put the median below the tolerance.
	out.Reset()
	if err := check(base, bootRuns(t, dir, all, 60, 100, 70), defGates(), &out); err == nil {
		t.Fatalf("median at −30%% accepted:\n%s", out.String())
	}
	// A row one run failed to cross-check fails, whatever the median.
	out.Reset()
	if err := check(base, bootRuns(t, dir, []bool{true, false, true}, 100, 100, 100), defGates(), &out); err == nil {
		t.Fatalf("row unverified in one run accepted:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cross-checked") {
		t.Fatalf("missing verification verdict:\n%s", out.String())
	}
}

func TestSeveralCandidatesOnlyForBootReports(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", "dblp", 1000)
	cands := writeReport(t, dir, "a.json", "dblp", 1000) + "," + writeReport(t, dir, "b.json", "dblp", 1000)
	var out bytes.Buffer
	if err := check(base, cands, defGates(), &out); err == nil || !strings.Contains(err.Error(), "only boot reports") {
		t.Fatalf("several search-node candidates: err = %v, want the boot-only refusal", err)
	}
}

func TestShardGateNewRowFloorOnly(t *testing.T) {
	dir := t.TempDir()
	base := writeShardReport(t, dir, "base.json", [3]float64{0.95, 1.60, 2.10})
	path := filepath.Join(dir, "cand.json")
	content := `{
  "schema": "scpm-bench/v7",
  "dataset": "shard",
  "shard": {
    "mining": [
      {"dataset": "dense", "scale": 0.3, "shards": 2, "speedup": 1.4}
    ]
  }
}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := check(base, path, defGates(), &out); err != nil {
		t.Fatalf("new shard row above floor rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new row") {
		t.Fatalf("missing new-row note:\n%s", out.String())
	}
}

// writeAnswerReport writes a dblp report whose single exact run carries
// the given search nodes and answer columns.
func writeAnswerReport(t *testing.T, dir, name string, nodes, sets, patterns, evaluated int64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	content := fmt.Sprintf(`{
  "schema": "scpm-bench/v7",
  "dataset": "dblp",
  "runs": [
    {"scale": 0.1, "epsilon_mode": "exact", "wall_ms": 200.0, "sets": %d, "patterns": %d,
     "sets_evaluated": %d, "search_nodes": %d, "allocs": 9000}
  ]
}`, sets, patterns, evaluated, nodes)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnswerGatePassesWhenIdentical(t *testing.T) {
	dir := t.TempDir()
	base := writeAnswerReport(t, dir, "base.json", 5484, 31388, 60, 31550)
	cand := writeAnswerReport(t, dir, "cand.json", 5484, 31388, 60, 31550)
	var out bytes.Buffer
	if err := check(base, cand, defGates(), &out); err != nil {
		t.Fatalf("identical answers rejected: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "FAIL") {
		t.Fatalf("unexpected FAIL verdict:\n%s", out.String())
	}
}

// TestAnswerGateFailsOnAnyChange: a change to any answer column fails,
// in either direction, even when the run searched less than the
// baseline.
func TestAnswerGateFailsOnAnyChange(t *testing.T) {
	cases := map[string][3]int64{
		"fewer sets":           {31387, 60, 31550},
		"more sets":            {31389, 60, 31550},
		"fewer patterns":       {31388, 59, 31550},
		"more sets evaluated":  {31388, 60, 31551},
		"fewer sets evaluated": {31388, 60, 31549},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeAnswerReport(t, dir, "base.json", 5484, 31388, 60, 31550)
			cand := writeAnswerReport(t, dir, "cand.json", 4000, c[0], c[1], c[2])
			var out bytes.Buffer
			err := check(base, cand, defGates(), &out)
			if err == nil {
				t.Fatalf("changed answers accepted:\n%s", out.String())
			}
			if !strings.Contains(out.String(), "answers changed") {
				t.Fatalf("missing answers verdict:\n%s", out.String())
			}
		})
	}
}
