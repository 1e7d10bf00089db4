package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/core"
)

// writeExampleDataset materializes the paper's Figure-1 graph to disk.
func writeExampleDataset(t *testing.T) (attrs, edges string) {
	t.Helper()
	dir := t.TempDir()
	attrs = filepath.Join(dir, "g.attrs")
	edges = filepath.Join(dir, "g.edges")
	af, err := os.Create(attrs)
	if err != nil {
		t.Fatal(err)
	}
	ef, err := os.Create(edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := scpm.WriteDataset(scpm.PaperExample(), af, ef); err != nil {
		t.Fatal(err)
	}
	af.Close()
	ef.Close()
	return attrs, edges
}

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCLIMinesTable1(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5", "-k", "10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"{A} σ=11 ε=0.818", "{B} σ=6 ε=1.000", "{A B} σ=6 ε=1.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "Q=") != 7 {
		t.Fatalf("expected 7 patterns:\n%s", out)
	}
}

func TestCLINaiveAgrees(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	_, scpmOut, _ := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5", "-k", "10")
	code, naiveOut, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges, "-algo", "naive",
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5", "-k", "10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	// strip the timing line before comparing
	strip := func(s string) string {
		lines := strings.Split(s, "\n")
		var keep []string
		for _, l := range lines {
			if strings.Contains(l, "attribute sets,") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if strip(scpmOut) != strip(naiveOut) {
		t.Fatalf("algorithms disagree:\n%s\nvs\n%s", scpmOut, naiveOut)
	}
}

func TestCLIRankMode(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, _ := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-rank", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"top 2 by σ", "top 2 by ε", "top 2 by δ"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCLIExports(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	csvPrefix := filepath.Join(dir, "out")
	code, _, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5",
		"-json", jsonPath, "-csv", csvPrefix, "-quiet")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, p := range []string{jsonPath, csvPrefix + "-sets.csv", csvPrefix + "-patterns.csv"} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Fatalf("export %s missing or empty: %v", p, err)
		}
	}
}

func TestCLIBFSAndSimModel(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4",
		"-order", "bfs", "-model", "sim:10:7", "-quiet")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "attribute sets") {
		t.Fatalf("no result summary:\n%s", out)
	}
}

func TestCLIAllPatterns(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, _ := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5",
		"-all-patterns")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Count(out, "Q=") != 7 {
		t.Fatalf("SCORP mode should report all 7 patterns:\n%s", out)
	}
}

// TestCLISampledMode checks the -eps-mode plumbing: with a coarse
// sample bound every Figure-1 set has σ above the Hoeffding sample size
// and takes the sampling path, which the NDJSON events must annotate.
func TestCLISampledMode(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-k", "0",
		"-eps-mode", "sampled", "-sample-eps", "0.45", "-sample-delta", "0.4", "-seed", "3",
		"-ndjson")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var estimated, sampledTotal int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ev struct {
			Type            string   `json:"type"`
			Estimated       bool     `json:"estimated"`
			EpsilonErr      *float64 `json:"epsilon_err"`
			Sampled         int      `json:"sampled"`
			SampledVertices int      `json:"sampled_vertices"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		switch ev.Type {
		case "set":
			if ev.Estimated {
				estimated++
				if ev.EpsilonErr == nil || *ev.EpsilonErr != 0.45 || ev.Sampled == 0 {
					t.Fatalf("estimate annotations missing: %s", line)
				}
			}
		case "done":
			sampledTotal = ev.SampledVertices
		}
	}
	if estimated == 0 {
		t.Fatalf("no set took the sampling path:\n%s", out)
	}
	if sampledTotal == 0 {
		t.Fatalf("done event lost the sampled-vertices counter:\n%s", out)
	}
}

// TestCLISampledFallbackMatchesExact: with the default (185-sample)
// bound every Figure-1 set falls back to the exact search, so the
// sampled run's human-readable output matches exact mode exactly.
func TestCLISampledFallbackMatchesExact(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	base := []string{
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5", "-k", "10"}
	_, exactOut, _ := runCLI(t, base...)
	code, sampledOut, errOut := runCLI(t, append(base, "-eps-mode", "sampled", "-seed", "5")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	strip := func(s string) string {
		lines := strings.Split(s, "\n")
		var keep []string
		for _, l := range lines {
			if strings.Contains(l, "attribute sets,") {
				continue
			}
			keep = append(keep, l)
		}
		return strings.Join(keep, "\n")
	}
	if strip(exactOut) != strip(sampledOut) {
		t.Fatalf("fallback output differs:\n%s\nvs\n%s", exactOut, sampledOut)
	}
}

func TestCLIErrors(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	cases := [][]string{
		{},                // missing files
		{"-attrs", attrs}, // missing edges
		{"-attrs", "/nope", "-edges", edges},
		{"-attrs", attrs, "-edges", edges, "-order", "zigzag"},
		{"-attrs", attrs, "-edges", edges, "-algo", "magic"},
		{"-attrs", attrs, "-edges", edges, "-model", "bogus"},
		{"-attrs", attrs, "-edges", edges, "-gamma", "7"},
		{"-attrs", attrs, "-edges", edges, "-eps-mode", "psychic"},
		{"-attrs", attrs, "-edges", edges, "-eps-mode", "sampled", "-sample-eps", "2"},
	}
	for i, args := range cases {
		if code, _, _ := runCLI(t, args...); code == 0 {
			t.Errorf("case %d: expected failure for %v", i, args)
		}
	}
}

func TestCLINDJSONStreams(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-eps", "0.5", "-k", "10",
		"-ndjson")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var sets, pats, done int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ev struct {
			Type     string `json:"type"`
			Canceled bool   `json:"canceled"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q is not JSON: %v", line, err)
		}
		switch ev.Type {
		case "set":
			sets++
		case "pattern":
			pats++
		case "done":
			done++
			if ev.Canceled {
				t.Fatalf("unexpected canceled event: %s", line)
			}
		}
	}
	if sets != 3 || pats != 7 || done != 1 {
		t.Fatalf("got %d sets, %d patterns, %d done events:\n%s", sets, pats, done, out)
	}
}

// TestCLINDJSONInfiniteDelta streams a run where a set's εexp is 0, so
// its δ is +Inf: the stream encodes δ as core.FormatDelta does ("inf")
// instead of failing on a JSON number that cannot hold it.
func TestCLINDJSONInfiniteDelta(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	code, out, errOut := runCLI(t,
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4", "-model", "sim:1:1", "-ndjson")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	sets, inf := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var ev struct {
			Type  string `json:"type"`
			Delta string `json:"delta"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if ev.Type != "set" {
			continue
		}
		sets++
		d, err := core.ParseDelta(ev.Delta)
		if err != nil {
			t.Fatalf("set line %q: δ does not parse: %v", line, err)
		}
		if math.IsInf(d, 1) {
			inf++
		}
	}
	if sets == 0 || inf == 0 {
		t.Fatalf("%d set lines, %d with δ = +Inf; want some of each:\n%s", sets, inf, out)
	}
}

func TestCLICanceledContext(t *testing.T) {
	attrs, edges := writeExampleDataset(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	code := run(ctx, []string{
		"-attrs", attrs, "-edges", edges,
		"-sigma", "3", "-gamma", "0.6", "-minsize", "4"}, &out, &errb)
	if code != 130 {
		t.Fatalf("exit %d, want 130; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "partial results") {
		t.Fatalf("stderr should note partial results: %s", errb.String())
	}
}

func TestCLIVersionFlag(t *testing.T) {
	code, out, _ := runCLI(t, "-version")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "scpm") || !strings.Contains(out, "go1") {
		t.Fatalf("version output %q", out)
	}
}
