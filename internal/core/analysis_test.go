package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/graph"
)

func mineExample(t *testing.T, mutate func(*Params)) (*graph.Graph, *Result) {
	t.Helper()
	g := graph.PaperExample()
	p := paperParams()
	if mutate != nil {
		mutate(&p)
	}
	res, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestAllPatternsMatchesTopKOnExample(t *testing.T) {
	// Table 1 is the COMPLETE pattern set, so SCORP mode must
	// reproduce it too.
	_, topk := mineExample(t, nil)
	_, all := mineExample(t, func(p *Params) { p.AllPatterns = true; p.K = 0 })
	if len(all.Patterns) != len(topk.Patterns) {
		t.Fatalf("AllPatterns %d vs topk %d", len(all.Patterns), len(topk.Patterns))
	}
	for i := range all.Patterns {
		if all.Patterns[i].String() != topk.Patterns[i].String() {
			t.Fatalf("pattern %d differs: %v vs %v", i, all.Patterns[i], topk.Patterns[i])
		}
	}
}

func TestAllPatternsMatchesNaive(t *testing.T) {
	g := randomAttributedGraph(1234, 14)
	p := Params{SigmaMin: 2, Gamma: 0.5, MinSize: 3, AllPatterns: true}
	want, err := mineNaiveBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mineBatch(g, p)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
	if len(got.Patterns) == 0 {
		t.Fatal("expected some patterns")
	}
}

func TestGlobalTopPatterns(t *testing.T) {
	_, res := mineExample(t, nil)
	top := GlobalTopPatterns(res.Patterns, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	// the three 6-sets rank first (size 6 beats size 4)
	for _, p := range top {
		if p.Size() != 6 {
			t.Fatalf("expected size-6 patterns first, got %v", p)
		}
	}
	if got := GlobalTopPatterns(res.Patterns, 100); len(got) != len(res.Patterns) {
		t.Fatal("n beyond len should return all")
	}
}

func TestDedupPatterns(t *testing.T) {
	g, res := mineExample(t, nil)
	// Table 1 has {6..11} three times (for {A}, {B}, {A,B}); dedup at
	// Jaccard 1.0 keeps one of them.
	dedup := DedupPatterns(res.Patterns, g.NumVertices(), 1.0)
	count6 := 0
	for _, p := range dedup {
		if p.Size() == 6 {
			count6++
		}
	}
	if count6 != 1 {
		t.Fatalf("expected one 6-set after dedup, got %d\n%v", count6, dedup)
	}
	// lower threshold also collapses the overlapping 4-sets
	aggressive := DedupPatterns(res.Patterns, g.NumVertices(), 0.3)
	if len(aggressive) >= len(dedup) {
		t.Fatalf("aggressive dedup should drop more: %d vs %d", len(aggressive), len(dedup))
	}
	if len(DedupPatterns(nil, g.NumVertices(), 0.5)) != 0 {
		t.Fatal("empty input")
	}
}

func TestWriteJSON(t *testing.T) {
	g, res := mineExample(t, nil)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Sets []struct {
			Attrs   []string `json:"attrs"`
			Support int      `json:"support"`
			Delta   string   `json:"delta"`
		} `json:"sets"`
		Patterns []struct {
			Vertices []string `json:"vertices"`
			Size     int      `json:"size"`
		} `json:"patterns"`
		Stats struct {
			SetsEmitted int64 `json:"sets_emitted"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Sets) != 3 || len(decoded.Patterns) != 7 {
		t.Fatalf("decoded %d sets, %d patterns", len(decoded.Sets), len(decoded.Patterns))
	}
	if decoded.Stats.SetsEmitted != 3 {
		t.Fatalf("stats: %+v", decoded.Stats)
	}
	for _, p := range decoded.Patterns {
		if len(p.Vertices) != p.Size {
			t.Fatalf("vertex names not resolved: %+v", p)
		}
	}
}

func TestJSONDeltaInf(t *testing.T) {
	if FormatDelta(math.Inf(1)) != "inf" {
		t.Fatal("inf formatting")
	}
	if FormatDelta(2.5) != "2.5" {
		t.Fatal("finite formatting")
	}
}

func TestWriteCSVs(t *testing.T) {
	g, res := mineExample(t, nil)
	var sets, pats bytes.Buffer
	if err := res.WriteSetsCSV(&sets); err != nil {
		t.Fatal(err)
	}
	if err := res.WritePatternsCSV(&pats, g); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sets.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // header + 3 sets
		t.Fatalf("sets csv rows = %d", len(rows))
	}
	if rows[0][0] != "id" || rows[0][1] != "attrs" {
		t.Fatalf("header = %v", rows[0])
	}
	prows, err := csv.NewReader(strings.NewReader(pats.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(prows) != 8 { // header + 7 patterns
		t.Fatalf("patterns csv rows = %d", len(prows))
	}
}
