package core

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

// roundTripResult mines the paper example in the requested mode and
// fabricates the edge cases the export schema must carry (an infinite δ
// and, in sampled runs, the Estimated/EpsilonErr annotations from PR 3).
func roundTripResult(t *testing.T, sampled bool) (*Result, func()) {
	t.Helper()
	_, res := mineExample(t, func(p *Params) {
		if sampled {
			// Force the sampling estimator to engage on the tiny example:
			// a huge half-width makes the Hoeffding sample smaller than
			// every support.
			p.EpsilonMode = EpsilonSampled
			p.SampleEps = 0.9
			p.SampleDelta = 0.5
			p.Seed = 42
		}
	})
	if len(res.Sets) == 0 || len(res.Patterns) == 0 {
		t.Fatal("example mining produced no output")
	}
	res.Sets[0].Delta = math.Inf(1) // exercise the "inf" encoding
	return res, func() {}
}

// exportedSet is the projection of AttributeSet that crosses the export
// boundary (ids are resolved to names there, so Attrs is not compared).
type exportedSet struct {
	id         string
	names      []string
	support    int
	epsilon    float64
	expEps     float64
	delta      float64
	covered    int
	estimated  bool
	epsilonErr float64
	sampled    int
}

func projectSet(s AttributeSet) exportedSet {
	return exportedSet{
		id: s.ID(), names: s.Names, support: s.Support,
		epsilon: s.Epsilon, expEps: s.ExpEps, delta: s.Delta,
		covered: s.Covered, estimated: s.Estimated,
		epsilonErr: s.EpsilonErr, sampled: s.SampledVertices,
	}
}

func sameExportedSet(a, b exportedSet) bool {
	if a.id != b.id || strings.Join(a.names, "\x00") != strings.Join(b.names, "\x00") {
		return false
	}
	if a.support != b.support || a.covered != b.covered || a.estimated != b.estimated || a.sampled != b.sampled {
		return false
	}
	sameF := func(x, y float64) bool {
		if math.IsInf(x, 1) || math.IsInf(y, 1) {
			return math.IsInf(x, 1) && math.IsInf(y, 1)
		}
		return x == y
	}
	return sameF(a.epsilon, b.epsilon) && sameF(a.expEps, b.expEps) &&
		sameF(a.delta, b.delta) && sameF(a.epsilonErr, b.epsilonErr)
}

func parseDelta(t *testing.T, s string) float64 {
	t.Helper()
	v, err := ParseDelta(s)
	if err != nil {
		t.Fatalf("bad delta %q: %v", s, err)
	}
	return v
}

func testJSONRoundTrip(t *testing.T, sampled bool) {
	g, _ := mineExample(t, nil)
	res, done := roundTripResult(t, sampled)
	defer done()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Sets []struct {
			ID         string   `json:"id"`
			Attrs      []string `json:"attrs"`
			Support    int      `json:"support"`
			Epsilon    float64  `json:"epsilon"`
			ExpEps     float64  `json:"expected_epsilon"`
			Delta      string   `json:"delta"`
			Covered    int      `json:"covered"`
			Estimated  bool     `json:"estimated"`
			EpsilonErr float64  `json:"epsilon_err"`
			Sampled    int      `json:"sampled_vertices"`
		} `json:"sets"`
		Patterns []struct {
			ID          string   `json:"id"`
			SetID       string   `json:"set"`
			Attrs       []string `json:"attrs"`
			Vertices    []string `json:"vertices"`
			Size        int      `json:"size"`
			Density     float64  `json:"density"`
			EdgeDensity float64  `json:"edge_density"`
			Edges       int      `json:"edges"`
		} `json:"patterns"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.Sets) != len(res.Sets) || len(decoded.Patterns) != len(res.Patterns) {
		t.Fatalf("decoded %d sets / %d patterns, want %d / %d",
			len(decoded.Sets), len(decoded.Patterns), len(res.Sets), len(res.Patterns))
	}
	for i, d := range decoded.Sets {
		got := exportedSet{
			id: d.ID, names: d.Attrs, support: d.Support,
			epsilon: d.Epsilon, expEps: d.ExpEps, delta: parseDelta(t, d.Delta),
			covered: d.Covered, estimated: d.Estimated,
			epsilonErr: d.EpsilonErr, sampled: d.Sampled,
		}
		if want := projectSet(res.Sets[i]); !sameExportedSet(got, want) {
			t.Fatalf("set %d: got %+v want %+v", i, got, want)
		}
	}
	for i, d := range decoded.Patterns {
		p := res.Patterns[i]
		if d.ID != p.ID() || d.SetID != p.SetID() {
			t.Fatalf("pattern %d ids: got (%s,%s) want (%s,%s)", i, d.ID, d.SetID, p.ID(), p.SetID())
		}
		if strings.Join(d.Attrs, ",") != strings.Join(p.Names, ",") {
			t.Fatalf("pattern %d attrs: %v vs %v", i, d.Attrs, p.Names)
		}
		if strings.Join(d.Vertices, ",") != strings.Join(p.VertexNames(g), ",") {
			t.Fatalf("pattern %d vertices: %v", i, d.Vertices)
		}
		if d.Size != p.Size() || d.Density != p.Density() || d.EdgeDensity != p.EdgeDensity() || d.Edges != p.Edges {
			t.Fatalf("pattern %d metrics differ: %+v", i, d)
		}
	}
}

func TestJSONExportRoundTrip(t *testing.T)        { testJSONRoundTrip(t, false) }
func TestJSONExportRoundTripSampled(t *testing.T) { testJSONRoundTrip(t, true) }

func testCSVRoundTrip(t *testing.T, sampled bool) {
	g, _ := mineExample(t, nil)
	res, done := roundTripResult(t, sampled)
	defer done()

	var sets bytes.Buffer
	if err := res.WriteSetsCSV(&sets); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sets.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := "id,attrs,support,epsilon,expected_epsilon,delta,covered,estimated,epsilon_err"
	if got := strings.Join(rows[0], ","); got != wantHeader {
		t.Fatalf("sets header = %q", got)
	}
	if len(rows)-1 != len(res.Sets) {
		t.Fatalf("sets csv has %d rows, want %d", len(rows)-1, len(res.Sets))
	}
	mustFloat := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad float %q: %v", s, err)
		}
		return v
	}
	mustInt := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad int %q: %v", s, err)
		}
		return v
	}
	for i, row := range rows[1:] {
		got := exportedSet{
			id: row[0], names: strings.Fields(row[1]), support: mustInt(row[2]),
			epsilon: mustFloat(row[3]), expEps: mustFloat(row[4]), delta: parseDelta(t, row[5]),
			covered: mustInt(row[6]), estimated: row[7] == "true",
			epsilonErr: mustFloat(row[8]), sampled: res.Sets[i].SampledVertices,
		}
		if want := projectSet(res.Sets[i]); !sameExportedSet(got, want) {
			t.Fatalf("set row %d: got %+v want %+v", i, got, want)
		}
	}

	var pats bytes.Buffer
	if err := res.WritePatternsCSV(&pats, g); err != nil {
		t.Fatal(err)
	}
	prows, err := csv.NewReader(strings.NewReader(pats.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(prows[0], ","); got != "id,set,attrs,vertices,size,density,edge_density" {
		t.Fatalf("patterns header = %q", got)
	}
	if len(prows)-1 != len(res.Patterns) {
		t.Fatalf("patterns csv has %d rows, want %d", len(prows)-1, len(res.Patterns))
	}
	for i, row := range prows[1:] {
		p := res.Patterns[i]
		if row[0] != p.ID() || row[1] != p.SetID() {
			t.Fatalf("pattern row %d ids: %v", i, row[:2])
		}
		if strings.Join(strings.Fields(row[2]), ",") != strings.Join(p.Names, ",") {
			t.Fatalf("pattern row %d attrs: %q", i, row[2])
		}
		if strings.Join(strings.Fields(row[3]), ",") != strings.Join(p.VertexNames(g), ",") {
			t.Fatalf("pattern row %d vertices: %q", i, row[3])
		}
		if mustInt(row[4]) != p.Size() || mustFloat(row[5]) != p.Density() || mustFloat(row[6]) != p.EdgeDensity() {
			t.Fatalf("pattern row %d metrics: %v", i, row)
		}
	}
}

func TestCSVExportRoundTrip(t *testing.T)        { testCSVRoundTrip(t, false) }
func TestCSVExportRoundTripSampled(t *testing.T) { testCSVRoundTrip(t, true) }

// TestStableIDs pins the identifier contract: order-independent over
// names, stable across runs, distinct across sets.
func TestStableIDs(t *testing.T) {
	if SetID([]string{"b", "a"}) != SetID([]string{"a", "b"}) {
		t.Fatal("SetID must be order-independent")
	}
	if SetID([]string{"a"}) == SetID([]string{"b"}) {
		t.Fatal("distinct sets must get distinct ids")
	}
	if len(SetID(nil)) != 16 {
		t.Fatalf("id length = %d, want 16", len(SetID(nil)))
	}
	_, res1 := mineExample(t, nil)
	_, res2 := mineExample(t, nil)
	for i := range res1.Sets {
		if res1.Sets[i].ID() != res2.Sets[i].ID() {
			t.Fatal("set ids must be stable across runs")
		}
	}
	for i := range res1.Patterns {
		if res1.Patterns[i].ID() != res2.Patterns[i].ID() {
			t.Fatal("pattern ids must be stable across runs")
		}
		if res1.Patterns[i].SetID() != SetID(res1.Patterns[i].Names) {
			t.Fatal("pattern SetID must match its set's id")
		}
	}
}
