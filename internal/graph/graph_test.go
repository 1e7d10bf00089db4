package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder()
	v0, err := b.AddVertex("alice", "go", "db")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := b.AddVertex("bob", "go")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(v0, v1); err != nil {
		t.Fatal(err)
	}
	// duplicate edge + reversed edge should collapse to one
	if err := b.AddEdge(v1, v0); err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)

	if g.NumVertices() != 2 || g.NumEdges() != 1 || g.NumAttributes() != 2 {
		t.Fatalf("got %v", g)
	}
	if !g.HasEdge(v0, v1) || !g.HasEdge(v1, v0) {
		t.Fatal("edge missing")
	}
	if g.Degree(v0) != 1 || g.Degree(v1) != 1 {
		t.Fatal("degree wrong")
	}
	goID, ok := g.AttrID("go")
	if !ok || g.AttrSupport(goID) != 2 {
		t.Fatalf("go support = %d", g.AttrSupport(goID))
	}
	dbID, _ := g.AttrID("db")
	if g.AttrSupport(dbID) != 1 {
		t.Fatal("db support wrong")
	}
	if _, ok := g.AttrID("nope"); ok {
		t.Fatal("unknown attr resolved")
	}
	if id, ok := g.VertexID("alice"); !ok || id != v0 {
		t.Fatal("VertexID failed")
	}
	if _, ok := g.VertexID("nope"); ok {
		t.Fatal("unknown vertex resolved")
	}
	if g.VertexName(v1) != "bob" {
		t.Fatal("VertexName failed")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddVertex("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddVertex("x"); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if err := b.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(0, 5); err == nil {
		t.Fatal("dangling edge accepted")
	}
	if _, err := b.AddVertexAttrIDs("y", []int32{99}); err == nil {
		t.Fatal("unknown attribute id accepted")
	}
}

func TestVertexAttrsDeduped(t *testing.T) {
	b := NewBuilder()
	a := b.InternAttr("a")
	c := b.InternAttr("c")
	if _, err := b.AddVertexAttrIDs("v", []int32{c, a, a, c}); err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	got := g.VertexAttrs(0)
	want := []int32{a, c}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attrs = %v, want %v", got, want)
	}
}

func TestPaperExampleShape(t *testing.T) {
	g := PaperExample()
	if g.NumVertices() != 11 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	if g.NumEdges() != 19 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	if g.NumAttributes() != 5 {
		t.Fatalf("|A| = %d", g.NumAttributes())
	}
	a, _ := g.AttrID("A")
	bAttr, _ := g.AttrID("B")
	c, _ := g.AttrID("C")
	if g.AttrSupport(a) != 11 || g.AttrSupport(bAttr) != 6 || g.AttrSupport(c) != 3 {
		t.Fatalf("supports: A=%d B=%d C=%d",
			g.AttrSupport(a), g.AttrSupport(bAttr), g.AttrSupport(c))
	}
}

func TestMembersAndSupport(t *testing.T) {
	g := PaperExample()
	a, _ := g.AttrID("A")
	bAttr, _ := g.AttrID("B")
	ab := []int32{a, bAttr}
	if got := g.Support(ab); got != 6 {
		t.Fatalf("σ({A,B}) = %d, want 6", got)
	}
	members := g.Members(ab)
	for _, name := range []string{"6", "7", "8", "9", "10", "11"} {
		id, _ := g.VertexID(name)
		if !members.Contains(int(id)) {
			t.Fatalf("vertex %s missing from V({A,B})", name)
		}
	}
	if g.Members(nil).Count() != 11 {
		t.Fatal("empty S should induce all vertices")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := PaperExample()
	a, _ := g.AttrID("A")
	bAttr, _ := g.AttrID("B")
	sg := g.InducedByAttrs([]int32{a, bAttr})
	if sg.NumVertices() != 6 {
		t.Fatalf("induced |V| = %d", sg.NumVertices())
	}
	// the induced graph on {6..11} has exactly 9 edges
	if sg.NumEdges() != 9 {
		t.Fatalf("induced |E| = %d, want 9", sg.NumEdges())
	}
	for i := int32(0); i < int32(sg.NumVertices()); i++ {
		if sg.Degree(i) != 3 {
			t.Fatalf("vertex %s degree %d, want 3",
				g.VertexName(sg.Orig[i]), sg.Degree(i))
		}
	}
	// local ids follow ascending orig ids
	for i := 1; i < len(sg.Orig); i++ {
		if sg.Orig[i-1] >= sg.Orig[i] {
			t.Fatal("Orig not ascending")
		}
	}
	v6, _ := g.VertexID("6")
	if sg.LocalOf(v6) != 0 {
		t.Fatalf("LocalOf(6) = %d", sg.LocalOf(v6))
	}
	v1, _ := g.VertexID("1")
	if sg.LocalOf(v1) != -1 {
		t.Fatal("LocalOf(nonmember) should be -1")
	}
}

func TestInducedByVertices(t *testing.T) {
	g := PaperExample()
	ids := func(names ...string) []int32 {
		out := make([]int32, len(names))
		for i, n := range names {
			id, ok := g.VertexID(n)
			if !ok {
				t.Fatalf("no vertex %s", n)
			}
			out[i] = id
		}
		return out
	}
	sg := g.InducedByVertices(ids("3", "4", "5", "6"))
	if sg.NumVertices() != 4 || sg.NumEdges() != 6 {
		t.Fatalf("clique induced: |V|=%d |E|=%d", sg.NumVertices(), sg.NumEdges())
	}
}

func TestRestrictTo(t *testing.T) {
	g := PaperExample()
	all := g.Members(nil)
	sg := g.InducedByMembers(all)
	keep := sg.OrigSet(g.NumVertices()) // same ids since whole graph
	// drop vertices 1 and 2 (local = orig here)
	keep.Remove(0)
	keep.Remove(1)
	rs := sg.RestrictTo(keep)
	if rs.NumVertices() != 9 {
		t.Fatalf("restricted |V| = %d", rs.NumVertices())
	}
	// edges 1-2, 1-3, 2-3 are gone: 19-3 = 16
	if rs.NumEdges() != 16 {
		t.Fatalf("restricted |E| = %d, want 16", rs.NumEdges())
	}
}

func TestDegreeStats(t *testing.T) {
	g := PaperExample()
	h := g.DegreeHistogram()
	if h.Total != 11 {
		t.Fatalf("histogram total = %d", h.Total)
	}
	if g.MaxDegree() != 6 {
		t.Fatalf("max degree = %d, want 6 (vertex 6)", g.MaxDegree())
	}
	want := 2 * 19.0 / 11.0
	if got := g.AvgDegree(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("avg degree = %v, want %v", got, want)
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	g := PaperExample()
	var ab, eb bytes.Buffer
	if err := WriteDataset(g, &ab, &eb); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDataset(bytes.NewReader(ab.Bytes()), bytes.NewReader(eb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() ||
		g2.NumAttributes() != g.NumAttributes() {
		t.Fatalf("round trip mismatch: %v vs %v", g2, g)
	}
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		name := g.VertexName(v)
		v2, ok := g2.VertexID(name)
		if !ok {
			t.Fatalf("vertex %s lost", name)
		}
		if g2.Degree(v2) != g.Degree(v) {
			t.Fatalf("vertex %s degree changed", name)
		}
		if len(g2.VertexAttrs(v2)) != len(g.VertexAttrs(v)) {
			t.Fatalf("vertex %s attrs changed", name)
		}
	}
}

func TestReadDatasetErrors(t *testing.T) {
	_, err := ReadDataset(strings.NewReader("v1 a\nv1 b\n"), strings.NewReader(""))
	if err == nil {
		t.Fatal("duplicate vertex not rejected")
	}
	_, err = ReadDataset(strings.NewReader("v1 a\n"), strings.NewReader("v1\n"))
	if err == nil {
		t.Fatal("malformed edge not rejected")
	}
	_, err = ReadDataset(strings.NewReader("v1 a\n"), strings.NewReader("v1 v1\n"))
	if err == nil {
		t.Fatal("self-loop not rejected")
	}
}

func TestReadDatasetCommentsAndDanglingVertices(t *testing.T) {
	attrs := "# comment\nv1 a b\n\nv2 a\n"
	edges := "# comment\nv1 v3\n"
	g, err := ReadDataset(strings.NewReader(attrs), strings.NewReader(edges))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("|V| = %d, want 3 (v3 auto-created)", g.NumVertices())
	}
	v3, ok := g.VertexID("v3")
	if !ok || len(g.VertexAttrs(v3)) != 0 {
		t.Fatal("v3 should exist without attributes")
	}
}

func TestWriteDatasetRejectsWhitespaceNames(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddVertex("has space", "a"); err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	var ab, eb bytes.Buffer
	if err := WriteDataset(g, &ab, &eb); err == nil {
		t.Fatal("whitespace vertex name not rejected")
	}
}

// randomGraph builds a deterministic Erdős–Rényi-ish graph for property
// tests.
func randomGraph(seed int64, n int, p float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		attrs := []string{"base"}
		if rng.Float64() < 0.5 {
			attrs = append(attrs, "x")
		}
		if rng.Float64() < 0.3 {
			attrs = append(attrs, "y")
		}
		if _, err := b.AddVertex("v"+itoa(i+1), attrs...); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := b.AddEdge(int32(i), int32(j)); err != nil {
					panic(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestQuickInducedMatchesDefinition(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 0.2)
		x, _ := g.AttrID("x")
		y, _ := g.AttrID("y")
		S := []int32{x, y}
		members := g.Members(S)
		sg := g.InducedByAttrs(S)
		if sg.NumVertices() != members.Count() {
			return false
		}
		// every induced edge must exist in G between members, and every
		// G-edge between members must appear induced.
		for li, v := range sg.Orig {
			deg := 0
			for _, u := range g.Neighbors(v) {
				if members.Contains(int(u)) {
					deg++
				}
			}
			if deg != sg.Degree(int32(li)) {
				return false
			}
			for _, lu := range sg.Neighbors(int32(li)) {
				if !g.HasEdge(v, sg.Orig[lu]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSupportAntiMonotone(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 0.1)
		base, _ := g.AttrID("base")
		x, _ := g.AttrID("x")
		y, _ := g.AttrID("y")
		s1 := g.Support([]int32{x})
		s2 := g.Support([]int32{x, y})
		s3 := g.Support([]int32{x, y, base})
		return s1 >= s2 && s2 >= s3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
