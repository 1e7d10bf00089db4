package shard

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
)

func TestManifestRoundTrip(t *testing.T) {
	g := testGraph(t, 1234)
	snaps := []string{"s0.scpmidx", "s1.scpmidx", "s2.scpmidx"}
	m, err := BuildManifest(g, 20, 3, snaps)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("fresh manifest fails verification: %v", err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 3 || got.SigmaMin != 20 || len(got.Snapshots) != 3 {
		t.Fatalf("round-trip mangled manifest: %+v", got)
	}
	if got.Vertices != g.NumVertices() || got.Edges != g.NumEdges() || got.Attributes != g.NumAttributes() {
		t.Fatalf("round-trip mangled dataset shape: %+v", got)
	}
	if len(got.Roots) == 0 {
		t.Fatal("manifest lists no frequent roots")
	}
	for i, r := range got.Roots {
		if r.Rank != i {
			t.Fatalf("root %d has rank %d", i, r.Rank)
		}
		if i > 0 {
			prev := got.Roots[i-1]
			if r.Support < prev.Support || (r.Support == prev.Support && r.ID < prev.ID) {
				t.Fatalf("roots not in extension order at rank %d: %+v after %+v", i, r, prev)
			}
		}
	}
}

func TestManifestChecksumTamper(t *testing.T) {
	g := testGraph(t, 1235)
	m, err := BuildManifest(g, 20, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a shard assignment without resealing.
	tampered := strings.Replace(string(b), `"shard": 0`, `"shard": 1`, 1)
	if tampered == string(b) {
		t.Fatal("test graph produced no shard-0 root to tamper with")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("LoadManifest accepted a tampered manifest (err=%v)", err)
	}
}

// TestManifestRouting asserts the gateway's routing contract: every
// set a shard's mining run emits routes (by its attribute names) back
// to exactly that shard.
func TestManifestRouting(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 1236)
	p := testParams()["exact"]
	const n = 3
	m, err := BuildManifest(g, p.SigmaMin, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for k := 0; k < n; k++ {
		res, err := Mine(ctx, g, p, k, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Sets {
			if got := m.Route(s.Names); got != k {
				t.Fatalf("set %v mined by shard %d but routed to %d", s.Names, k, got)
			}
			routed++
		}
	}
	if routed == 0 {
		t.Fatal("no sets mined; routing property vacuous")
	}
	// Sets with no frequent attribute route deterministically in range.
	s1 := m.Route([]string{"no-such-attr"})
	s2 := m.Route([]string{"no-such-attr"})
	if s1 != s2 || s1 < 0 || s1 >= n {
		t.Fatalf("hash routing unstable or out of range: %d, %d", s1, s2)
	}
}

// TestManifestSealedRoundTrip covers the v2 format end to end, in
// exact and sampled ε modes: Write→Load→Write is byte-identical (the
// seal is canonical), the reconstructed verdicts drive a sharded mine
// to the bit-identical single-process answer under the Owner of the
// manifest's plan, and the run reports the replayed level-1
// evaluations.
func TestManifestSealedRoundTrip(t *testing.T) {
	ctx := context.Background()
	for mode, p := range testParams() {
		t.Run(mode, func(t *testing.T) {
			g := testGraph(t, 2401)
			const n = 2
			m, err := BuildManifestSealed(ctx, g, p, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Format != ManifestFormatV2 {
				t.Fatalf("sealed manifest format %q, want %q", m.Format, ManifestFormatV2)
			}
			if m.Level1 == nil || len(m.Level1.Verdicts) != len(m.Roots) {
				t.Fatalf("sealed manifest carries %d verdicts for %d roots", len(m.Level1.Verdicts), len(m.Roots))
			}
			if want := p.Level1Fingerprint(); m.Level1.ParamsKey != want {
				t.Fatalf("sealed params key %q, want %q", m.Level1.ParamsKey, want)
			}

			dir := t.TempDir()
			p1 := filepath.Join(dir, "m1.json")
			p2 := filepath.Join(dir, "m2.json")
			if err := WriteManifest(m, p1); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadManifest(p1)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteManifest(loaded, p2); err != nil {
				t.Fatal(err)
			}
			b1, err := os.ReadFile(p1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := os.ReadFile(p2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatal("Write→Load→Write is not byte-identical")
			}

			verdicts, err := loaded.Level1Verdicts(g)
			if err != nil {
				t.Fatal(err)
			}
			if verdicts == nil || verdicts.Len() != len(m.Roots) {
				t.Fatalf("reconstructed %v verdicts, want %d", verdicts, len(m.Roots))
			}

			want, err := core.Mine(ctx, g, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*core.Result, n)
			for k := 0; k < n; k++ {
				pk := p
				pk.ShardOwner = Owner(loaded.SigmaMin, k, loaded.Shards)
				pk.Level1Verdicts = verdicts
				if parts[k], err = core.Mine(ctx, g, pk, nil); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := core.MergeResults(parts...)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, mode, merged, want)
			requireEqualStats(t, mode, merged.Stats, want.Stats)
			if merged.Stats.ReusedVerdicts == 0 {
				t.Fatal("sharded mine with sealed verdicts replayed nothing")
			}
		})
	}
}

// TestManifestV1Compat pins the legacy path: a v1 manifest still
// loads, reconstructs no verdicts, and its plan's Owner routes a sharded mine
// that re-evaluates level 1 to the identical single-process answer.
func TestManifestV1Compat(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 2402)
	p := testParams()["exact"]
	const n = 2
	m, err := BuildManifest(g, p.SigmaMin, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Format != ManifestFormatV1 {
		t.Fatalf("BuildManifest format %q, want %q", m.Format, ManifestFormatV1)
	}
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := loaded.Level1Verdicts(g); err != nil || v != nil {
		t.Fatalf("v1 manifest reconstructed verdicts %v (err=%v), want none", v, err)
	}
	want, err := core.Mine(ctx, g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*core.Result, n)
	for k := 0; k < n; k++ {
		pk := p
		pk.ShardOwner = Owner(loaded.SigmaMin, k, loaded.Shards)
		if parts[k], err = core.Mine(ctx, g, pk, nil); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := core.MergeResults(parts...)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "v1", merged, want)
	requireEqualStats(t, "v1", merged.Stats, want.Stats)
	if merged.Stats.ReusedVerdicts != 0 {
		t.Fatalf("v1 path claims %d replayed verdicts", merged.Stats.ReusedVerdicts)
	}
}

// TestManifestCorruptedSealRejected covers the v2 integrity guards: a
// bit flipped inside the sealed payload fails the checksum, and the
// structural invariants (marker vs payload, verdict count) are each
// enforced.
func TestManifestCorruptedSealRejected(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 2403)
	p := testParams()["exact"]
	m, err := BuildManifestSealed(ctx, g, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v2.json")
	if err := WriteManifest(m, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(b), `"params_key": "`, `"params_key": "X`, 1)
	if tampered == string(b) {
		t.Fatal("no params_key found to tamper with")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("LoadManifest accepted a corrupted seal (err=%v)", err)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"v2 without payload", func(c *Manifest) { c.Level1 = nil }},
		{"v1 with payload", func(c *Manifest) { c.Format = ManifestFormatV1 }},
		{"verdict count mismatch", func(c *Manifest) {
			c.Level1 = &SealedLevel1{ParamsKey: m.Level1.ParamsKey, Verdicts: m.Level1.Verdicts[:len(m.Level1.Verdicts)-1]}
		}},
	} {
		c := *m
		tc.mutate(&c)
		c.Seal()
		if err := c.Verify(); err == nil {
			t.Errorf("%s: Verify accepted it", tc.name)
		}
	}
}

// TestSealRejectsForeignVerdicts pins SealLevel1's version guard.
func TestSealRejectsForeignVerdicts(t *testing.T) {
	ctx := context.Background()
	g := testGraph(t, 2404)
	p := testParams()["exact"]
	m, err := BuildManifest(g, p.SigmaMin, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.ComputeLevel1(ctx, g, p)
	if err != nil {
		t.Fatal(err)
	}
	m.GraphVersion++
	if err := m.SealLevel1(v); err == nil {
		t.Fatal("SealLevel1 accepted verdicts from another graph version")
	}
	m.GraphVersion--
	if err := m.SealLevel1(v); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("freshly sealed manifest fails verification: %v", err)
	}
}

// TestSealRejectsRebuiltGraph pins the seal's shape guard. A graph
// rebuilt from other data restarts at the sealed graph version, so the
// version alone cannot tell it from the planned graph: with the edges
// of vertex id 5 (named "6") removed from the paper example (19 edges
// → 13, still version 1), replaying the seal would report the planned
// ε({A}) = 9/11 where a fresh mine finds 4/11. Each rebuilt graph must
// fail with an error.
func TestSealRejectsRebuiltGraph(t *testing.T) {
	ctx := context.Background()
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, K: 10}
	m, err := BuildManifestSealed(ctx, g, p, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.Level1Verdicts(g); err != nil || v == nil {
		t.Fatalf("planned graph: verdicts %v, err %v", v, err)
	}
	rebuild := func(keepEdge func(u, w string) bool, attrsOf func(v string, attrs []string) []string) *graph.Graph {
		t.Helper()
		b := graph.NewBuilder()
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			name := g.VertexName(v)
			if _, err := b.AddVertex(name, attrsOf(name, g.AttrSetNames(g.VertexAttrs(v)))...); err != nil {
				t.Fatal(err)
			}
		}
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			for _, w := range g.Neighbors(u) {
				if u < w && keepEdge(g.VertexName(u), g.VertexName(w)) {
					if err := b.AddEdge(u, w); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		ng, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if ng.Version() != m.GraphVersion {
			t.Fatalf("rebuilt graph at version %d, seal at %d", ng.Version(), m.GraphVersion)
		}
		return ng
	}
	allEdges := func(u, w string) bool { return true }
	sameAttrs := func(v string, attrs []string) []string { return attrs }
	noSix := rebuild(func(u, w string) bool { return u != "6" && w != "6" }, sameAttrs)
	if noSix.NumEdges() != 13 {
		t.Fatalf("rebuilt graph has %d edges, want 13", noSix.NumEdges())
	}
	for name, bad := range map[string]*graph.Graph{
		"edges": noSix,
		"attr table": rebuild(allEdges, func(v string, attrs []string) []string {
			return strings.Fields(strings.ReplaceAll(strings.Join(attrs, " "), "B", "F"))
		}),
		"root support": rebuild(allEdges, func(v string, attrs []string) []string {
			if v == "2" {
				return nil
			}
			return attrs
		}),
	} {
		if v, err := m.Level1Verdicts(bad); err == nil {
			t.Errorf("%s: seal accepted for a rebuilt graph (%d verdicts)", name, v.Len())
		}
	}
}

func TestManifestErrors(t *testing.T) {
	g := testGraph(t, 1237)
	if _, err := BuildManifest(g, 20, 2, []string{"only-one"}); err == nil {
		t.Error("BuildManifest accepted 1 snapshot path for 2 shards")
	}
	if _, err := BuildManifest(g, 0, 2, nil); err == nil {
		t.Error("BuildManifest accepted sigmaMin=0")
	}
	m, err := BuildManifest(g, 20, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Format = "bogus/v9"
	if err := m.Verify(); err == nil {
		t.Error("Verify accepted a bogus format marker")
	}
}

// TestManifestAttrTable asserts the manifest carries the planned
// graph's whole attribute table in id order, and that Verify refuses a
// manifest without it (one written before the table existed) or with
// one of the wrong length, telling the operator to re-plan.
func TestManifestAttrTable(t *testing.T) {
	g := testGraph(t, 1238)
	m, err := BuildManifest(g, 20, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.AttrNames) != g.NumAttributes() {
		t.Fatalf("manifest lists %d attribute names, graph has %d", len(m.AttrNames), g.NumAttributes())
	}
	for a, name := range m.AttrNames {
		if g.AttrName(int32(a)) != name {
			t.Fatalf("attr_names[%d] = %q, graph names it %q", a, name, g.AttrName(int32(a)))
		}
	}
	for _, names := range [][]string{nil, m.AttrNames[1:]} {
		bad := *m
		bad.AttrNames = names
		bad.Seal()
		if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), "re-plan") {
			t.Errorf("Verify with %d of %d attribute names: err=%v, want a re-plan error", len(names), m.Attributes, err)
		}
	}
}
