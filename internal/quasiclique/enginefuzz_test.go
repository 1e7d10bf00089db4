package quasiclique

import (
	"testing"
)

// decodeFuzzGraph turns a fuzz byte stream into a small graph plus
// search parameters. Layout: data[0] selects the vertex count (4..12),
// data[1] the density threshold γ (including γ < 0.5, where maximal
// quasi-cliques may span connected components), data[2] min_size
// (2..5); the remaining bytes are a bit stream over the n(n−1)/2
// vertex pairs in lexicographic order (missing bits mean no edge).
func decodeFuzzGraph(data []byte) (*Graph, Params, bool) {
	if len(data) < 3 {
		return nil, Params{}, false
	}
	gammas := []float64{0.3, 0.4, 0.5, 0.6, 2.0 / 3.0, 0.75, 1.0}
	n := int(data[0])%9 + 4
	p := Params{
		Gamma:   gammas[int(data[1])%len(gammas)],
		MinSize: int(data[2])%4 + 2,
	}
	bits := data[3:]
	var edges [][2]int32
	k := 0
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			if k/8 < len(bits) && bits[k/8]&(1<<uint(k%8)) != 0 {
				edges = append(edges, [2]int32{i, j})
			}
			k++
		}
	}
	return buildGraph(n, edges), p, true
}

// FuzzEngineMatchesBrute differentially checks the whole coverage DFS —
// enumeration, coverage, seeded coverage and the anchored membership
// query — against the exhaustive subset reference in brute.go. Every
// optimization under test (degeneracy ordering, bitset kernels, arena
// reuse, certificate seeding) must be invisible in the output. Run
// locally with
//
//	go test -fuzz FuzzEngineMatchesBrute ./internal/quasiclique
func FuzzEngineMatchesBrute(f *testing.F) {
	// Paper-like graph, sparse/dense extremes, γ < 0.5, tiny min_size.
	f.Add([]byte{7, 3, 2, 0xff, 0x3c, 0x81, 0x66, 0x0f, 0xa5, 0x18, 0x42})
	f.Add([]byte{0, 6, 0, 0x3f})
	f.Add([]byte{8, 1, 3, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{8, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{3, 4, 2, 0xaa, 0x55, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, ok := decodeFuzzGraph(data)
		if !ok {
			return
		}
		wantMax, err := BruteMaximal(g, p)
		if err != nil {
			t.Fatal(err)
		}
		wantCov, err := BruteCoverage(g, p)
		if err != nil {
			t.Fatal(err)
		}

		for _, opts := range []Options{
			{},
			{Order: BFS},
			{DisableLookahead: true, DisableDiameterPruning: true, DisableJumps: true},
		} {
			got, err := EnumerateMaximal(g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !patternsEqual(got, wantMax) {
				t.Fatalf("opts %+v params %+v:\nEnumerateMaximal = %v\nbrute            = %v",
					opts, p, vertexSets(got), vertexSets(wantMax))
			}
			cov, err := Coverage(g, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !cov.Covered.Equal(wantCov) {
				t.Fatalf("opts %+v params %+v: Coverage = %v, brute = %v",
					opts, p, cov.Covered, wantCov)
			}
		}

		// Seeding with already-proven coverage (here: the full answer)
		// must not change the result — the certificate-store soundness
		// property — and the emit sink must only ever see valid
		// quasi-cliques.
		seeded, err := CoverageSeeded(g, p, Options{}, wantCov, func(q []int32) {
			pat := g.makePattern(q)
			if pat.Size() < p.MinSize || pat.MinDeg < p.MinDegree(pat.Size()) {
				t.Fatalf("emitted set %v is not a γ=%g quasi-clique of size ≥ %d",
					q, p.Gamma, p.MinSize)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !seeded.Covered.Equal(wantCov) {
			t.Fatalf("params %+v: seeded Coverage = %v, brute = %v",
				p, seeded.Covered, wantCov)
		}

		// Anchored membership queries, sharing one engine so the covered
		// cache carries across queries.
		eng, err := NewEngine(g, p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			got, err := eng.CoversVertex(v)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantCov.Contains(int(v)); got != want {
				t.Fatalf("params %+v: CoversVertex(%d) = %v, brute = %v", p, v, got, want)
			}
		}
	})
}
