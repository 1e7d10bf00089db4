package quasiclique

import (
	"math/rand"
	"testing"
)

// benchGraph builds a graph with planted dense blocks over a sparse
// background — the induced-subgraph shape the coverage search sees in
// SCPM runs.
func benchGraph(seed int64, n, blocks, blockSize int, background, intra float64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges [][2]int32
	m := int(background * float64(n) / 2)
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			edges = append(edges, [2]int32{u, v})
		}
	}
	perm := rng.Perm(n)
	idx := 0
	for b := 0; b < blocks && idx+blockSize <= n; b++ {
		members := perm[idx : idx+blockSize]
		idx += blockSize
		for i := 0; i < blockSize; i++ {
			for j := i + 1; j < blockSize; j++ {
				if rng.Float64() < intra {
					edges = append(edges, [2]int32{int32(members[i]), int32(members[j])})
				}
			}
		}
	}
	return buildGraph(n, edges)
}

func benchParams() Params { return Params{Gamma: 0.5, MinSize: 5} }

func BenchmarkCoverageDFS(b *testing.B) {
	g := benchGraph(1, 2000, 40, 10, 4, 0.75)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Coverage(g, p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoverageBFS(b *testing.B) {
	g := benchGraph(1, 2000, 40, 10, 4, 0.75)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Coverage(g, p, Options{Order: BFS}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnumerateMaximal(b *testing.B) {
	g := benchGraph(2, 800, 16, 10, 3, 0.75)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EnumerateMaximal(g, p, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopK(b *testing.B) {
	g := benchGraph(2, 800, 16, 10, 3, 0.75)
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopK(g, p, 5, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeel(b *testing.B) {
	g := benchGraph(3, 5000, 50, 10, 4, 0.75)
	e := newEngine(g, benchParams(), Options{})
	defer e.release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.peel(3)
	}
}
