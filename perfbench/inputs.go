package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"slices"
	"sort"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/server"
)

// This file derives every input of a run from two seeds: the graph seed
// (datagen Config.Seed; 0 keeps the profile's own seed) and the workload
// seed (the delta chain and the query mix). Equal seeds give
// byte-identical inputs; inputs_test.go pins that.

// profileFor returns the datagen profile of a graph at scale 0.2, with
// its seed replaced when graphSeed is non-zero.
func profileFor(graphName string, graphSeed int64) datagen.Profile {
	var prof datagen.Profile
	switch graphName {
	case "dense":
		prof = datagen.SynthDense(0.2)
	default:
		prof = datagen.SynthDBLP(0.2)
	}
	if graphSeed != 0 {
		prof.Config.Seed = graphSeed
	}
	return prof
}

// paramsFor returns the mining parameters the experiment harness uses
// on a profile, at Parallelism 1 so wall time and allocation counts
// stay steady on a small shared machine.
func paramsFor(prof datagen.Profile) core.Params {
	return core.Params{
		SigmaMin:    prof.SigmaMin,
		Gamma:       prof.Gamma,
		MinSize:     prof.MinSize,
		MinAttrs:    prof.MinAttrs,
		EpsMin:      prof.EpsMin,
		DeltaMin:    prof.DeltaMin,
		K:           5,
		Parallelism: 1,
	}
}

// deltaChain draws n single-op updates for g from seed: edge additions
// between non-adjacent vertices and attribute assignments a vertex does
// not have yet, half each. Ops only add, so an op that is valid on g
// and not repeated earlier in the chain stays valid on every later
// graph version.
func deltaChain(g *graph.Graph, seed int64, n int) []server.UpdateOp {
	rng := rand.New(rand.NewSource(seed))
	nv, na := g.NumVertices(), g.NumAttributes()
	used := make(map[string]bool)
	ops := make([]server.UpdateOp, 0, n)
	for len(ops) < n {
		if rng.Intn(2) == 0 {
			u, v := int32(rng.Intn(nv)), int32(rng.Intn(nv))
			if u > v {
				u, v = v, u
			}
			key := fmt.Sprintf("e%d-%d", u, v)
			if u == v || g.HasEdge(u, v) || used[key] {
				continue
			}
			used[key] = true
			ops = append(ops, server.UpdateOp{Op: "add_edge", U: g.VertexName(u), V: g.VertexName(v)})
			continue
		}
		v, a := int32(rng.Intn(nv)), int32(rng.Intn(na))
		key := fmt.Sprintf("a%d-%d", v, a)
		if slices.Contains(g.VertexAttrs(v), a) || used[key] {
			continue
		}
		used[key] = true
		ops = append(ops, server.UpdateOp{Op: "set_attr", Vertex: g.VertexName(v), Attr: g.AttrName(a)})
	}
	return ops
}

// deltaOf records one chain op as a delta against g.
func deltaOf(g *graph.Graph, op server.UpdateOp) (*graph.Delta, error) {
	d := g.NewDelta()
	var err error
	switch op.Op {
	case "add_edge":
		err = d.AddEdge(op.U, op.V)
	case "set_attr":
		err = d.SetAttr(op.Vertex, op.Attr)
	default:
		err = fmt.Errorf("unexpected op %q", op.Op)
	}
	return d, err
}

// Query classes of the serving workloads, in mix order.
const (
	classSet = iota
	classContains
	classRank
	classPatterns
	classVertex
	classEpsilon
	numClasses
)

var classNames = [numClasses]string{"set", "contains", "rank", "patterns", "vertex", "epsilon"}

// classWeights is the number of requests of each class per 10,000. The
// rule behind them is that each class takes an equal share of the
// server's time: a weight is inversely proportional to the mean latency
// of the class's requests sent one at a time over loopback to the
// booted default-seed snapshot (set 78, contains 1,664, rank 17,669,
// patterns 69, vertex 74, epsilon 86 µs, on the two-vCPU virtual
// machine the benchmark was built on). So a change that halves one
// class's cost moves op_cpu_ms by about a twelfth, whichever class it
// is. The weights stay fixed when a change moves those latencies.
var classWeights = [numClasses]int{2430, 114, 11, 2714, 2545, 2186}

// query is one request of a mix.
type query struct {
	class int
	path  string
	// arg holds the drawn operand: a set id, an attribute, a vertex
	// label, or an attribute pair joined by ",".
	arg string
}

// zipf draws ranks 0..n−1 with P(k) ∝ 1/(k+1)^s, for any s > 0
// (math/rand's Zipf needs s > 1).
type zipf struct{ cum []float64 }

func newZipf(s float64, n int) zipf {
	cum := make([]float64, n)
	acc := 0.0
	for k := range cum {
		acc += math.Pow(float64(k+1), -s)
		cum[k] = acc
	}
	return zipf{cum}
}

func (z zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cum, rng.Float64()*z.cum[len(z.cum)-1])
}

// queryMix draws n requests from seed over a mined result of g. The
// classes interleave in the proportions of classWeights. Set
// ids, attributes and attribute pairs are drawn with the graph
// profile's own attribute-popularity law, Zipf with exponent zipfS,
// over the sets and the frequent attributes by descending support;
// vertices are drawn uniformly, as the profile has no vertex
// popularity.
func queryMix(g *graph.Graph, res *core.Result, sigmaMin int, zipfS float64, seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]int, len(res.Sets))
	for i := range sets {
		sets[i] = i
	}
	sort.SliceStable(sets, func(a, b int) bool { return res.Sets[sets[a]].Support > res.Sets[sets[b]].Support })
	var attrs []int32
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		if g.AttrSupport(a) >= sigmaMin {
			attrs = append(attrs, a)
		}
	}
	sort.SliceStable(attrs, func(i, j int) bool { return g.AttrSupport(attrs[i]) > g.AttrSupport(attrs[j]) })
	setZipf, attrZipf := newZipf(zipfS, len(sets)), newZipf(zipfS, len(attrs))

	total := 0
	for _, w := range classWeights {
		total += w
	}
	// Classes take turns by smooth weighted round robin, so any run of
	// requests holds each class in its share to within one request: the
	// rare, slow classes land evenly in every window instead of in
	// random clumps.
	var credit [numClasses]int
	out := make([]query, n)
	for i := range out {
		c := 0
		for k := range credit {
			credit[k] += classWeights[k]
			if credit[k] > credit[c] {
				c = k
			}
		}
		credit[c] -= total
		q := query{class: c}
		switch c {
		case classSet:
			q.arg = res.Sets[sets[setZipf.draw(rng)]].ID()
			q.path = "/sets/" + url.PathEscape(q.arg)
		case classContains:
			q.arg = g.AttrName(attrs[attrZipf.draw(rng)])
			q.path = "/sets?contains=" + url.QueryEscape(q.arg) + "&k=20"
		case classRank:
			q.path = "/sets?rank=epsilon&k=10"
		case classPatterns:
			q.arg = g.VertexName(int32(rng.Intn(g.NumVertices())))
			q.path = "/patterns?vertex=" + url.QueryEscape(q.arg)
		case classVertex:
			q.arg = g.VertexName(int32(rng.Intn(g.NumVertices())))
			q.path = "/vertices/" + url.PathEscape(q.arg)
		case classEpsilon:
			a := attrZipf.draw(rng)
			b := attrZipf.draw(rng)
			for b == a {
				b = attrZipf.draw(rng)
			}
			q.arg = g.AttrName(attrs[a]) + "," + g.AttrName(attrs[b])
			q.path = "/epsilon?attrs=" + url.QueryEscape(q.arg)
		}
		out[i] = q
	}
	return out
}

// firstOfEachClass returns the index of the first request of every
// class in a mix (the boot probe sends these).
func firstOfEachClass(mix []query) ([numClasses]int, error) {
	var first [numClasses]int
	for c := range first {
		first[c] = -1
	}
	for i, q := range mix {
		if first[q.class] < 0 {
			first[q.class] = i
		}
	}
	for c, i := range first {
		if i < 0 {
			return first, fmt.Errorf("query mix has no %s request", classNames[c])
		}
	}
	return first, nil
}
