package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/server"
)

func generateT(t *testing.T, graphName string, graphSeed int64) (*graph.Graph, core.Params) {
	t.Helper()
	prof := profileFor(graphName, graphSeed)
	g, _, err := datagen.Generate(prof.Config)
	if err != nil {
		t.Fatal(err)
	}
	return g, paramsFor(prof)
}

func datasetBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var attrs, edges bytes.Buffer
	if err := graph.WriteDataset(g, &attrs, &edges); err != nil {
		t.Fatal(err)
	}
	return append(attrs.Bytes(), edges.Bytes()...)
}

func encodeChain(ops []server.UpdateOp) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, op := range ops {
		_ = enc.Encode(op) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

func encodeMix(mix []query) []byte {
	var sb strings.Builder
	for _, q := range mix {
		sb.WriteString(q.path)
		sb.WriteByte('\n')
	}
	return []byte(sb.String())
}

// TestInputsDeterministic pins that equal seeds give byte-identical
// inputs (graph, delta chain, query mix) and that the workload seed
// changes the chain and the mix.
func TestInputsDeterministic(t *testing.T) {
	g1, p := generateT(t, "dblp", 0)
	g2, _ := generateT(t, "dblp", 0)
	if !bytes.Equal(datasetBytes(t, g1), datasetBytes(t, g2)) {
		t.Fatal("equal graph seeds generated different graphs")
	}
	g3, _ := generateT(t, "dblp", 7)
	if bytes.Equal(datasetBytes(t, g1), datasetBytes(t, g3)) {
		t.Fatal("graph seed 7 generated the default graph")
	}

	chain := encodeChain(deltaChain(g1, 5, 64))
	if !bytes.Equal(chain, encodeChain(deltaChain(g2, 5, 64))) {
		t.Fatal("equal seeds drew different delta chains")
	}
	if bytes.Equal(chain, encodeChain(deltaChain(g1, 6, 64))) {
		t.Fatal("seeds 5 and 6 drew the same delta chain")
	}

	// The mix only needs set ids, so a small result stands in for the
	// mined one.
	p.MaxAttrs = 2
	z := profileFor("dblp", 0).Config.ZipfS
	res, err := core.Mine(context.Background(), g1, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	mix := encodeMix(queryMix(g1, res, p.SigmaMin, z, 5, 2000))
	if !bytes.Equal(mix, encodeMix(queryMix(g2, res, p.SigmaMin, z, 5, 2000))) {
		t.Fatal("equal seeds drew different query mixes")
	}
	if bytes.Equal(mix, encodeMix(queryMix(g1, res, p.SigmaMin, z, 6, 2000))) {
		t.Fatal("seeds 5 and 6 drew the same query mix")
	}
	if _, err := firstOfEachClass(queryMix(g1, res, p.SigmaMin, z, 5, 2000)); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaChainValid checks that every op of a chain applies to the
// graph version before it.
func TestDeltaChainValid(t *testing.T) {
	g, _ := generateT(t, "dense", 0)
	for i, op := range deltaChain(g, 3, 200) {
		d, err := deltaOf(g, op)
		if err != nil {
			t.Fatalf("op %d %+v: %v", i, op, err)
		}
		if g, _, err = g.Apply(d); err != nil {
			t.Fatalf("applying op %d %+v: %v", i, op, err)
		}
	}
}

// TestDefaultSeedReproducesProfiles pins the workload graphs at the
// default graph seed to the profile sizes the benchmark is tuned for.
func TestDefaultSeedReproducesProfiles(t *testing.T) {
	cases := []struct {
		graph                           string
		emitted, evaluated, searchNodes int64
	}{
		{"dblp", 166057, 166383, 2659},
		{"dense", 2, 102, 64055},
	}
	for _, c := range cases {
		g, p := generateT(t, c.graph, 0)
		res, err := core.Mine(context.Background(), g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.SetsEmitted != c.emitted || st.SetsEvaluated != c.evaluated || st.SearchNodes != c.searchNodes {
			t.Errorf("%s: %d emitted / %d evaluated / %d nodes, want %d / %d / %d", c.graph,
				st.SetsEmitted, st.SetsEvaluated, st.SearchNodes, c.emitted, c.evaluated, c.searchNodes)
		}
	}
}

// TestSelfTimes checks the self-time rule: a span's duration minus the
// union of its children's intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "server.request", ID: 1, StartNS: 0, EndNS: 100},
		{Name: "index.lookup", ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{Name: "index.lookup", ID: 3, Parent: 1, StartNS: 30, EndNS: 50},
		{Name: "index.lookup", ID: 4, Parent: 1, StartNS: 90, EndNS: 120},
	}
	got := selfTimes(spans)
	if got["server"] != 50 || got["index"] != 30+20+30 {
		t.Fatalf("self times %v, want server 50ns and index 80ns", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the
// same workloads and metrics, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
