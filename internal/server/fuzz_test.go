package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
)

// fuzzParams mine the worked example into a dozen sets with patterns,
// so an update both carries sets and walks dirty ones.
var fuzzParams = core.Params{SigmaMin: 2, Gamma: 0.5, MinSize: 3, K: 10, RecordLattice: true}

// FuzzUpdateOps feeds arbitrary bytes through the live-update path of
// POST /updates: parseUpdateOps, the graph.Delta builder and
// Graph.Apply on the paper's example graph. The parser must answer
// with an *opsError or ops, never panic. For a batch that applies, the
// incremental generation must equal a fresh one: Remine of the previous
// result equals Mine of the new graph, the Rebuild of the previous
// result's index (which may share it by list id) answers every query
// like Build, and so do Rebuilds against indexes of results the new one
// was not remined from, which compare the lists set by set. A Remine
// that keeps its predecessor's core.ListID must hold its lists. The
// seed corpus is testdata/fuzz/FuzzUpdateOps.
func FuzzUpdateOps(f *testing.F) {
	ctx := context.Background()
	g := graph.PaperExample()
	prev, err := core.Mine(ctx, g, fuzzParams, nil)
	if err != nil {
		f.Fatal(err)
	}
	x := index.Build(prev, g)
	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := parseUpdateOps(bytes.NewReader(body))
		if err != nil {
			var oe *opsError
			if !errors.As(err, &oe) {
				t.Fatalf("parseUpdateOps returned %T %v, want an *opsError", err, err)
			}
			return
		}
		d := g.NewDelta()
		for _, op := range ops {
			if op.apply(d) != nil {
				return
			}
		}
		ng, cs, err := g.Apply(d)
		if err != nil {
			return
		}
		res, err := core.Remine(ctx, ng, fuzzParams, prev, cs, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.Mine(ctx, ng, fuzzParams, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Sets, fresh.Sets) || !reflect.DeepEqual(res.Patterns, fresh.Patterns) {
			t.Fatalf("Remine differs from Mine\nremine: %v\nmine:   %v", res.Sets, fresh.Sets)
		}
		if core.ListID(res) == core.ListID(prev) && !sameLists(res, prev) {
			t.Fatal("Remine kept its predecessor's list id, but the lists differ")
		}
		want := index.Build(res, ng)
		requireSameIndex(t, "Rebuild of the previous index", x.Rebuild(res, ng), want)
		requireSameIndex(t, "Rebuild of a fresh mine's index", index.Build(fresh, ng).Rebuild(res, ng), want)
		requireSameIndex(t, "Rebuild with a fresh mine", index.Build(res, ng).Rebuild(fresh, ng), index.Build(fresh, ng))
	})
}

// sameLists reports whether a and b hold the same sets and patterns,
// in the same order, as core.ListID promises of equal ids.
func sameLists(a, b *core.Result) bool {
	if len(a.Sets) != len(b.Sets) || len(a.Patterns) != len(b.Patterns) {
		return false
	}
	for i := range a.Sets {
		if !slices.Equal(a.Sets[i].Attrs, b.Sets[i].Attrs) || !slices.Equal(a.Sets[i].Names, b.Sets[i].Names) {
			return false
		}
	}
	for i := range a.Patterns {
		p, q := &a.Patterns[i], &b.Patterns[i]
		if !slices.Equal(p.Attrs, q.Attrs) || !slices.Equal(p.Names, q.Names) || !slices.Equal(p.Vertices, q.Vertices) {
			return false
		}
	}
	return true
}

// requireSameIndex fails t unless got answers every query class the
// server serves exactly as want does: sets and patterns by id and
// index, exact, superset and subset lookups of every set, patterns by
// vertex, and the three rankings. It asks through the public methods,
// as index's own requireSameAnswers cannot be imported.
func requireSameIndex(t *testing.T, label string, got, want *index.Index) {
	t.Helper()
	check := func(what string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: %s\ngot:  %v\nwant: %v", label, what, g, w)
		}
	}
	check("sets", got.Sets(), want.Sets())
	check("patterns", got.Patterns(), want.Patterns())
	for _, r := range []core.Ranking{core.BySupport, core.ByEpsilon, core.ByDelta} {
		check("ranked "+r.String(), got.Ranked(r), want.Ranked(r))
	}
	for i, s := range want.Sets() {
		id := want.SetID(i)
		check("set id", got.SetID(i), id)
		gs, gok := got.SetByID(id)
		ws, wok := want.SetByID(id)
		check("set by id", []any{gs, gok}, []any{ws, wok})
		check("patterns of set", got.PatternsOfSet(id), want.PatternsOfSet(id))
		for _, q := range [][]string{s.Names, s.Names[:1], s.Names[1:]} {
			check(fmt.Sprintf("exact %v", q), got.Exact(q), want.Exact(q))
			check(fmt.Sprintf("supersets %v", q), got.Supersets(q), want.Supersets(q))
			check(fmt.Sprintf("subsets %v", q), got.Subsets(q), want.Subsets(q))
		}
	}
	for i := range want.Patterns() {
		id := want.PatternID(i)
		check("pattern id", got.PatternID(i), id)
		gp, gok := got.PatternByID(id)
		wp, wok := want.PatternByID(id)
		check("pattern by id", []any{gp, gok}, []any{wp, wok})
		for _, l := range want.PatternVertexNames(i) {
			check("patterns with vertex "+l, got.PatternsWithVertex(l), want.PatternsWithVertex(l))
		}
	}
	check("unknown set", got.SetIndexByID("missing"), want.SetIndexByID("missing"))
	check("unknown vertex", got.HasVertex("missing"), want.HasVertex("missing"))
}
