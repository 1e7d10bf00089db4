package core

import (
	"context"
	"slices"
	"time"

	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/itemset"
	"github.com/scpm/scpm/internal/quasiclique"
)

// MineNaive runs the naive algorithm of §3.1: Eclat enumerates every
// frequent attribute set, and for each induced graph the complete set of
// maximal quasi-cliques is mined. It produces the same output as Mine
// (modulo run statistics) and serves as the performance baseline of the
// paper's Figure 8.
//
// Context and sink follow the same contract as Mine: cancellation
// surfaces as ErrCanceled with the partial result intact, and a non-nil
// sink streams each qualifying set as it is found.
func MineNaive(ctx context.Context, g *graph.Graph, p Params, sink Sink) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	em := newEmitter(sink, p.ProgressEvery, start)
	exp := newExpTable(p.model(g), g.NumVertices())
	qp := p.QuasiCliqueParams()
	opts := p.qcOptions()
	opts.Ctx = ctx

	db := itemset.NewDatabase(g.NumVertices())
	for a := int32(0); a < int32(g.NumAttributes()); a++ {
		if err := db.AddItem(a, g.AttrMembers(a)); err != nil {
			return nil, err
		}
	}
	im := &itemset.Miner{MinSupport: p.SigmaMin, MaxLen: p.MaxAttrs}

	b := &bucket{}
	var mineErr error
	err := im.Mine(db, func(s itemset.Itemset) bool {
		if ctx.Err() != nil {
			mineErr = quasiclique.Canceled(ctx)
			return false
		}
		sub := g.InducedByMembers(s.Tids)
		pats, err := quasiclique.EnumerateMaximal(quasiclique.NewGraphCSR(sub.CSR()), qp, opts)
		if err != nil {
			mineErr = err
			return false
		}
		em.noteEvaluated()
		covered := make(map[int32]bool)
		for _, q := range pats {
			for _, lv := range q.Vertices {
				covered[sub.Orig[lv]] = true
			}
		}
		sigma := s.Support()
		eps := 0.0
		if sigma > 0 {
			eps = float64(len(covered)) / float64(sigma)
		}
		expEps := exp.at(sigma)
		delta := NormalizeDelta(eps, expEps)
		if eps < p.EpsMin || delta < p.DeltaMin || len(s.Items) < p.minAttrs() {
			return true
		}
		attrs := slices.Sorted(slices.Values(s.Items))
		var emitted []Pattern
		if p.K > 0 || p.AllPatterns {
			top := pats
			if !p.AllPatterns && len(top) > p.K {
				top = top[:p.K]
			}
			names := g.AttrSetNames(attrs)
			for _, q := range top {
				verts := make([]int32, len(q.Vertices))
				for j, lv := range q.Vertices {
					verts[j] = sub.Orig[lv]
				}
				emitted = append(emitted, Pattern{
					Attrs:    attrs,
					Names:    names,
					Vertices: verts,
					MinDeg:   q.MinDeg,
					Edges:    q.Edges,
				})
			}
		}
		set := row{support: int32(sigma), epsilon: eps, expEps: expEps, delta: delta, covered: int32(len(covered))}
		b.emit(em, g, &set, attrs, emitted)
		return true
	})
	if mineErr != nil {
		err = mineErr
	}
	return finalizeResult(&Result{}, []*bucket{b}, g, em, err, nil)
}
