package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/nullmodel"
	"github.com/scpm/scpm/internal/quasiclique"
)

// timedModel is the Params.Model probe (layer: nullmodel). It wraps the
// analytical model a run would otherwise build for itself, so answers
// are unchanged, and sums the number and wall time of εexp calls.
type timedModel struct {
	inner nullmodel.Model
	calls atomic.Int64
	ns    atomic.Int64
}

func (m *timedModel) Exp(sigma int) float64 {
	start := time.Now()
	v := m.inner.Exp(sigma)
	m.ns.Add(int64(time.Since(start)))
	m.calls.Add(1)
	return v
}

func (m *timedModel) Name() string { return m.inner.Name() }

// probeParams returns p with the εexp probe installed for g when the
// run is traced, and p unchanged otherwise.
func probeParams(tr *tracer, p core.Params, g *graph.Graph) (core.Params, *timedModel) {
	if !tr.active() {
		return p, nil
	}
	m := &timedModel{inner: nullmodel.NewAnalytical(g, p.QuasiCliqueParams())}
	p.Model = m
	return p, m
}

// generate runs datagen under a span and returns the graph.
func generate(e *env, prof datagen.Profile) (*graph.Graph, error) {
	var g *graph.Graph
	err := e.tr.do("datagen.Generate", 0, func(int64) error {
		var err error
		g, _, err = datagen.Generate(prof.Config)
		return err
	})
	return g, err
}

// closedLoop runs op back to back until d has passed and at least
// minOps ran, and returns the cost of each op's measured part. Work op
// does outside that part (answer checks) still counts against d. Each
// op starts from a collected heap, so that the garbage the previous op
// left does not shift when the next one collects.
func closedLoop(d time.Duration, minOps int, op func() (cost, error)) ([]cost, error) {
	var out []cost
	start := time.Now()
	for len(out) < minOps || time.Since(start) < d {
		runtime.GC()
		c, err := op()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func wallMS(cs []cost) []float64 {
	w, _ := costsMS(cs)
	return w
}

// setOpMetrics stores the end-to-end metrics of a closed-loop phase.
func (r *report) setOpMetrics(ops []cost, peaksMB []float64, alias string) {
	wall, cpu := costsMS(ops)
	n := len(ops)
	r.e2e["op_p50_ms"] = value{median(wall), n}
	r.e2e["op_cpu_ms"] = value{median(cpu), n}
	r.e2e["peak_heap_mb"] = value{mean(peaksMB), len(peaksMB)}
	r.aliases["op_p50_ms"] = alias + ", median wall time"
	r.aliases["op_cpu_ms"] = alias + ", median process CPU time"
}

// runMine is the dblp-mine and dense-kernel workload: repeated full
// core.Mine runs of one generated graph, lattice recording off, as the
// batch CLI runs them.
func runMine(ctx context.Context, e *env, graphName string) (*report, error) {
	rep := newReport()
	prof := profileFor(graphName, e.graphSeed)
	p := paramsFor(prof)

	var g *graph.Graph
	setup, err := timeReps(3, 50, time.Second, func() error {
		var err error
		g, err = generate(e, prof)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.tr.setPhase("")
	rep.e2e["setup_s"] = value{median(setup), len(setup)}
	rep.aliases["setup_s"] = "datagen.Generate"

	// Warm-up run: fills the heap to its working size and gives the
	// digest every later run must reproduce.
	ref, err := core.Mine(ctx, g, p, nil)
	if err != nil {
		return nil, err
	}
	want := digest(ref)
	rep.note("%s: %d V / %d E / %d attrs, graph seed %d: %d sets emitted, %d evaluated, %d search nodes, %d patterns",
		prof.Config.Name, g.NumVertices(), g.NumEdges(), g.NumAttributes(), prof.Config.Seed,
		ref.Stats.SetsEmitted, ref.Stats.SetsEvaluated, ref.Stats.SearchNodes, ref.Stats.PatternsEmitted)
	ref = nil

	phase := func() ([]cost, []float64, error) {
		peak := startHeapPeak()
		defer peak.finish()
		var peaks []float64
		ops, err := closedLoop(e.seconds, 3, func() (cost, error) {
			defer func() { peaks = append(peaks, peak.lap()) }()
			var res *core.Result
			var took cost
			var model *timedModel
			var a0, b0 uint64
			if e.tr.active() {
				a0, b0 = allocs()
			}
			err := e.tr.do("core.Mine", 0, func(id int64) error {
				w := startWatch()
				pp, m := probeParams(e.tr, p, g)
				model = m
				var err error
				res, err = core.Mine(ctx, g, pp, nil)
				took = w.stop()
				if model != nil {
					e.tr.aggregate("nullmodel.Exp", id, time.Duration(model.ns.Load()), time.Now())
				}
				return err
			})
			if err != nil {
				return cost{}, err
			}
			rep.attempted++
			if digest(res) != want {
				rep.failed++
			}
			if e.tr.active() {
				a1, b1 := allocs()
				st := res.Stats
				rep.layer["core.sets_evaluated"] = value{float64(st.SetsEvaluated), 1}
				rep.layer["core.search_nodes"] = value{float64(st.SearchNodes), 1}
				rep.layer["core.sets_emitted"] = value{float64(st.SetsEmitted), 1}
				rep.layer["core.patterns_emitted"] = value{float64(st.PatternsEmitted), 1}
				rep.layer["core.allocs_per_set"] = value{float64(a1-a0) / float64(st.SetsEvaluated), 1}
				rep.layer["core.alloc_bytes_per_set"] = value{float64(b1-b0) / float64(st.SetsEvaluated), 1}
				rep.layer["nullmodel.exp_calls"] = value{float64(model.calls.Load()), 1}
			}
			return took, nil
		})
		return ops, peaks, err
	}

	ops, peaks, err := phase()
	if err != nil {
		return nil, err
	}
	rep.setOpMetrics(ops, peaks, "mine_s × 1000: one full core.Mine")
	if !e.traced {
		return rep, nil
	}

	e.tr.setPhase("timed")
	traced, _, err := phase()
	e.tr.setPhase("probe")
	if err != nil {
		return nil, err
	}
	spans := e.tr.phaseSpans("timed")
	rep.setLayerMedian("core.mine_ms", durationsMS(spans, "core.Mine"))
	rep.setLayerMedian("nullmodel.exp_ms", durationsMS(spans, "nullmodel.Exp"))
	rep.setSelfTimes(spans, len(traced))
	rep.setOverhead(wallMS(ops), wallMS(traced))
	rep.setLayerMedian("datagen.generate_ms", durationsMS(e.tr.phaseSpans("setup"), "datagen.Generate"))
	if err := probeLevels(ctx, e, g, p, want, rep); err != nil {
		return nil, err
	}
	return rep, probeKernel(e, g, p, rep)
}

// probeLevels times the two halves of a Mine through public calls:
// core.ComputeLevel1, then core.Mine with those sealed verdicts, which
// replays level 1 and walks the Eclat subtrees (layer: core).
func probeLevels(ctx context.Context, e *env, g *graph.Graph, p core.Params, want [32]byte, rep *report) error {
	for i := 0; i < 3; i++ {
		var v *core.Level1Verdicts
		err := e.tr.do("core.ComputeLevel1", 0, func(int64) error {
			var err error
			v, err = core.ComputeLevel1(ctx, g, p)
			return err
		})
		if err != nil {
			return err
		}
		pv := p
		pv.Level1Verdicts = v
		var res *core.Result
		err = e.tr.do("core.subtree", 0, func(int64) error {
			var err error
			res, err = core.Mine(ctx, g, pv, nil)
			return err
		})
		if err != nil {
			return err
		}
		rep.attempted++
		if digest(res) != want {
			rep.failed++
		}
	}
	spans := e.tr.phaseSpans("probe")
	rep.setLayerMedian("core.level1_ms", durationsMS(spans, "core.ComputeLevel1"))
	rep.setLayerMedian("core.subtree_ms", durationsMS(spans, "core.subtree"))
	return nil
}

// probeKernel re-issues the coverage kernel's calls for every frequent
// single attribute, one layer per call: graph.InducedByMembers (graph),
// epsilon.Exact.EstimateWithCerts (epsilon) and quasiclique.TopK on the
// covered vertices (quasiclique). Each metric sums one sweep over the
// singles; the median of up to three sweeps, as many as fit in two
// seconds, is reported.
func probeKernel(e *env, g *graph.Graph, p core.Params, rep *report) error {
	qp := p.QuasiCliqueParams()
	est := epsilon.NewExact(qp, quasiclique.Options{})
	var induce, estimate, topk []float64
	var nodes int64
	began := time.Now()
	for sweep := 0; sweep < 3 && (sweep == 0 || time.Since(began) < 2*time.Second); sweep++ {
		var tInduce, tEstimate, tTopK time.Duration
		nodes = 0
		for a := int32(0); a < int32(g.NumAttributes()); a++ {
			if g.AttrSupport(a) < p.SigmaMin {
				continue
			}
			members := g.Members([]int32{a})
			start := time.Now()
			_ = g.InducedByMembers(members)
			tInduce += time.Since(start)

			start = time.Now()
			got, err := est.EstimateWithCerts(g, []int32{a}, members, members, epsilon.NewCertStore())
			if err != nil {
				return err
			}
			tEstimate += time.Since(start)
			nodes += got.Nodes

			start = time.Now()
			sub := g.InducedByMembers(got.Handdown)
			if _, err := quasiclique.TopK(quasiclique.NewGraphCSR(sub.CSR()), qp, p.K, quasiclique.Options{}); err != nil {
				return err
			}
			tTopK += time.Since(start)
		}
		induce = append(induce, ms(tInduce))
		estimate = append(estimate, ms(tEstimate))
		topk = append(topk, ms(tTopK))
	}
	rep.setLayerMedian("graph.induce_ms", induce)
	rep.setLayerMedian("epsilon.estimate_ms", estimate)
	rep.setLayerMedian("quasiclique.topk_ms", topk)
	rep.layer["epsilon.search_nodes"] = value{float64(nodes), 1}
	return nil
}

// liveState is one serving generation of the update sequence.
type liveState struct {
	g   *graph.Graph
	res *core.Result
	idx *index.Index
}

// runUpdate is the dblp-update workload: a seeded chain of single-op
// deltas, each run through the sequence the server's live-update path
// runs before it serves a new generation: Graph.Apply, core.Remine,
// Index.Rebuild and Params.NewModel.
func runUpdate(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	prof := profileFor("dblp", e.graphSeed)
	p := paramsFor(prof)
	p.RecordLattice = true

	var cur liveState
	setup, err := timeReps(3, 50, time.Second, func() error {
		cur = liveState{} // let the previous set-up's lattice go first
		g, err := generate(e, prof)
		if err != nil {
			return err
		}
		var res *core.Result
		err = e.tr.do("core.Mine", 0, func(int64) error {
			var err error
			res, err = core.Mine(ctx, g, p, nil)
			return err
		})
		if err != nil {
			return err
		}
		var idx *index.Index
		_ = e.tr.do("index.Build", 0, func(int64) error {
			idx = index.Build(res, g)
			return nil
		})
		cur = liveState{g, res, idx}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.tr.setPhase("")
	rep.e2e["setup_s"] = value{median(setup), len(setup)}
	rep.aliases["setup_s"] = "datagen.Generate + lattice-recording core.Mine + index.Build"
	chain := deltaChain(cur.g, e.seed, 512)

	step := func(i int) (liveState, cost, error) {
		d, err := deltaOf(cur.g, chain[i])
		if err != nil {
			return liveState{}, cost{}, err
		}
		w := startWatch()
		var next liveState
		var cs *graph.ChangeSet
		err = e.tr.do("graph.Apply", 0, func(int64) error {
			var err error
			next.g, cs, err = cur.g.Apply(d)
			return err
		})
		if err != nil {
			return liveState{}, cost{}, err
		}
		var a0 uint64
		if e.tr.active() {
			a0, _ = allocs()
		}
		var model *timedModel
		err = e.tr.do("core.Remine", 0, func(id int64) error {
			pp, m := probeParams(e.tr, p, next.g)
			model = m
			var err error
			next.res, err = core.Remine(ctx, next.g, pp, cur.res, cs, nil)
			if model != nil {
				e.tr.aggregate("nullmodel.Exp", id, time.Duration(model.ns.Load()), time.Now())
			}
			return err
		})
		if err != nil {
			return liveState{}, cost{}, err
		}
		if e.tr.active() {
			a1, _ := allocs()
			st := next.res.Stats
			rep.layer["core.remine_allocs"] = value{float64(a1 - a0), 1}
			rep.layer["core.remine_reuse_ratio"] = value{float64(st.ReusedSets) / float64(st.ReusedSets+st.RecomputedSets), 1}
			rep.layer["nullmodel.exp_calls"] = value{float64(model.calls.Load()), 1}
		}
		_ = e.tr.do("index.Rebuild", 0, func(int64) error {
			next.idx = cur.idx.Rebuild(next.res, next.g)
			return nil
		})
		_ = e.tr.do("nullmodel.NewModel", 0, func(int64) error {
			_ = p.NewModel(next.g)
			return nil
		})
		return next, w.stop(), nil
	}

	// The chain's first update runs untimed as a warm-up; it and the
	// chain's last update are checked against full mines afterwards.
	i := 0
	cur, _, err = step(i)
	if err != nil {
		return nil, err
	}
	i++
	type checkpoint struct {
		g     *graph.Graph
		want  [32]byte
		nSets int
	}
	first := checkpoint{cur.g, digest(cur.res), cur.idx.NumSets()}
	phase := func() ([]cost, []float64, error) {
		peak := startHeapPeak()
		defer peak.finish()
		var peaks []float64
		ops, err := closedLoop(e.seconds, 3, func() (cost, error) {
			defer func() { peaks = append(peaks, peak.lap()) }()
			if i >= len(chain) {
				return cost{}, fmt.Errorf("delta chain of %d ops exhausted", len(chain))
			}
			next, took, err := step(i)
			if err != nil {
				return cost{}, err
			}
			cur = next
			i++
			rep.attempted++
			return took, nil
		})
		return ops, peaks, err
	}
	ops, peaks, err := phase()
	if err != nil {
		return nil, err
	}
	rep.setOpMetrics(ops, peaks, "update_s × 1000: Apply + Remine + Rebuild + NewModel")

	if e.traced {
		e.tr.setPhase("timed")
		traced, _, err := phase()
		e.tr.setPhase("probe")
		if err != nil {
			return nil, err
		}
		spans := e.tr.phaseSpans("timed")
		rep.setLayerMedian("graph.apply_ms", durationsMS(spans, "graph.Apply"))
		rep.setLayerMedian("core.remine_ms", durationsMS(spans, "core.Remine"))
		rep.setLayerMedian("index.rebuild_ms", durationsMS(spans, "index.Rebuild"))
		rep.setLayerMedian("nullmodel.exp_ms", durationsMS(spans, "nullmodel.Exp"))
		rep.setSelfTimes(spans, len(traced))
		rep.setOverhead(wallMS(ops), wallMS(traced))
		setupSpans := e.tr.phaseSpans("setup")
		rep.setLayerMedian("datagen.generate_ms", durationsMS(setupSpans, "datagen.Generate"))
		rep.setLayerMedian("index.build_ms", durationsMS(setupSpans, "index.Build"))
	}

	// Answer checks: the first and the last update of the chain must
	// equal a full Mine of the same graph version.
	last := checkpoint{cur.g, digest(cur.res), cur.idx.NumSets()}
	cur = liveState{}
	full := p
	full.RecordLattice = false
	for _, c := range []checkpoint{first, last} {
		res, err := core.Mine(ctx, c.g, full, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if digest(res) != c.want || c.nSets != len(res.Sets) {
			rep.failed++
			rep.note("update at graph version %d differs from a full Mine", c.g.Version())
		}
	}
	rep.note("%d chain updates applied; graph version %d", i, last.g.Version())
	return rep, nil
}

// setSelfTimes stores each layer's self time per timed operation.
func (r *report) setSelfTimes(spans []span, ops int) {
	for layer, d := range selfTimes(spans) {
		r.layer["self."+layer+"_ms"] = value{ms(d) / float64(ops), ops}
	}
}

// setOverhead stores how much slower the median operation ran traced,
// from wall times in ms.
func (r *report) setOverhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	r.layer["trace.overhead_pct"] = value{(t - u) / u * 100, len(traced)}
}
