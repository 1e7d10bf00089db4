package obs

import "github.com/scpm/scpm/internal/core"

// MiningMetrics exports the mining progress counters — the paper's own
// cost model (search nodes per coverage DFS, evaluated sets, reuse
// rates) — as live gauges, updated from Sink.OnProgress snapshots
// while a mine or Remine runs. They are gauges, not counters: each
// run's snapshot replaces the last, so a scrape during a long mine
// shows where that run stands right now. ObserveProgress is the one
// mapping of a core.Stats onto them.
type MiningMetrics struct {
	// Active is 1 while a mine or remine is running, 0 otherwise.
	Active *Gauge
	// SetsEvaluated counts attribute sets ε-evaluated so far this run.
	SetsEvaluated *Gauge
	// SetsEmitted counts attribute sets that passed all thresholds.
	SetsEmitted *Gauge
	// PatternsEmitted counts reported (S, Q) patterns.
	PatternsEmitted *Gauge
	// SearchNodes totals quasi-clique search nodes explored.
	SearchNodes *Gauge
	// SampledVertices totals membership samples drawn (sampled ε mode).
	SampledVertices *Gauge
	// ReusedSets counts sets carried over from the previous lattice
	// during an incremental remine instead of being recomputed.
	ReusedSets *Gauge
	// RecomputedSets counts sets actually re-evaluated this run.
	RecomputedSets *Gauge
	// ReusedVerdicts counts level-1 singles replayed from sealed
	// manifest verdicts instead of searched.
	ReusedVerdicts *Gauge
}

// NewMiningMetrics registers (or resolves, get-or-create) the mining
// gauge family on reg. Every layer that mines — boot mining in
// scpm-serve, the live-update remine path, the scpm CLI — resolves the
// same names, so one process's runs share one set of gauges.
func NewMiningMetrics(reg *Registry) *MiningMetrics {
	return &MiningMetrics{
		Active:          reg.Gauge("scpm_mining_active", "1 while a mine or remine is running."),
		SetsEvaluated:   reg.Gauge("scpm_mining_sets_evaluated", "Attribute sets epsilon-evaluated by the current/last run."),
		SetsEmitted:     reg.Gauge("scpm_mining_sets_emitted", "Attribute sets that passed all output thresholds."),
		PatternsEmitted: reg.Gauge("scpm_mining_patterns_emitted", "Reported (set, quasi-clique) patterns."),
		SearchNodes:     reg.Gauge("scpm_mining_search_nodes", "Quasi-clique search nodes explored by the current/last run."),
		SampledVertices: reg.Gauge("scpm_mining_sampled_vertices", "Membership samples drawn (sampled epsilon mode)."),
		ReusedSets:      reg.Gauge("scpm_mining_reused_sets", "Sets reused from the previous lattice by an incremental remine."),
		RecomputedSets:  reg.Gauge("scpm_mining_recomputed_sets", "Sets re-evaluated by the current/last run."),
		ReusedVerdicts:  reg.Gauge("scpm_mining_reused_verdicts", "Level-1 verdicts replayed from a sealed manifest."),
	}
}

// ObserveProgress stores one progress snapshot; m may be nil.
func (m *MiningMetrics) ObserveProgress(st core.Stats) {
	if m == nil {
		return
	}
	m.SetsEvaluated.Set(float64(st.SetsEvaluated))
	m.SetsEmitted.Set(float64(st.SetsEmitted))
	m.PatternsEmitted.Set(float64(st.PatternsEmitted))
	m.SearchNodes.Set(float64(st.SearchNodes))
	m.SampledVertices.Set(float64(st.SampledVertices))
	m.ReusedSets.Set(float64(st.ReusedSets))
	m.RecomputedSets.Set(float64(st.RecomputedSets))
	m.ReusedVerdicts.Set(float64(st.ReusedVerdicts))
}
