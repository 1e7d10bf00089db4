// Serving-layer metric wiring: every Server resolves one bundle of
// instruments on its registry (Config.Metrics, or a private one) and
// feeds them from the request path, the ε-cache, and the live-update
// remine loop. Scrape them on GET /metrics; see docs/ARCHITECTURE.md
// ("Observability") for the inventory.

package server

import (
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/obs"
)

// serverMetrics bundles the server's instruments. All fields use
// get-or-create registration, so a registry shared with boot-time
// mining (scpm-serve pre-registers the mining gauges) resolves to the
// same instruments.
type serverMetrics struct {
	reg    *obs.Registry
	http   *obs.HTTPMetrics
	mining *obs.MiningMetrics

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheShared    *obs.Counter

	updatesAccepted *obs.Counter
	remines         *obs.CounterVec // outcome: ok | error
	remineDuration  *obs.Histogram
}

// newServerMetrics resolves the server instrument bundle on reg.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		reg:    reg,
		http:   obs.NewHTTPMetrics(reg, "scpm"),
		mining: obs.NewMiningMetrics(reg),
		cacheHits: reg.Counter("scpm_epsilon_cache_hits_total",
			"/epsilon answers served from the LRU cache."),
		cacheMisses: reg.Counter("scpm_epsilon_cache_misses_total",
			"/epsilon answers computed (or joined in flight) rather than cached."),
		cacheEvictions: reg.Counter("scpm_epsilon_cache_evictions_total",
			"Cache entries evicted by the LRU capacity bound."),
		cacheShared: reg.Counter("scpm_epsilon_cache_shared_total",
			"/epsilon callers that joined another caller's in-flight computation (singleflight)."),
		updatesAccepted: reg.Counter("scpm_updates_accepted_total",
			"Accepted POST /updates batches."),
		remines: reg.CounterVec("scpm_remines_total",
			"Background remines by outcome.", "outcome"),
		remineDuration: reg.Histogram("scpm_remine_duration_seconds",
			"Wall time of successful background remines.", obs.DurationBuckets),
	}
}

// miningSink builds the progress sink a remine runs with: every
// OnProgress snapshot lands in the mining gauges, so a scrape during a
// long remine shows it advancing.
func (s *Server) miningSink() core.Sink {
	return core.SinkFuncs{Progress: s.metrics.mining.ObserveProgress}
}
