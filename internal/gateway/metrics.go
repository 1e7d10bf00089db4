// Gateway observability: scatter-path instrumentation (per-shard
// subrequest latency, retry outcomes, partial responses, dead shards,
// version skew) plus GET /readyz aggregating shard readiness. Scrape
// GET /metrics; see docs/ARCHITECTURE.md ("Observability").

package gateway

import (
	"net/http"
	"strconv"

	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/server"
)

// gwMetrics bundles the gateway's instruments. The shard label is the
// manifest shard index, so the label space is bounded by the topology.
type gwMetrics struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	shardDuration    *obs.HistogramVec // per-shard subrequest latency
	retryAttempts    *obs.CounterVec   // bounded-retry second attempts
	retryGaveUp      *obs.CounterVec   // retries that still found the shard down
	partialResponses *obs.Counter      // responses carrying PartialHeader
	deadShards       *obs.CounterVec   // shard slices dropped from a merge
	versionSkew      *obs.Gauge        // 1 when reachable shards disagree
}

// newGwMetrics resolves the gateway instrument bundle on reg.
func newGwMetrics(reg *obs.Registry) *gwMetrics {
	return &gwMetrics{
		reg:  reg,
		http: obs.NewHTTPMetrics(reg, "scpm_gateway"),
		shardDuration: reg.HistogramVec("scpm_gateway_shard_request_duration_seconds",
			"Per-shard subrequest latency.", obs.LatencyBuckets, "shard"),
		retryAttempts: reg.CounterVec("scpm_gateway_retry_attempts_total",
			"Bounded-retry second attempts against a shard that looked down.", "shard"),
		retryGaveUp: reg.CounterVec("scpm_gateway_retry_gaveup_total",
			"Retries whose second attempt still found the shard down.", "shard"),
		partialResponses: reg.Counter("scpm_gateway_partial_responses_total",
			"Degraded scatter responses carrying the X-Scpm-Partial-Shards header."),
		deadShards: reg.CounterVec("scpm_gateway_dead_shards_total",
			"Shard slices dropped from a scatter merge because the shard was down.", "shard"),
		versionSkew: reg.Gauge("scpm_gateway_version_skew",
			"1 when the last version vector saw reachable shards on different versions, 0 otherwise."),
	}
}

// shardLabel renders a shard index as its metric label value.
func shardLabel(k int) string { return strconv.Itoa(k) }

// handleReadyz is GET /readyz: the gateway is ready exactly when every
// shard answers its own /readyz with 200 — a partial topology can
// still serve degraded reads, but a load balancer should prefer a
// gateway whose shards are all caught up.
func (gw *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	resps := gw.scatter(r.Context(), http.MethodGet, "/readyz", nil)
	perShard := make([]any, len(gw.shards))
	ready := true
	for _, resp := range resps {
		entry := map[string]any{"shard": resp.shard, "ready": false}
		switch {
		case resp.err != nil:
			entry["error"] = resp.err.Error()
			ready = false
		case resp.status != http.StatusOK:
			entry["status"] = resp.status
			ready = false
		default:
			entry["ready"] = true
		}
		perShard[resp.shard] = entry
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, status, map[string]any{
		"ready":  ready,
		"shards": perShard,
	})
}
