package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/obs"
)

// scrape fetches /metrics through the instrumented handler and
// returns the exposition body.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	return rec.Body.String()
}

// metricValue extracts the value of an exact series (name plus label
// block) from an exposition body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsRequestSeries drives requests through the instrumented
// handler and asserts the per-endpoint series and the ε-cache
// counters land where the requests say they should.
func TestMetricsRequestSeries(t *testing.T) {
	s, _, _, _ := newTestServer(t, 8)
	get(t, s, "/healthz", http.StatusOK, nil)
	var eps map[string]any
	get(t, s, "/epsilon?attrs=C", http.StatusOK, &eps) // cache miss
	get(t, s, "/epsilon?attrs=C", http.StatusOK, &eps) // cache hit

	body := scrape(t, s)
	if v := metricValue(t, body, `scpm_http_requests_total{endpoint="/healthz",class="2xx"}`); v != 1 {
		t.Fatalf("healthz request count = %v, want 1", v)
	}
	if v := metricValue(t, body, `scpm_http_requests_total{endpoint="/epsilon",class="2xx"}`); v != 2 {
		t.Fatalf("epsilon request count = %v, want 2", v)
	}
	if v := metricValue(t, body, `scpm_http_request_duration_seconds_bucket{endpoint="/healthz",le="+Inf"}`); v != 1 {
		t.Fatalf("healthz latency histogram count = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_epsilon_cache_misses_total"); v != 1 {
		t.Fatalf("cache misses = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_epsilon_cache_hits_total"); v != 1 {
		t.Fatalf("cache hits = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_epsilon_cache_entries"); v != 1 {
		t.Fatalf("cache entries = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_generation_served"); v != 1 {
		t.Fatalf("served generation = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_ready"); v != 1 {
		t.Fatalf("ready gauge = %v, want 1", v)
	}
	// 404s land in the "other" endpoint bucket with their status class.
	get(t, s, "/no-such-route", http.StatusNotFound, nil)
	body = scrape(t, s)
	if v := metricValue(t, body, `scpm_http_requests_total{endpoint="other",class="4xx"}`); v < 1 {
		t.Fatalf("unmatched-route count = %v, want >= 1", v)
	}
}

// TestMetricsRemineLifecycle: an accepted update must count, and the
// background remine must record its outcome, duration histogram and
// final mining-progress gauges.
func TestMetricsRemineLifecycle(t *testing.T) {
	s, _, swaps := newLiveServer(t)
	postUpdates(t, s, `{"op":"add_vertex","vertex":"v99","attrs":["A"]}`+"\n", http.StatusAccepted)
	waitSwap(t, swaps)

	body := scrape(t, s)
	if v := metricValue(t, body, "scpm_updates_accepted_total"); v != 1 {
		t.Fatalf("updates accepted = %v, want 1", v)
	}
	if v := metricValue(t, body, `scpm_remines_total{outcome="ok"}`); v != 1 {
		t.Fatalf("ok remines = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_remine_duration_seconds_count"); v != 1 {
		t.Fatalf("remine duration observations = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_mining_sets_evaluated"); v <= 0 {
		t.Fatalf("mining sets evaluated = %v, want > 0", v)
	}
	if v := metricValue(t, body, "scpm_mining_active"); v != 0 {
		t.Fatalf("mining active after swap = %v, want 0", v)
	}
	if v := metricValue(t, body, "scpm_generation_served"); v != 2 {
		t.Fatalf("served generation = %v, want 2", v)
	}
}

// TestMetricsMiningInactiveAtSwap: the mining-active gauge must read
// 0 by the time a remine's generation is published, so a scrape taken
// from the swap hook itself (the earliest moment a client can observe
// the new generation) sees it cleared.
func TestMetricsMiningInactiveAtSwap(t *testing.T) {
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true}
	res, err := core.Mine(t.Context(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var s *Server
	scrapes := make(chan string, 1)
	s, err = New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: p.NewEstimator(),
		Result:    res,
		Params:    &p,
		OnSwap: func(SwapEvent) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			scrapes <- rec.Body.String()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	postUpdates(t, s, `{"op":"add_vertex","vertex":"v99","attrs":["A"]}`+"\n", http.StatusAccepted)
	select {
	case body := <-scrapes:
		if v := metricValue(t, body, "scpm_mining_active"); v != 0 {
			t.Fatalf("mining active seen from the swap hook = %v, want 0", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the background remine to swap")
	}
}

// TestMetricsRemineFailure: a remine that cannot finish must count
// under outcome="error" and flip the readiness gauge off.
func TestMetricsRemineFailure(t *testing.T) {
	s := newFailingRemineServer(t)
	postUpdates(t, s, `{"op":"add_vertex","vertex":"x","attrs":["A"]}`, http.StatusAccepted)
	waitRemineError(t, s)

	body := scrape(t, s)
	if v := metricValue(t, body, `scpm_remines_total{outcome="error"}`); v < 1 {
		t.Fatalf("error remines = %v, want >= 1", v)
	}
	if v := metricValue(t, body, "scpm_ready"); v != 0 {
		t.Fatalf("ready gauge after failed remine = %v, want 0", v)
	}
	if v := metricValue(t, body, "scpm_mining_active"); v != 0 {
		t.Fatalf("mining active after failed remine = %v, want 0", v)
	}
	if v := metricValue(t, body, "scpm_generation_served"); v != 1 {
		t.Fatalf("served generation = %v, want 1", v)
	}
	if v := metricValue(t, body, "scpm_generation_data"); v != 2 {
		t.Fatalf("data generation = %v, want 2", v)
	}
}

// TestReadyz: ready while healthy, not ready once a failed remine
// leaves the served generation behind the data version, ready again
// after a later remine catches up.
func TestReadyz(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	var body struct {
		Ready         bool   `json:"ready"`
		ServedVersion uint64 `json:"served_version"`
		DataVersion   uint64 `json:"data_version"`
	}
	get(t, s, "/readyz", http.StatusOK, &body)
	if !body.Ready || body.ServedVersion != 1 || body.DataVersion != 1 {
		t.Fatalf("readyz on a healthy server = %+v", body)
	}
}

func TestReadyzAfterFailedRemine(t *testing.T) {
	s := newFailingRemineServer(t)
	postUpdates(t, s, `{"op":"add_vertex","vertex":"x","attrs":["A"]}`, http.StatusAccepted)
	waitRemineError(t, s)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz after failed remine = %d; body: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "serving stale generation after failed remine") {
		t.Fatalf("readyz reason missing: %s", rec.Body)
	}
	// Liveness stays green: the old generation still serves.
	get(t, s, "/healthz", http.StatusOK, nil)
}

// newFailingRemineServer builds a live-update server whose remines
// always fail (impossible search budget).
func newFailingRemineServer(t *testing.T) *Server {
	t.Helper()
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true}
	res, err := core.Mine(t.Context(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	pBad := p
	pBad.SearchBudget = 1
	var mu sync.Mutex
	s, err := New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: p.NewEstimator(),
		Result:    res,
		Params:    &pBad,
		OnSwap: func(SwapEvent) {
			mu.Lock()
			defer mu.Unlock()
			t.Error("failed remine must not swap a generation")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitRemineError polls /version until the background remine failure
// surfaces.
func waitRemineError(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		var ver map[string]any
		get(t, s, "/version", http.StatusOK, &ver)
		if _, hasErr := ver["last_remine_error"]; hasErr {
			return
		}
		select {
		case <-deadline:
			t.Fatal("remine failure never surfaced")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
