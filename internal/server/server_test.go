package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
)

// countingEstimator wraps an Estimator and counts estimate calls, so
// tests can assert how many quasi-clique searches a request pattern
// actually triggered.
type countingEstimator struct {
	inner epsilon.Estimator
	calls atomic.Int64
}

// EstimateWithCerts implements epsilon.Estimator.
func (c *countingEstimator) EstimateWithCerts(g *graph.Graph, attrs []int32, members, candidates *bitset.Set, certs *epsilon.CertStore) (epsilon.Estimate, error) {
	c.calls.Add(1)
	return c.inner.EstimateWithCerts(g, attrs, members, candidates, certs)
}

// Name implements epsilon.Estimator.
func (c *countingEstimator) Name() string { return c.inner.Name() }

// newTestServer mines the paper example and serves it with a counting
// exact estimator and the analytical null model.
func newTestServer(t testing.TB, cacheSize int) (*Server, *graph.Graph, *core.Result, *countingEstimator) {
	t.Helper()
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10}
	res, err := core.Mine(context.Background(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The on-demand estimator uses min_size 2 so that queries over the
	// example's small supports (σ({C}) = 3 < the mining min_size of 4)
	// still run a real coverage search — the tests assert its node
	// spend.
	pEst := p
	pEst.MinSize = 2
	est := &countingEstimator{inner: pEst.NewEstimator()}
	s, err := New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: est,
		Model:     p.NewModel(g),
		CacheSize: cacheSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, g, res, est
}

// get performs a request and decodes the JSON body into out.
func get(t *testing.T, s *Server, path string, wantStatus int, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d, want %d; body: %s", path, rec.Code, wantStatus, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: invalid JSON: %v\n%s", path, err, rec.Body)
		}
	}
}

func TestHealthz(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	var body struct {
		Status   string `json:"status"`
		Sets     int    `json:"sets"`
		Patterns int    `json:"patterns"`
	}
	get(t, s, "/healthz", http.StatusOK, &body)
	if body.Status != "ok" || body.Sets != 3 || body.Patterns != 7 {
		t.Fatalf("healthz = %+v", body)
	}
}

type setsResponse struct {
	Sets []struct {
		ID       string   `json:"id"`
		Attrs    []string `json:"attrs"`
		Support  int      `json:"support"`
		Epsilon  float64  `json:"epsilon"`
		Delta    string   `json:"delta"`
		Patterns int      `json:"patterns"`
	} `json:"sets"`
	Total int `json:"total"`
}

func TestSetsListingFiltersAndRanking(t *testing.T) {
	s, _, res, _ := newTestServer(t, 0)

	var all setsResponse
	get(t, s, "/sets", http.StatusOK, &all)
	if all.Total != 3 || len(all.Sets) != 3 {
		t.Fatalf("all sets: %+v", all)
	}
	for i, set := range all.Sets {
		if set.ID != res.Sets[i].ID() {
			t.Fatalf("set %d id mismatch", i)
		}
	}

	var contains setsResponse
	get(t, s, "/sets?contains=A", http.StatusOK, &contains)
	if contains.Total != 2 {
		t.Fatalf("contains=A: %+v", contains)
	}

	var within setsResponse
	get(t, s, "/sets?within=A,B", http.StatusOK, &within)
	if within.Total != 3 {
		t.Fatalf("within=A,B: %+v", within)
	}

	var exact setsResponse
	get(t, s, "/sets?attrs=B,A", http.StatusOK, &exact)
	if exact.Total != 1 || len(exact.Sets[0].Attrs) != 2 {
		t.Fatalf("attrs=B,A: %+v", exact)
	}

	var ranked setsResponse
	get(t, s, "/sets?rank=support&k=1", http.StatusOK, &ranked)
	if ranked.Total != 1 || ranked.Sets[0].Support < 6 {
		t.Fatalf("rank=support&k=1: %+v", ranked)
	}

	var filtered setsResponse
	get(t, s, "/sets?min_support=7", http.StatusOK, &filtered)
	for _, set := range filtered.Sets {
		if set.Support < 7 {
			t.Fatalf("min_support violated: %+v", set)
		}
	}

	get(t, s, "/sets?attrs=A&contains=B", http.StatusBadRequest, nil)
	get(t, s, "/sets?rank=bogus", http.StatusBadRequest, nil)
	get(t, s, "/sets?k=-1", http.StatusBadRequest, nil)
	for _, bad := range []string{"-1", "NaN", "nan"} {
		get(t, s, "/sets?min_eps="+bad, http.StatusBadRequest, nil)
		get(t, s, "/sets?min_delta="+bad, http.StatusBadRequest, nil)
	}
}

func TestSetByIDAndPatterns(t *testing.T) {
	s, _, res, _ := newTestServer(t, 0)
	ab := res.SetByNames("A", "B")
	if ab == nil {
		t.Fatal("example must contain {A,B}")
	}
	var body struct {
		Set struct {
			ID string `json:"id"`
		} `json:"set"`
		Patterns []struct {
			ID       string   `json:"id"`
			Set      string   `json:"set"`
			Vertices []string `json:"vertices"`
			Size     int      `json:"size"`
		} `json:"patterns"`
	}
	get(t, s, "/sets/"+ab.ID(), http.StatusOK, &body)
	if body.Set.ID != ab.ID() || len(body.Patterns) == 0 {
		t.Fatalf("set detail: %+v", body)
	}
	for _, p := range body.Patterns {
		if p.Set != ab.ID() || len(p.Vertices) != p.Size {
			t.Fatalf("pattern detail: %+v", p)
		}
	}
	get(t, s, "/sets/ffffffffffffffff", http.StatusNotFound, nil)
}

func TestPatternsEndpoint(t *testing.T) {
	s, _, res, _ := newTestServer(t, 0)
	var all struct {
		Patterns []struct {
			ID  string `json:"id"`
			Set string `json:"set"`
		} `json:"patterns"`
		Total int `json:"total"`
	}
	get(t, s, "/patterns", http.StatusOK, &all)
	if all.Total != 7 {
		t.Fatalf("patterns: %+v", all.Total)
	}
	var byVertex struct {
		Total int `json:"total"`
	}
	get(t, s, "/patterns?vertex=6", http.StatusOK, &byVertex)
	if byVertex.Total == 0 {
		t.Fatal("vertex filter found nothing")
	}
	var bySet struct {
		Total int `json:"total"`
	}
	get(t, s, "/patterns?set="+res.Sets[0].ID(), http.StatusOK, &bySet)
	if bySet.Total == 0 {
		t.Fatal("set filter found nothing")
	}
	var sized struct {
		Patterns []struct {
			Size int `json:"size"`
		} `json:"patterns"`
	}
	get(t, s, "/patterns?min_size=6&limit=2", http.StatusOK, &sized)
	if len(sized.Patterns) != 2 {
		t.Fatalf("min_size+limit: %+v", sized)
	}
	for _, p := range sized.Patterns {
		if p.Size < 6 {
			t.Fatalf("min_size violated: %+v", p)
		}
	}
}

func TestVerticesEndpoint(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	var body struct {
		Vertex   string `json:"vertex"`
		Patterns []any  `json:"patterns"`
		Sets     []any  `json:"sets"`
	}
	get(t, s, "/vertices/6", http.StatusOK, &body)
	if body.Vertex != "6" || len(body.Patterns) == 0 || len(body.Sets) == 0 {
		t.Fatalf("vertex 6: %+v", body)
	}
	// Vertex 1 exists in the graph but sits in no pattern: 200, empty.
	get(t, s, "/vertices/1", http.StatusOK, &body)
	if len(body.Patterns) != 0 {
		t.Fatalf("vertex 1: %+v", body)
	}
	get(t, s, "/vertices/unknown-vertex", http.StatusNotFound, nil)
}

func TestNDJSONFormat(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sets?format=ndjson", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d invalid: %v", lines, err)
		}
		lines++
	}
	if lines != 3 {
		t.Fatalf("ndjson lines = %d", lines)
	}
}

type epsilonResponse struct {
	ID              string   `json:"id"`
	Attrs           []string `json:"attrs"`
	Support         int      `json:"support"`
	Epsilon         float64  `json:"epsilon"`
	Covered         int      `json:"covered"`
	ExpectedEpsilon *float64 `json:"expected_epsilon"`
	Delta           string   `json:"delta"`
	Source          string   `json:"source"`
}

func TestEpsilonIndexedAnswer(t *testing.T) {
	s, _, res, est := newTestServer(t, 0)
	var ans epsilonResponse
	get(t, s, "/epsilon?attrs=B,A", http.StatusOK, &ans)
	ab := res.SetByNames("A", "B")
	if ans.Source != "index" || ans.ID != ab.ID() || ans.Epsilon != ab.Epsilon || ans.Support != ab.Support {
		t.Fatalf("indexed answer: %+v", ans)
	}
	if est.calls.Load() != 0 {
		t.Fatal("indexed answer must not touch the estimator")
	}
	if st := s.Stats(); st.EpsilonIndexed != 1 || st.SearchNodes != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestEpsilonComputedThenCached(t *testing.T) {
	s, _, _, est := newTestServer(t, 0)

	// {C} is frequent in the example but not in the mined result
	// (ε < εmin), so this is an uncached on-demand computation.
	var first epsilonResponse
	get(t, s, "/epsilon?attrs=C", http.StatusOK, &first)
	if first.Source != "computed" || first.Support == 0 {
		t.Fatalf("first answer: %+v", first)
	}
	if first.ExpectedEpsilon == nil || first.Delta == "" {
		t.Fatalf("model fields missing: %+v", first)
	}
	if est.calls.Load() != 1 {
		t.Fatalf("estimator calls = %d", est.calls.Load())
	}
	nodesAfterCompute := s.Stats().SearchNodes
	if nodesAfterCompute == 0 {
		t.Fatal("computing ε({C}) must spend search nodes")
	}

	// The repeat answers from cache with zero additional quasi-clique
	// work — the acceptance assertion of the serving layer.
	var second epsilonResponse
	get(t, s, "/epsilon?attrs=C", http.StatusOK, &second)
	if second.Source != "cache" {
		t.Fatalf("second answer: %+v", second)
	}
	if second.Epsilon != first.Epsilon || second.Covered != first.Covered || second.ID != first.ID {
		t.Fatalf("cache answer diverged: %+v vs %+v", second, first)
	}
	if est.calls.Load() != 1 {
		t.Fatalf("cache hit ran the estimator (calls = %d)", est.calls.Load())
	}
	if st := s.Stats(); st.SearchNodes != nodesAfterCompute {
		t.Fatalf("cache hit spent %d extra search nodes", st.SearchNodes-nodesAfterCompute)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters: %+v", st)
	}
}

func TestEpsilonErrors(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	get(t, s, "/epsilon", http.StatusBadRequest, nil)
	get(t, s, "/epsilon?attrs=NoSuchAttr", http.StatusNotFound, nil)

	// Without graph/estimator the endpoint still serves indexed sets
	// but refuses on-demand computation.
	bare, err := New(Config{Index: mustIndex(t)})
	if err != nil {
		t.Fatal(err)
	}
	get(t, bare, "/epsilon?attrs=A", http.StatusOK, nil)
	get(t, bare, "/epsilon?attrs=C", http.StatusNotImplemented, nil)
}

func mustIndex(t *testing.T) *index.Index {
	t.Helper()
	g := graph.PaperExample()
	res, err := core.Mine(context.Background(), g, core.Params{
		SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return index.Build(res, g)
}

// TestEpsilonSingleflight fires a burst of identical cold queries; the
// singleflight must collapse them into one estimator call.
func TestEpsilonSingleflight(t *testing.T) {
	s, _, _, est := newTestServer(t, 0)
	const burst = 32
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epsilon?attrs=D", nil))
			if rec.Code != http.StatusOK {
				t.Errorf("status %d", rec.Code)
			}
		}()
	}
	wg.Wait()
	if got := est.calls.Load(); got != 1 {
		t.Fatalf("singleflight leaked: %d estimator calls for %d identical queries", got, burst)
	}
}

// TestEpsilonCacheEviction checks the LRU bound holds.
func TestEpsilonCacheEviction(t *testing.T) {
	s, g, _, _ := newTestServer(t, 2)
	attrs := []string{"C", "D", "E"}
	for _, a := range attrs {
		if _, ok := g.AttrID(a); !ok {
			t.Fatalf("example lacks attribute %s", a)
		}
		get(t, s, "/epsilon?attrs="+a, http.StatusOK, nil)
	}
	if got := s.Stats().CacheEntries; got != 2 {
		t.Fatalf("cache entries = %d, want 2", got)
	}
	// The oldest key {C} was evicted: querying it again recomputes.
	before := s.Stats().CacheMisses
	get(t, s, "/epsilon?attrs=C", http.StatusOK, nil)
	if got := s.Stats().CacheMisses; got != before+1 {
		t.Fatalf("expected recompute after eviction (misses %d → %d)", before, got)
	}
}

// TestConcurrentMixedWorkload hammers every endpoint from many
// goroutines; run with -race this is the serving-layer concurrency
// gate.
func TestConcurrentMixedWorkload(t *testing.T) {
	s, _, res, _ := newTestServer(t, 8)
	paths := []string{
		"/healthz",
		"/stats",
		"/sets",
		"/sets?rank=epsilon&k=2",
		"/sets?contains=A&format=ndjson",
		"/sets/" + res.Sets[0].ID(),
		"/patterns?vertex=6",
		"/patterns?min_size=6",
		"/vertices/7",
		"/epsilon?attrs=A,B",
		"/epsilon?attrs=C",
		"/epsilon?attrs=D",
		"/epsilon?attrs=C,D",
	}
	const workers = 16
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				path := paths[(w+i)%len(paths)]
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.Requests != workers*perWorker {
		t.Fatalf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	var body struct {
		Index struct {
			Sets int `json:"sets"`
		} `json:"index"`
		Mining struct {
			SetsEmitted int64 `json:"sets_emitted"`
		} `json:"mining"`
		Server Stats `json:"server"`
	}
	get(t, s, "/stats", http.StatusOK, &body)
	if body.Index.Sets != 3 || body.Mining.SetsEmitted != 3 {
		t.Fatalf("stats: %+v", body)
	}
	if !body.Server.OnDemand {
		t.Fatal("on_demand should be true with graph+estimator")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sets", strings.NewReader("{}")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /sets = %d", rec.Code)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("405 must carry the JSON error envelope, got %q", rec.Body)
	}
}

func TestUnknownPathJSON404(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/no/such/endpoint", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", rec.Code)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("404 must carry the JSON error envelope, got %q", rec.Body)
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	s, _, _, _ := newTestServer(t, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, s) }()

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
}

// panickyEstimator panics on its first call, then delegates — the
// singleflight cleanup must survive it.
type panickyEstimator struct {
	inner epsilon.Estimator
	first atomic.Bool
}

// EstimateWithCerts implements epsilon.Estimator.
func (p *panickyEstimator) EstimateWithCerts(g *graph.Graph, attrs []int32, members, candidates *bitset.Set, certs *epsilon.CertStore) (epsilon.Estimate, error) {
	if !p.first.Swap(true) {
		panic("injected estimator failure")
	}
	return p.inner.EstimateWithCerts(g, attrs, members, candidates, certs)
}

// Name implements epsilon.Estimator.
func (p *panickyEstimator) Name() string { return p.inner.Name() }

// TestEpsilonPanicDoesNotWedgeKey injects a panic into the first
// computation of a key: the request must fail with 500 (not hang), and
// a retry of the same key must compute normally — i.e. the inflight
// entry was cleaned up.
func TestEpsilonPanicDoesNotWedgeKey(t *testing.T) {
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 2, EpsMin: 0.5, K: 10}
	res, err := core.Mine(context.Background(), g, core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: &panickyEstimator{inner: p.NewEstimator()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epsilon?attrs=C", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "panicked") {
		t.Fatalf("panicking computation: %d %s", rec.Code, rec.Body)
	}
	// Same key again: must not hang on a leaked inflight entry.
	get(t, s, "/epsilon?attrs=C", http.StatusOK, nil)
}

// TestEpsilonBudgetExceeded bounds the on-demand search and expects a
// clean 503 when a query exhausts it.
func TestEpsilonBudgetExceeded(t *testing.T) {
	g := graph.PaperExample()
	res, err := core.Mine(context.Background(), g, core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pEst := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 2, EpsMin: 0.5, K: 10, SearchBudget: 1}
	s, err := New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: pEst.NewEstimator(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epsilon?attrs=C", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("budget-bounded query: %d %s", rec.Code, rec.Body)
	}
}
