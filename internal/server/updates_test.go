package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
)

// newLiveServer serves the paper example with live updates enabled;
// swaps are reported on the returned channel.
func newLiveServer(t *testing.T) (*Server, *countingEstimator, chan SwapEvent) {
	t.Helper()
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true}
	res, err := core.Mine(context.Background(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	pEst := p
	pEst.MinSize = 2
	est := &countingEstimator{inner: pEst.NewEstimator()}
	swaps := make(chan SwapEvent, 16)
	s, err := New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: est,
		Model:     p.NewModel(g),
		Result:    res,
		Params:    &p,
		OnSwap:    func(e SwapEvent) { swaps <- e },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, est, swaps
}

// postUpdates POSTs an NDJSON body and decodes the JSON response.
func postUpdates(t *testing.T, s *Server, body string, wantStatus int) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/updates", strings.NewReader(body))
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST /updates = %d, want %d; body: %s", rec.Code, wantStatus, rec.Body)
	}
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("POST /updates: invalid JSON: %v\n%s", err, rec.Body)
		}
	}
	return out
}

func waitSwap(t *testing.T, swaps chan SwapEvent) SwapEvent {
	t.Helper()
	select {
	case e := <-swaps:
		return e
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for the background remine to swap")
		return SwapEvent{}
	}
}

// TestUpdatesLifecycle walks the full path: version endpoints before,
// a batch of updates, the background remine, the atomic swap, the
// re-served results, stable ids for unchanged content and cache
// invalidation keyed by the dirty attributes.
func TestUpdatesLifecycle(t *testing.T) {
	s, est, swaps := newLiveServer(t)

	var ver map[string]any
	get(t, s, "/version", http.StatusOK, &ver)
	if ver["served_version"].(float64) != 1 || ver["data_version"].(float64) != 1 {
		t.Fatalf("initial /version = %v", ver)
	}
	if ver["updates_enabled"] != true {
		t.Fatalf("updates not enabled: %v", ver)
	}

	// Record the pre-update state of an {A}-set and the {B}-set.
	var before struct {
		Sets []setDTO `json:"sets"`
	}
	get(t, s, "/sets?attrs=A", http.StatusOK, &before)
	if len(before.Sets) != 1 {
		t.Fatalf("the paper example should serve set {A}: %+v", before.Sets)
	}
	var beforeB struct {
		Sets []setDTO `json:"sets"`
	}
	get(t, s, "/sets?attrs=B", http.StatusOK, &beforeB)
	if len(beforeB.Sets) != 1 {
		t.Fatal("the paper example should serve set {B}")
	}

	// Warm the on-demand cache with a clean set ({C}) and a dirty one
	// ({A, C}).
	var eps map[string]any
	get(t, s, "/epsilon?attrs=C", http.StatusOK, &eps)
	get(t, s, "/epsilon?attrs=A,C", http.StatusOK, &eps)
	callsAfterWarm := est.calls.Load()

	// One new vertex carrying A: σ({A}) and σ({A,B}) change, {B} does
	// not.
	resp := postUpdates(t, s, `{"op":"add_vertex","vertex":"v99","attrs":["A"]}`+"\n", http.StatusAccepted)
	if resp["accepted"].(float64) != 1 || resp["data_version"].(float64) != 2 {
		t.Fatalf("update response: %v", resp)
	}

	swap := waitSwap(t, swaps)
	if swap.Version != 2 {
		t.Fatalf("swap version = %d", swap.Version)
	}
	if swap.Result.Stats.ReusedSets == 0 {
		t.Fatalf("remine reused nothing: %+v", swap.Result.Stats)
	}

	get(t, s, "/version", http.StatusOK, &ver)
	if ver["served_version"].(float64) != 2 || ver["data_version"].(float64) != 2 {
		t.Fatalf("post-update /version = %v", ver)
	}
	if _, hasErr := ver["last_remine_error"]; hasErr {
		t.Fatalf("remine error reported: %v", ver)
	}

	// The changed set is re-served with its new support…
	var after struct {
		Sets []setDTO `json:"sets"`
	}
	get(t, s, "/sets?attrs=A", http.StatusOK, &after)
	if len(after.Sets) != 1 || after.Sets[0].Support != before.Sets[0].Support+1 {
		t.Fatalf("set {A} support = %+v, want %d", after.Sets, before.Sets[0].Support+1)
	}
	// …under the same stable id (content-addressed on the names).
	if after.Sets[0].ID != before.Sets[0].ID {
		t.Fatalf("set {A} id changed: %s vs %s", after.Sets[0].ID, before.Sets[0].ID)
	}
	// The untouched set carries its ε-derived values over by value —
	// only the δ-normalization may move, since the null model sees the
	// new global degree distribution.
	var afterB struct {
		Sets []setDTO `json:"sets"`
	}
	get(t, s, "/sets?attrs=B", http.StatusOK, &afterB)
	gotB, wantB := afterB.Sets[0], beforeB.Sets[0]
	if gotB.ID != wantB.ID || gotB.Support != wantB.Support ||
		gotB.Epsilon != wantB.Epsilon || gotB.Covered != wantB.Covered ||
		gotB.Patterns != wantB.Patterns {
		t.Fatalf("clean set {B} changed: %+v vs %+v", gotB, wantB)
	}
	if gotB.ExpectedEpsilon == wantB.ExpectedEpsilon {
		t.Fatal("expected ε was not re-normalized against the updated graph")
	}

	// Cache invalidation: {C} is clean and must still answer from the
	// cache (no new estimator call); {A, C} intersects the dirty
	// attributes and must be recomputed.
	get(t, s, "/epsilon?attrs=C", http.StatusOK, &eps)
	if eps["source"] != "cache" {
		t.Fatalf("clean cached entry was dropped: source = %v", eps["source"])
	}
	if est.calls.Load() != callsAfterWarm {
		t.Fatalf("clean cache hit triggered %d extra estimator calls", est.calls.Load()-callsAfterWarm)
	}
	get(t, s, "/epsilon?attrs=A,C", http.StatusOK, &eps)
	if eps["source"] != "computed" {
		t.Fatalf("dirty cache entry survived the update: source = %v", eps["source"])
	}
	if est.calls.Load() != callsAfterWarm+1 {
		t.Fatalf("dirty recompute ran %d estimator calls, want 1", est.calls.Load()-callsAfterWarm)
	}

	// A second batch chains: the remine consumes the lattice the first
	// remine recorded.
	postUpdates(t, s, `{"op":"set_attr","vertex":"v99","attr":"B"}`, http.StatusAccepted)
	swap = waitSwap(t, swaps)
	if swap.Version != 3 || swap.Result.Stats.ReusedSets == 0 {
		t.Fatalf("chained swap: v%d, stats %+v", swap.Version, swap.Result.Stats)
	}
	st := s.Stats()
	if st.UpdatesAccepted != 2 || st.Remines != 2 || !st.LiveUpdates {
		t.Fatalf("server stats: %+v", st)
	}
}

// TestUpdatesValidation covers the rejection paths: disabled servers,
// wrong methods, malformed bodies and invalid operations (atomic
// all-or-nothing batches).
func TestUpdatesValidation(t *testing.T) {
	bare, err := New(Config{Index: mustIndex(t)})
	if err != nil {
		t.Fatal(err)
	}
	postUpdates(t, bare, `{"op":"add_vertex","vertex":"x"}`, http.StatusNotImplemented)

	s, _, _ := newLiveServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/updates", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /updates = %d", rec.Code)
	}

	cases := []string{
		``,                                            // empty batch
		`not json`,                                    // malformed line
		`{"op":"explode"}`,                            // unknown op
		`{"op":"add_edge","u":"1","v":"nope"}`,        // unknown vertex
		`{"op":"add_vertex","vertex":"1"}`,            // duplicate vertex
		`{"op":"remove_edge","u":"1","v":"1"}`,        // self loop
		`{"op":"add_vertex","bogus_field":"x"}`,       // unknown field
		`{"op":"unset_attr","vertex":"1","attr":"Z"}`, // absent attribute
	}
	for _, body := range cases {
		postUpdates(t, s, body, http.StatusBadRequest)
	}
	// A failed batch must be atomic: valid first line, broken second.
	postUpdates(t, s, `{"op":"add_vertex","vertex":"v50"}`+"\n"+`{"op":"explode"}`, http.StatusBadRequest)
	var ver map[string]any
	get(t, s, "/version", http.StatusOK, &ver)
	if ver["data_version"].(float64) != 1 {
		t.Fatalf("rejected batch advanced the data version: %v", ver)
	}
}

// TestParseUpdateOpsOneValuePerLine pins that a line holding anything
// after its op — a second value or garbage — is rejected with its line
// number instead of being read as the first op alone.
func TestParseUpdateOpsOneValuePerLine(t *testing.T) {
	for _, tc := range []struct {
		body string
		line int
	}{
		{`{"op":"add_vertex","vertex":"a"} {"op":"explode"}`, 1},
		{`{"op":"add_edge","u":"1","v":"2"}garbage`, 1},
		{`{"op":"add_vertex","vertex":"a"}` + "\n" + `{"op":"add_edge","u":"1","v":"2"}}`, 2},
	} {
		ops, err := parseUpdateOps(strings.NewReader(tc.body))
		var oe *opsError
		if !errors.As(err, &oe) || oe.line != tc.line {
			t.Fatalf("parseUpdateOps(%q) = %v, %v; want an *opsError on line %d", tc.body, ops, err, tc.line)
		}
	}
	// Blank space around an op is not trailing data.
	if ops, err := parseUpdateOps(strings.NewReader("  {\"op\":\"add_vertex\",\"vertex\":\"a\"}\t \n")); err != nil || len(ops) != 1 {
		t.Fatalf("padded op: %v, %v", ops, err)
	}
}

// TestUpdatesConcurrentReads is the no-drop/no-block guarantee under
// -race: readers hammer every endpoint while update batches land and
// background remines swap generations; every read must complete with
// a sane 200 answer.
func TestUpdatesConcurrentReads(t *testing.T) {
	s, _, swaps := newLiveServer(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{
		"/sets", "/sets?attrs=A", "/patterns", "/healthz", "/version",
		"/epsilon?attrs=C", "/epsilon?attrs=A,B", "/stats",
	}
	errCh := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(i+r)%len(paths)]
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					select {
					case errCh <- fmt.Sprintf("%d %s", rec.Code, path):
					default:
					}
					return
				}
			}
		}(r)
	}

	for i := 0; i < 5; i++ {
		body := `{"op":"add_vertex","vertex":"w` + string(rune('a'+i)) + `","attrs":["A","B"]}`
		postUpdates(t, s, body, http.StatusAccepted)
	}
	// Every accepted update must eventually be served: wait until the
	// served version reaches the data head.
	deadline := time.After(60 * time.Second)
	for {
		var ver map[string]any
		get(t, s, "/version", http.StatusOK, &ver)
		if ver["served_version"] == ver["data_version"] && ver["remine_in_progress"] != true {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("remine never caught up: %v", ver)
		case <-swaps:
		case <-time.After(50 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	select {
	case e := <-errCh:
		t.Fatalf("concurrent read failed: %s", e)
	default:
	}

	// The final state serves the five added vertices.
	gen := s.gen.Load()
	if gen.g.NumVertices() != graph.PaperExample().NumVertices()+5 {
		t.Fatalf("final graph has %d vertices", gen.g.NumVertices())
	}
}

// TestUpdatesRemineFailureKeepsServing: a remine that cannot finish
// (search budget exhausted) must leave the previous generation serving
// and surface the error on /version.
func TestUpdatesRemineFailureKeepsServing(t *testing.T) {
	g := graph.PaperExample()
	p := core.Params{SigmaMin: 3, Gamma: 0.6, MinSize: 4, EpsMin: 0.5, K: 10, RecordLattice: true}
	res, err := core.Mine(context.Background(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The remine runs with an impossible budget, so it must fail.
	pBad := p
	pBad.SearchBudget = 1
	var mu sync.Mutex
	swapped := false
	s, err := New(Config{
		Index:     index.Build(res, g),
		Graph:     g,
		Estimator: p.NewEstimator(),
		Result:    res,
		Params:    &pBad,
		OnSwap: func(SwapEvent) {
			mu.Lock()
			swapped = true
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	postUpdates(t, s, `{"op":"add_vertex","vertex":"x","attrs":["A"]}`, http.StatusAccepted)

	deadline := time.After(30 * time.Second)
	for {
		var ver map[string]any
		get(t, s, "/version", http.StatusOK, &ver)
		if _, hasErr := ver["last_remine_error"]; hasErr {
			if ver["served_version"].(float64) != 1 || ver["data_version"].(float64) != 2 {
				t.Fatalf("failure state: %v", ver)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("remine failure never surfaced")
		case <-time.After(20 * time.Millisecond):
		}
	}
	// The old generation keeps serving.
	var health map[string]any
	get(t, s, "/healthz", http.StatusOK, &health)
	if health["version"].(float64) != 1 {
		t.Fatalf("healthz after failed remine: %v", health)
	}
	mu.Lock()
	defer mu.Unlock()
	if swapped {
		t.Fatal("failed remine must not swap a generation")
	}
}
