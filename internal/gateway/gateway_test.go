package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/server"
	"github.com/scpm/scpm/internal/shard"
)

// testGraph builds the randomized attributed graph the shard
// equivalence tests use. firstAttrs, when given, are added to vertex
// v0 ahead of its random attributes, so they are interned first.
func testGraph(t *testing.T, seed int64, firstAttrs ...string) *graph.Graph {
	t.Helper()
	return labeledGraph(t, seed, func(v int) string { return fmt.Sprintf("v%d", v) }, firstAttrs...)
}

// labeledGraph is testGraph with vertex v labeled label(v).
func labeledGraph(t *testing.T, seed int64, label func(int) string, firstAttrs ...string) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const n = 160
	const numAttrs = 6
	b := graph.NewBuilder()
	for v := 0; v < n; v++ {
		var attrs []string
		if v == 0 {
			attrs = append(attrs, firstAttrs...)
		}
		for a := 0; a < numAttrs; a++ {
			if rng.Float64() < 0.55 {
				attrs = append(attrs, fmt.Sprintf("a%d", a))
			}
		}
		if _, err := b.AddVertex(label(v), attrs...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			if err := b.AddEdge(int32(u), int32(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := 0; c < 10; c++ {
		var group []int32
		for len(group) < 6 {
			group = append(group, int32(rng.Intn(n)))
		}
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				if group[i] != group[j] && rng.Float64() < 0.9 {
					if err := b.AddEdge(group[i], group[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testParams() core.Params {
	return core.Params{
		SigmaMin:      20,
		Gamma:         0.5,
		MinSize:       4,
		EpsMin:        0.05,
		K:             3,
		MaxAttrs:      3,
		RecordLattice: true,
	}
}

// bootServer mines with p and serves the result — p carries the
// ShardOwner for replica servers and none for the reference server.
func bootServer(t *testing.T, g *graph.Graph, p core.Params) *httptest.Server {
	t.Helper()
	res, err := core.Mine(context.Background(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := index.Build(res, g)
	srv, err := server.New(server.Config{
		Index:     idx,
		Graph:     g,
		Estimator: p.NewEstimator(),
		Model:     p.NewModel(g),
		Result:    res,
		Params:    &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// bootCluster boots n shard replicas, a reference single-process
// server over the same graph, and the gateway in front of the
// replicas.
func bootCluster(t *testing.T, seed int64, n int) (gw, single *httptest.Server, man *shard.Manifest, replicas []*httptest.Server) {
	t.Helper()
	return bootClusterOn(t, testGraph(t, seed), n)
}

// bootClusterOn is bootCluster over a given graph.
func bootClusterOn(t *testing.T, g *graph.Graph, n int) (gw, single *httptest.Server, man *shard.Manifest, replicas []*httptest.Server) {
	t.Helper()
	p := testParams()
	man, err := shard.BuildManifest(g, p.SigmaMin, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for k := 0; k < n; k++ {
		// Each replica mines the same graph value; updates re-derive
		// ownership per version through the dynamic ShardOwner.
		ts := bootServer(t, g, shard.Params(p, k, n))
		replicas = append(replicas, ts)
		urls[k] = ts.URL
	}
	single = bootServer(t, g, p)
	h, err := New(Config{Manifest: man, Shards: urls, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gw = httptest.NewServer(h)
	t.Cleanup(gw.Close)
	return gw, single, man, replicas
}

func get(t *testing.T, base, path string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// requireSame asserts the gateway's answer is byte-identical to the
// single-process server's.
func requireSame(t *testing.T, gw, single *httptest.Server, path string) {
	t.Helper()
	gs, _, gb := get(t, gw.URL, path)
	ss, _, sb := get(t, single.URL, path)
	if gs != ss {
		t.Fatalf("GET %s: gateway %d, single-process %d", path, gs, ss)
	}
	if gb != sb {
		t.Fatalf("GET %s: gateway and single-process responses differ\ngateway:\n%s\nsingle:\n%s", path, gb, sb)
	}
}

// TestGatewayMatchesSingleProcess is the scatter-gather equivalence
// test: every merged or routed read answers byte-for-byte what one
// un-sharded server answers.
func TestGatewayMatchesSingleProcess(t *testing.T) {
	gw, single, man, replicas := bootCluster(t, 41, 2)

	paths := []string{
		"/sets",
		"/sets?format=ndjson",
		"/sets?rank=epsilon&k=3",
		"/sets?rank=support",
		"/sets?rank=delta&k=5",
		"/sets?min_support=25",
		"/patterns",
		"/patterns?format=ndjson",
		"/patterns?min_size=4",
	}
	for _, p := range paths {
		requireSame(t, gw, single, p)
	}

	// Single-owner routes: every emitted set's id page and ε answer.
	status, _, body := get(t, single.URL, "/sets")
	if status != http.StatusOK {
		t.Fatalf("/sets on reference server: %d", status)
	}
	ids := extract(body, `"id": "`)
	if len(ids) == 0 {
		t.Fatal("reference server serves no sets")
	}
	for _, id := range ids {
		requireSame(t, gw, single, "/sets/"+id)
	}
	attrLists := extractAttrLists(body)
	for _, attrs := range attrLists {
		requireSame(t, gw, single, "/epsilon?attrs="+attrs)
	}
	// On-demand ε for a set the mining run never emitted: pairs of
	// manifest roots not in the index still answer identically.
	if len(man.Roots) >= 2 {
		q := man.Roots[0].Attr + "," + man.Roots[len(man.Roots)-1].Attr
		requireSame(t, gw, single, "/epsilon?attrs="+q)
	}

	// A vertex lookup merges patterns across shards.
	_, _, pbody := get(t, single.URL, "/patterns?limit=1")
	if i := strings.Index(pbody, `"vertices": [`); i >= 0 {
		rest := pbody[i+len(`"vertices": [`):]
		if j := strings.Index(rest, `"`); j >= 0 {
			if k := strings.Index(rest[j+1:], `"`); k >= 0 {
				requireSame(t, gw, single, "/vertices/"+rest[j+1:j+1+k])
			}
		}
	}

	// The benchmark's merge classes: contains and limit cuts, and
	// vertex lookups over patterns from both shards, from none, and
	// for an unknown vertex.
	root := man.Roots[len(man.Roots)-1].Attr
	for _, p := range []string{
		"/sets?contains=" + root + "&k=20",
		"/sets?contains=" + root + "&format=ndjson",
		"/patterns?limit=3",
	} {
		requireSame(t, gw, single, p)
	}
	onShard := make([]map[string]bool, len(replicas))
	for k, ts := range replicas {
		onShard[k] = patternVertices(t, ts.URL)
	}
	both := ""
	for v := range onShard[0] {
		if onShard[1][v] && (both == "" || v < both) {
			both = v
		}
	}
	if both == "" {
		t.Fatal("no vertex has patterns on both shards")
	}
	requireSame(t, gw, single, "/patterns?vertex="+both)
	requireSame(t, gw, single, "/vertices/"+both)
	none := ""
	for v := 0; none == "" && v < 160; v++ {
		if l := fmt.Sprintf("v%d", v); !onShard[0][l] && !onShard[1][l] {
			none = l
		}
	}
	if none == "" {
		t.Fatal("every vertex has patterns")
	}
	if status, _, body := get(t, single.URL, "/vertices/"+none); status != http.StatusOK ||
		!strings.Contains(body, `"patterns": []`) || !strings.Contains(body, `"sets": []`) {
		t.Fatalf("/vertices/%s on reference server: %d %s, want 200 with empty lists", none, status, body)
	}
	requireSame(t, gw, single, "/vertices/"+none)
	if status, _, _ := get(t, single.URL, "/vertices/no-such-vertex"); status != http.StatusNotFound {
		t.Fatalf("/vertices/no-such-vertex on reference server: %d, want 404", status)
	}
	requireSame(t, gw, single, "/vertices/no-such-vertex")

	// Errors relay too.
	requireSame(t, gw, single, "/epsilon")
	requireSame(t, gw, single, "/sets?rank=bogus")
	requireSame(t, gw, single, "/sets/no-such-id")
}

// TestGatewayEscapesForwardedPaths: a vertex label or set id that is
// not a plain path segment ("50%", "a?b", "a/b", "a #b") reaches the
// shards escaped, so the gateway answers byte-for-byte what the single
// process answers for the same escaped path.
func TestGatewayEscapesForwardedPaths(t *testing.T) {
	forms := []string{"%d%%", "a?%d", "a/%d", "a #%d"}
	formOf := make(map[string]int)
	g := labeledGraph(t, 41, func(v int) string {
		l := fmt.Sprintf(forms[v%len(forms)], v)
		formOf[l] = v % len(forms)
		return l
	})
	gw, single, _, replicas := bootClusterOn(t, g, 2)
	labels := patternVertices(t, single.URL)
	for _, ts := range replicas {
		for l := range patternVertices(t, ts.URL) {
			if !labels[l] {
				t.Fatalf("shard lists vertex %q the single process does not", l)
			}
		}
	}
	seen := make(map[int]bool)
	for l := range labels {
		seen[formOf[l]] = true
		requireSame(t, gw, single, "/vertices/"+url.PathEscape(l))
	}
	if len(seen) != len(forms) {
		t.Fatalf("patterns cover label forms %v of %v", seen, forms)
	}
	for _, p := range []string{"/vertices/no%25such", "/vertices/no%3Fsuch", "/sets/no%3Fsuch", "/sets/no%2Fsuch", "/sets/no%25such"} {
		requireSame(t, gw, single, p)
	}
}

// patternVertices collects the vertex labels of every pattern a
// server lists.
func patternVertices(t *testing.T, base string) map[string]bool {
	t.Helper()
	_, _, body := get(t, base, "/patterns?format=ndjson")
	out := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var p struct {
			Vertices []string `json:"vertices"`
		}
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("%s/patterns line %q: %v", base, line, err)
		}
		for _, v := range p.Vertices {
			out[v] = true
		}
	}
	return out
}

// extract pulls the quoted values following each occurrence of marker.
func extract(body, marker string) []string {
	var out []string
	for i := strings.Index(body, marker); i >= 0; i = strings.Index(body, marker) {
		body = body[i+len(marker):]
		if j := strings.Index(body, `"`); j >= 0 {
			out = append(out, body[:j])
			body = body[j:]
		}
	}
	return out
}

// extractAttrLists renders each set's attrs array as a comma query.
func extractAttrLists(body string) []string {
	var out []string
	rest := body
	for {
		i := strings.Index(rest, `"attrs": [`)
		if i < 0 {
			return out
		}
		rest = rest[i+len(`"attrs": [`):]
		j := strings.Index(rest, `]`)
		if j < 0 {
			return out
		}
		segment := rest[:j]
		rest = rest[j:]
		var names []string
		for _, q := range strings.Split(segment, ",") {
			q = strings.Trim(strings.TrimSpace(q), `"`)
			if q != "" {
				names = append(names, q)
			}
		}
		if len(names) > 0 {
			out = append(out, strings.Join(names, ","))
		}
	}
}

// TestGatewayPartialDegradation kills one replica and asserts scatter
// reads degrade to partial results with the documented header — never
// a 500 — while single-owner reads for the dead shard answer 503.
func TestGatewayPartialDegradation(t *testing.T) {
	gw, _, man, replicas := bootCluster(t, 43, 2)

	// Choose an attribute owned by each shard before killing one.
	ownedBy := map[int]string{}
	for _, r := range man.Roots {
		if _, ok := ownedBy[r.Shard]; !ok {
			ownedBy[r.Shard] = r.Attr
		}
	}
	if len(ownedBy) < 2 {
		t.Skip("plan assigned all roots to one shard; degradation not observable")
	}
	replicas[1].Close()

	status, hdr, body := get(t, gw.URL, "/sets")
	if status != http.StatusOK {
		t.Fatalf("/sets with a dead shard: status %d body %s", status, body)
	}
	if got := hdr.Get(PartialHeader); got != "1" {
		t.Fatalf("/sets partial header = %q, want \"1\"", got)
	}
	if !strings.Contains(body, `"sets"`) {
		t.Fatalf("/sets degraded body lost its shape: %s", body)
	}

	// The live shard's single-owner answers still work…
	status, _, _ = get(t, gw.URL, "/epsilon?attrs="+ownedBy[0])
	if status != http.StatusOK {
		t.Fatalf("/epsilon for live shard's attr: %d", status)
	}
	// …the dead shard's answer 503.
	status, _, body = get(t, gw.URL, "/epsilon?attrs="+ownedBy[1])
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/epsilon for dead shard's attr: %d (%s), want 503", status, body)
	}

	// Health reports the degradation.
	status, _, body = get(t, gw.URL, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz: %d", status)
	}
	if !strings.Contains(body, `"status": "degraded"`) {
		t.Fatalf("/healthz does not report degraded: %s", body)
	}
}

// TestGatewayRetriesTransientFailure fronts one replica with a flaky
// proxy failing each GET's first attempt with a 503. The gateway's
// single bounded retry must hide the blip: scatter reads stay complete
// (no partial header) and byte-identical to the single-process answer,
// and single-owner routes through the flaky shard still answer 200.
func TestGatewayRetriesTransientFailure(t *testing.T) {
	p := testParams()
	g := testGraph(t, 53)
	const n = 2
	man, err := shard.BuildManifest(g, p.SigmaMin, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, n)
	for k := 0; k < n; k++ {
		ts := bootServer(t, g, shard.Params(p, k, n))
		urls[k] = ts.URL
	}
	single := bootServer(t, g, p)

	// The flaky proxy in front of shard 1: every distinct GET fails its
	// first attempt, then forwards to the real replica.
	var mu sync.Mutex
	firstAttempts := 0
	seen := map[string]bool{}
	target := urls[1]
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Method + " " + r.URL.RequestURI()
		mu.Lock()
		first := !seen[key]
		seen[key] = true
		if first {
			firstAttempts++
		}
		mu.Unlock()
		if first {
			http.Error(w, "transient overload", http.StatusServiceUnavailable)
			return
		}
		resp, err := http.Get(target + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body) //nolint:errcheck
	}))
	t.Cleanup(flaky.Close)
	urls[1] = flaky.URL

	h, err := New(Config{Manifest: man, Shards: urls, Timeout: 10 * time.Second, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(h)
	t.Cleanup(gw.Close)

	for _, path := range []string{"/sets", "/patterns", "/sets?rank=epsilon&k=3"} {
		status, hdr, body := get(t, gw.URL, path)
		if status != http.StatusOK {
			t.Fatalf("GET %s through flaky shard: %d (%s)", path, status, body)
		}
		if got := hdr.Get(PartialHeader); got != "" {
			t.Fatalf("GET %s: partial header %q despite the retry", path, got)
		}
		_, _, want := get(t, single.URL, path)
		if body != want {
			t.Fatalf("GET %s: retried answer differs from single-process\ngateway:\n%s\nsingle:\n%s", path, body, want)
		}
	}

	// A single-owner route through the flaky shard recovers too.
	for _, r := range man.Roots {
		if r.Shard != 1 {
			continue
		}
		status, _, body := get(t, gw.URL, "/epsilon?attrs="+r.Attr)
		if status != http.StatusOK {
			t.Fatalf("/epsilon via flaky shard: %d (%s)", status, body)
		}
		break
	}

	mu.Lock()
	defer mu.Unlock()
	if firstAttempts == 0 {
		t.Fatal("flaky proxy never saw a first attempt; test exercised nothing")
	}
}

// TestGatewayUpdateRoundTrip forwards one update batch through the
// gateway and asserts every replica applies it and converges to the
// same new version with no skew.
func TestGatewayUpdateRoundTrip(t *testing.T) {
	gw, _, _, replicas := bootCluster(t, 47, 2)

	ops := `{"op":"add_vertex","vertex":"fresh1","attrs":["a0","a1"]}` + "\n" +
		`{"op":"add_edge","u":"fresh1","v":"v1"}` + "\n"
	resp, err := http.Post(gw.URL+"/updates", "application/x-ndjson", strings.NewReader(ops))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /updates: %d (%s)", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), `"accepted": 2`) {
		t.Fatalf("gateway did not forward to both shards: %s", b)
	}

	// Both replicas must converge: served == data on each, and the
	// aggregated vector must settle with no skew.
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, _, body := get(t, gw.URL, "/version")
		if strings.Contains(body, `"skew": false`) && !strings.Contains(body, `"served_version": 0,`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for k, ts := range replicas {
		_, _, body := get(t, ts.URL, "/version")
		if !strings.Contains(body, `"remines": 1`) || strings.Contains(body, `"served_version": 1,`) {
			t.Fatalf("shard %d did not remine and bump its served version: %s", k, body)
		}
	}
}

// TestGatewayOrderAfterUpdate sends one update that makes frequent an
// attribute the plan interned first but saw below σ. The merged
// listings must order its new sets by its planned id, as the
// single-process server does, not after every other set.
func TestGatewayOrderAfterUpdate(t *testing.T) {
	gw, single, _, replicas := bootClusterOn(t, testGraph(t, 41, "rare"), 2)

	const n = 25
	var ops strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&ops, `{"op":"add_vertex","vertex":"r%d","attrs":["rare","a1"]}`+"\n", i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			fmt.Fprintf(&ops, `{"op":"add_edge","u":"r%d","v":"r%d"}`+"\n", i, j)
		}
	}
	for _, base := range []string{gw.URL, single.URL} {
		resp, err := http.Post(base+"/updates", "application/x-ndjson", strings.NewReader(ops.String()))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST %s/updates: %d (%s)", base, resp.StatusCode, b)
		}
	}
	for _, ts := range append(replicas, single) {
		waitRemined(t, ts.URL)
	}
	if _, _, body := get(t, single.URL, "/sets"); !strings.Contains(body, `"rare"`) {
		t.Fatalf("the update left rare infrequent:\n%s", body)
	}
	for _, p := range []string{"/sets", "/sets?format=ndjson", "/patterns"} {
		requireSame(t, gw, single, p)
	}
}

// waitRemined polls a server's /version until a remine has published
// its data head.
func waitRemined(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, _, body := get(t, base, "/version")
		var v struct {
			Served     uint64 `json:"served_version"`
			Data       uint64 `json:"data_version"`
			Remines    int64  `json:"remines"`
			InProgress bool   `json:"remine_in_progress"`
		}
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s/version: %v", base, err)
		}
		if v.Remines > 0 && v.Served == v.Data && !v.InProgress {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s did not remine: %s", base, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestGatewayMalformedShardBody puts a shard answering 200 with a body
// that is neither NDJSON nor JSON behind the gateway. Every merged
// endpoint must answer 502 with the error envelope and nothing of a
// merged body.
func TestGatewayMalformedShardBody(t *testing.T) {
	p := testParams()
	g := testGraph(t, 41)
	man, err := shard.BuildManifest(g, p.SigmaMin, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := bootServer(t, g, shard.Params(p, 0, 2))
	for _, body := range []string{"not json{", `{"attrs": ["a0"], "support": `} {
		bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, body+"\n") //nolint:errcheck
		}))
		t.Cleanup(bad.Close)
		h, err := New(Config{Manifest: man, Shards: []string{good.URL, bad.URL}, RetryBackoff: -1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		for _, path := range []string{
			"/sets", "/sets?format=ndjson", "/sets?rank=delta&k=5",
			"/patterns", "/patterns?format=ndjson", "/vertices/v1",
		} {
			status, _, got := get(t, ts.URL, path)
			var env map[string]string
			if status != http.StatusBadGateway || json.Unmarshal([]byte(got), &env) != nil ||
				len(env) != 1 || env["error"] == "" {
				t.Fatalf("GET %s with shard body %q: %d %s, want 502 with only the error envelope", path, body, status, got)
			}
		}
	}
}

// TestMergeIsStableSort checks the k-way merge against a stable sort of
// the concatenated streams on random ordered streams whose keys tie
// often, as keys of sets created after the plan do, with and without a
// ranking and a limit.
func TestMergeIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		var rank *core.Ranking
		if r := rng.Intn(4); r < 3 {
			rk := core.Ranking(r)
			rank = &rk
		}
		less := func(a, b *core.AttributeSet) bool {
			if rank != nil {
				if c := rank.Compare(a, b); c != 0 {
					return c < 0
				}
			}
			return core.CompareAttrs(a.Attrs, b.Attrs) < 0
		}
		streams := make([][]element, 1+rng.Intn(3))
		var all []element
		for i := range streams {
			for j := rng.Intn(6); j > 0; j-- {
				key := core.AttributeSet{
					Attrs:   []int32{int32(rng.Intn(3)), math.MaxInt32},
					Support: rng.Intn(3),
					Epsilon: float64(rng.Intn(3)) / 2,
					Delta:   float64(rng.Intn(3)),
				}
				streams[i] = append(streams[i], element{raw: json.RawMessage(fmt.Sprintf(`"%d.%d"`, i, j)), key: key})
			}
			sort.SliceStable(streams[i], func(a, b int) bool { return less(&streams[i][a].key, &streams[i][b].key) })
			all = append(all, streams[i]...)
		}
		sort.SliceStable(all, func(a, b int) bool { return less(&all[a].key, &all[b].key) })
		limit := rng.Intn(8)
		if limit > 0 && len(all) > limit {
			all = all[:limit]
		}
		got := merge(streams, rank, limit)
		if fmt.Sprint(raws(got)) != fmt.Sprint(raws(all)) {
			t.Fatalf("trial %d: merge = %s, stable sort = %s", trial, raws(got), raws(all))
		}
	}
}
