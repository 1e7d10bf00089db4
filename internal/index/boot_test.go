package index_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/datagen"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/server"
	"github.com/scpm/scpm/internal/snapshot"
)

// TestBootedServerReadsColumns serves a SynthDBLP result twice — from
// its index as built and from the same index booted out of a v3
// snapshot — and requires every query class to answer with the same
// status and bytes, while the booted index never materializes its row
// tables: each answer reads only the rows it returns.
func TestBootedServerReadsColumns(t *testing.T) {
	prof := datagen.SynthDBLP(0.05)
	g, _, err := datagen.Generate(prof.Config)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{SigmaMin: prof.SigmaMin, Gamma: prof.Gamma, MinSize: prof.MinSize, MinAttrs: prof.MinAttrs, K: 5, Parallelism: 1}
	res, err := core.Mine(context.Background(), g, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) < 100 || len(res.Patterns) == 0 {
		t.Fatalf("mined %d sets and %d patterns; the test wants a larger table", len(res.Sets), len(res.Patterns))
	}
	built := index.Build(res, g)
	path := filepath.Join(t.TempDir(), "dblp.scpmidx")
	if err := snapshot.Write(path, g, built); err != nil {
		t.Fatal(err)
	}
	serve := func(x *index.Index, g *graph.Graph) *server.Server {
		s, err := server.New(server.Config{Index: x, Graph: g, Estimator: p.NewEstimator(), Model: p.NewModel(g)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// Operands: a set with patterns, a pair of its attributes, a vertex
	// of its first pattern, and a pair of attributes no set holds.
	pat := res.Patterns[0]
	set, _ := built.SetByID(pat.SetID())
	a, b := set.Names[0], set.Names[1]
	vertex := g.VertexName(pat.Vertices[0])
	var rare string
	for c := int32(0); c < int32(g.NumAttributes()) && rare == ""; c++ {
		if name := g.AttrName(c); built.Exact([]string{a, name}) < 0 && name != a {
			rare = a + "," + name
		}
	}
	q := url.QueryEscape
	computed := "/epsilon?attrs=" + q(rare)
	paths := []string{
		"/sets/" + set.ID(),
		"/sets/" + res.Sets[len(res.Sets)-1].ID(),
		"/sets/unknown",
		"/sets?contains=" + q(a) + "&k=20",
		"/sets?contains=" + q(a) + "," + q(b) + "&rank=delta",
		"/sets?rank=support&k=10",
		"/sets?rank=epsilon&k=10",
		"/sets?rank=delta&k=10&min_support=" + "6",
		"/sets?attrs=" + q(b) + "," + q(a),
		"/sets?within=" + q(strings.Join(set.Names, ",")) + ",zzz&rank=epsilon",
		"/sets?min_eps=0.5&format=ndjson",
		"/patterns?vertex=" + q(vertex),
		"/patterns?set=" + set.ID() + "&min_size=5",
		"/vertices/" + q(vertex),
		"/epsilon?attrs=" + q(a) + "," + q(b),
		computed,
	}
	answer := func(s *server.Server, path string) (int, []byte) {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w.Code, w.Body.Bytes()
	}
	type reply struct {
		code int
		body []byte
	}
	want := make(map[string]reply)
	ref := serve(built, g)
	for _, path := range paths {
		code, body := answer(ref, path)
		want[path] = reply{code, body}
	}
	check := func(got *server.Server, path string) {
		if code, body := answer(got, path); code != want[path].code || !bytes.Equal(body, want[path].body) {
			t.Errorf("GET %s: booted %d %s\nbuilt %d %s", path, code, body, want[path].code, want[path].body)
		}
	}
	// One boot answers the paths in turn, another from several
	// goroutines at once, which race to build its lookup structures.
	for _, workers := range []int{1, 4} {
		boot, err := snapshot.Open(path, snapshot.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := serve(boot.Index, boot.Graph)
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, path := range paths {
					// Which racing request computes a new ε and which
					// reads it from the cache is up to the scheduler.
					if path != computed || workers == 1 {
						check(got, path)
					}
				}
			}()
		}
		wg.Wait()
		if index.RowsMaterialized(boot.Index) {
			t.Errorf("serving the booted index (%d workers) materialized its row tables", workers)
		}
		boot.Close()
	}
}
