package scpm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"
)

func mineQuickstart(t *testing.T) (*Graph, *Result, *Miner) {
	t.Helper()
	g := PaperExample()
	miner, err := NewMiner(
		WithSigmaMin(3), WithGamma(0.6), WithMinSize(4),
		WithEpsMin(0.5), WithTopK(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := miner.Mine(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, miner
}

func TestFacadeIndexAndSnapshot(t *testing.T) {
	g, res, _ := mineQuickstart(t)
	idx := NewIndex(res, g)
	if idx.NumSets() != len(res.Sets) || idx.NumPatterns() != len(res.Patterns) {
		t.Fatalf("index shape: %d/%d", idx.NumSets(), idx.NumPatterns())
	}
	path := filepath.Join(t.TempDir(), "quickstart.scpmidx")
	if err := WriteSnapshot(path, g, idx); err != nil {
		t.Fatal(err)
	}
	boot, err := OpenSnapshot(path, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	for _, s := range res.Sets {
		if _, ok := boot.Index.SetByID(s.ID()); !ok {
			t.Fatalf("loaded index misses %s", s.ID())
		}
	}
	top := idx.TopSets(ByEpsilon, 1)
	if len(top) != 1 || top[0].Epsilon != 1 {
		t.Fatalf("top by ε = %+v", top)
	}
}

func TestFacadeServerHandler(t *testing.T) {
	g, res, miner := mineQuickstart(t)
	h, err := NewServerHandler(NewIndex(res, g), g, miner.Params(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var health struct {
		Sets int `json:"sets"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Sets != 3 {
		t.Fatalf("healthz sets = %d", health.Sets)
	}

	// Invalid params must be rejected up front.
	if _, err := NewServerHandler(NewIndex(res, g), g, Params{}, ServerConfig{}); err == nil {
		t.Fatal("invalid params must fail")
	}

	// A nil graph serves indexed lookups only.
	bare, err := NewServerHandler(NewIndex(res, g), nil, miner.Params(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epsilon?attrs=C", nil))
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("on-demand without graph = %d", rec.Code)
	}
}

func TestFacadeServeGracefulShutdown(t *testing.T) {
	g, res, miner := mineQuickstart(t)
	h, err := NewServerHandler(NewIndex(res, g), g, miner.Params(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, "127.0.0.1:0", h) }()
	// Serve owns the listener, so the test cannot know the port; a
	// prompt cancel exercises listen + graceful shutdown.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not shut down")
	}
	if err := Serve(ctx, "256.0.0.1:99999", h); err == nil {
		t.Fatal("bad address must fail")
	}
}
