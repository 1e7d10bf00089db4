package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	scpm "github.com/scpm/scpm"
)

// serveEndpoint is the throughput measurement of one endpoint under the
// mixed workload of the serve experiment.
type serveEndpoint struct {
	Name     string  `json:"name"`
	Path     string  `json:"path"`
	Requests int     `json:"requests"`
	WallMS   float64 `json:"wall_ms"`
	QPS      float64 `json:"qps"`
}

// serveReport is the "serve" section of BENCH_serve.json: index build
// cost, snapshot size and query throughput on the committed quickstart
// dataset (the paper's 11-vertex worked example).
type serveReport struct {
	Sets          int     `json:"sets"`
	Patterns      int     `json:"patterns"`
	MineMS        float64 `json:"mine_ms"`
	IndexBuildMS  float64 `json:"index_build_ms"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	SnapshotLoad  float64 `json:"snapshot_load_ms"`
	Workers       int     `json:"workers"`

	Endpoints []serveEndpoint `json:"endpoints"`
	TotalQPS  float64         `json:"total_qps"`
}

// serveBenchRequests is the per-endpoint request count of -exp serve;
// large enough for stable rates, small enough for CI.
const serveBenchRequests = 20000

// runServeBench measures the query-serving subsystem on the quickstart
// dataset: mine, build the index, snapshot it, then drive a fixed
// request count per endpoint through the in-process handler from
// GOMAXPROCS workers and report queries/sec. Results land in
// BENCH_serve.json (schema v3's serve section).
func runServeBench(ctx context.Context, outDir string, stdout io.Writer) error {
	g := scpm.PaperExample()
	miner, err := scpm.NewMiner(
		scpm.WithSigmaMin(3), scpm.WithGamma(0.6), scpm.WithMinSize(4),
		scpm.WithEpsMin(0.5), scpm.WithTopK(10),
	)
	if err != nil {
		return err
	}
	mineStart := time.Now()
	res, err := miner.Mine(ctx, g)
	if err != nil {
		return err
	}
	mineMS := msSince(mineStart)

	buildStart := time.Now()
	idx := scpm.NewIndex(res, g)
	buildMS := msSince(buildStart)

	// Snapshot cost: write the v3 file (graph + index), then time the
	// open that restores both, as a snapshot boot does.
	dir, err := os.MkdirTemp("", "scpm-serve-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "quickstart.scpmidx")
	if err := scpm.WriteSnapshot(snapPath, g, idx); err != nil {
		return err
	}
	st, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	snapBytes := int(st.Size())
	loadStart := time.Now()
	boot, err := scpm.OpenSnapshot(snapPath, scpm.SnapshotOptions{})
	if err != nil {
		return err
	}
	loadMS := msSince(loadStart)
	if err := boot.Close(); err != nil {
		return err
	}

	handler, err := scpm.NewServerHandler(idx, g, miner.Params(), scpm.ServerConfig{})
	if err != nil {
		return err
	}

	// Warm the epsilon cache so the hot-query row measures the cache
	// path (the cold computation is a one-off).
	if code := driveOnce(handler, "/epsilon?attrs=C"); code != http.StatusOK {
		return fmt.Errorf("serve bench: warmup /epsilon returned %d", code)
	}

	setID := res.Sets[0].ID()
	endpoints := []serveEndpoint{
		{Name: "healthz", Path: "/healthz"},
		{Name: "sets", Path: "/sets"},
		{Name: "sets_ranked", Path: "/sets?rank=epsilon&k=2"},
		{Name: "set_by_id", Path: "/sets/" + setID},
		{Name: "patterns_by_vertex", Path: "/patterns?vertex=6"},
		{Name: "vertices", Path: "/vertices/6"},
		{Name: "epsilon_indexed", Path: "/epsilon?attrs=A,B"},
		{Name: "epsilon_cached", Path: "/epsilon?attrs=C"},
	}
	workers := runtime.GOMAXPROCS(0)
	var totalRequests int
	var totalSeconds float64
	for i := range endpoints {
		ep := &endpoints[i]
		wall, err := driveEndpoint(ctx, handler, ep.Path, serveBenchRequests, workers)
		if err != nil {
			return err
		}
		ep.Requests = serveBenchRequests
		ep.WallMS = float64(wall.Microseconds()) / 1000
		ep.QPS = float64(serveBenchRequests) / wall.Seconds()
		totalRequests += ep.Requests
		totalSeconds += wall.Seconds()
		fmt.Fprintf(stdout, "serve %-18s %7d req %9.1fms %12.0f qps\n", ep.Name, ep.Requests, ep.WallMS, ep.QPS)
	}

	report := benchReport{
		Schema:  benchSchema,
		Dataset: "quickstart",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Serve: &serveReport{
			Sets:          idx.NumSets(),
			Patterns:      idx.NumPatterns(),
			MineMS:        mineMS,
			IndexBuildMS:  buildMS,
			SnapshotBytes: snapBytes,
			SnapshotLoad:  loadMS,
			Workers:       workers,
			Endpoints:     endpoints,
			TotalQPS:      float64(totalRequests) / totalSeconds,
		},
	}
	path := filepath.Join(outDir, "BENCH_serve.json")
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serve index_build=%.2fms snapshot=%dB total=%.0f qps\n",
		buildMS, snapBytes, report.Serve.TotalQPS)
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// driveOnce performs one in-process request and returns its status.
func driveOnce(h http.Handler, path string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code
}

// driveEndpoint fires n requests at the handler from the given number
// of workers and returns the wall time. Any non-200 response fails the
// run.
func driveEndpoint(ctx context.Context, h http.Handler, path string, n, workers int) (time.Duration, error) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed error
	)
	per := n / workers
	start := time.Now()
	for w := 0; w < workers; w++ {
		count := per
		if w == 0 {
			count += n % workers // remainder lands on one worker
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < count; i++ {
				if ctx.Err() != nil {
					return
				}
				if code := driveOnce(h, path); code != http.StatusOK {
					mu.Lock()
					if failed == nil {
						failed = fmt.Errorf("serve bench: GET %s returned %d", path, code)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if failed != nil {
		return 0, failed
	}
	if err := ctx.Err(); err != nil {
		return 0, scpm.ErrCanceled
	}
	return wall, nil
}

// msSince returns the elapsed time in milliseconds with microsecond
// resolution.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}
