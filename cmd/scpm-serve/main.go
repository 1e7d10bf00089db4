// Command scpm-serve serves a mined pattern index over HTTP.
//
// On startup it either restores a binary index snapshot or mines the
// dataset with the configured parameters (reusing the scpm.Miner
// pipeline), then exposes the result through read-only JSON/NDJSON
// endpoints — /sets, /sets/{id}, /patterns, /vertices/{v}, /stats,
// /healthz — plus /epsilon, which answers structural-correlation
// queries for any attribute set: indexed sets come straight from the
// index, everything else is computed on demand by the ε-estimation
// layer (exact or sampled, per -eps-mode) behind a singleflight-
// deduplicated LRU cache, so repeated hot queries cost a map lookup.
//
// The served data is live: POST /updates accepts NDJSON graph
// operations (add/remove edge, add vertex, set/unset attribute),
// applies them atomically and re-mines incrementally in the
// background, swapping the refreshed index in without blocking
// concurrent reads; GET /version reports the data version versus the
// served version. With -snapshot each published generation also
// refreshes the snapshot, which embeds the graph, so a restart resumes
// the updated data; -no-updates serves a frozen index.
//
// Usage:
//
//	scpm-serve -attrs graph.attrs -edges graph.edges \
//	           -sigma 100 -gamma 0.5 -minsize 5 -eps 0.1 -k 5 \
//	           -addr :8080 -snapshot index.scpmidx
//
//	scpm-serve -example paper -sigma 3 -gamma 0.6 -minsize 4 -eps 0.5 -k 10
//
// With -shard k/N the process mines and serves only shard k's slice
// of an N-way partition of the attribute-set lattice (plan the
// partition and write its manifest with scpm-gateway -plan); N such
// replicas behind scpm-gateway answer queries exactly like one
// unsharded server. Updates re-derive the partition per graph version,
// so POST /updates keeps working against sharded replicas.
//
// With -manifest the shard map comes from the planner's manifest
// instead, and a v2 manifest's sealed level-1 verdicts are replayed at
// boot — the replica skips every level-1 coverage search while mining
// byte-identical output. The mining flags must match the parameters
// the manifest was sealed under (scpm-gateway -plan shares their
// defaults); a mismatch fails loudly at boot.
//
// With -snapshot the graph and index are restored from the file when
// it exists; otherwise the dataset is mined and the snapshot written
// there, so the second boot skips mining entirely. Snapshots use the v3
// format, which embeds the graph alongside the index in an mmap-able
// layout: a snapshot boot needs no -attrs/-edges at all and restores
// both in milliseconds by wrapping typed views over the mapped file,
// which pages in lazily on first touch (platforms without mmap read it
// onto the heap instead). A snapshot boot serves byte-identical
// responses to the mining boot that wrote the snapshot. A snapshot of
// the retired v2 (index-only) format fails the boot with a "regenerate
// this snapshot" error: delete it and boot from the dataset files to
// mine a fresh one. Boot phase timings are exported as
// scpm_boot_ms{phase=...} on /metrics, alongside
// scpm_snapshot_mapped_bytes and (on Linux, mapped boots)
// scpm_snapshot_resident_bytes.
//
// The process serves until SIGINT/SIGTERM, then shuts down gracefully
// (in-flight requests get a bounded grace period). Requests are logged
// to stderr unless -quiet is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/mmapio"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/server"
	"github.com/scpm/scpm/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scpm-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		attrsPath = fs.String("attrs", "", "vertex attribute file")
		edgesPath = fs.String("edges", "", "edge list file")
		example   = fs.String("example", "", `serve a built-in dataset instead of files ("paper": the 11-vertex worked example)`)
		snapshot  = fs.String("snapshot", "", "snapshot path: loaded when present, written (v3, graph included) after mining otherwise")
		addr      = fs.String("addr", ":8080", "listen address")
		metrics   = fs.String("metrics-addr", "", "additional listen address serving only /metrics and /debug/pprof (the main listener serves them too)")
		cacheSize = fs.Int("cache", server.DefaultCacheSize, "epsilon cache capacity (entries)")
		quiet     = fs.Bool("quiet", false, "disable request logging")
		sigmaMin  = fs.Int("sigma", 100, "minimum support σmin")
		gamma     = fs.Float64("gamma", 0.5, "quasi-clique density γmin (0,1]")
		minSize   = fs.Int("minsize", 5, "minimum quasi-clique size")
		epsMin    = fs.Float64("eps", 0, "minimum structural correlation εmin")
		deltaMin  = fs.Float64("delta", 0, "minimum normalized structural correlation δmin")
		k         = fs.Int("k", 5, "top-k patterns per attribute set (0 = sets only)")
		minAttrs  = fs.Int("minattrs", 1, "report only sets with ≥ this many attributes")
		maxAttrs  = fs.Int("maxattrs", 0, "bound attribute-set size (0 = unbounded)")
		par       = fs.Int("parallel", runtime.NumCPU(), "mining worker goroutines")
		shardSpec = fs.String("shard", "", `serve one slice of a sharded deployment, as "k/N" (e.g. 0/2): mine only the lattice partition shard k owns and serve it behind scpm-gateway`)
		manifest  = fs.String("manifest", "", "shard manifest file (scpm-gateway -plan): drive -shard ownership from the manifest and replay its sealed level-1 verdicts (v2) instead of re-searching them")
		noUpdates = fs.Bool("no-updates", false, "disable POST /updates (serve a frozen index)")
		budget    = fs.Int64("budget", 0, "search-node budget per quasi-clique search, for startup mining and each on-demand ε query (0 = unbounded)")
		epsMode   = fs.String("eps-mode", "exact", "on-demand ε computation: exact or sampled")
		sampleEps = fs.Float64("sample-eps", 0, "sampled mode: ε̂ half-width bound (0 = default 0.1)")
		sampleDel = fs.Float64("sample-delta", 0, "sampled mode: per-set failure probability (0 = default 0.05)")
		seed      = fs.Int64("seed", 0, "sampled mode: sampling seed")
		showVer   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, version.String("scpm-serve"))
		return 0
	}

	// One registry for the whole process: boot phase timings, boot
	// mining, the server's request/cache/remine instruments and the
	// runtime gauges all land on it, served from the main listener and
	// any -metrics-addr side listener.
	reg := scpm.NewMetricsRegistry()
	mm := obs.NewMiningMetrics(reg)
	bootMS := reg.GaugeVec("scpm_boot_ms", "Wall time of each boot phase in milliseconds.", "phase")
	if *metrics != "" {
		maddr, stopMetrics, err := obs.Start(*metrics, reg)
		if err != nil {
			fmt.Fprintln(stderr, "scpm-serve:", err)
			return 1
		}
		defer stopMetrics()
		fmt.Fprintf(stdout, "scpm-serve: metrics on %s\n", maddr)
	}

	bootStart := time.Now()
	var (
		g   *scpm.Graph
		v3  *scpm.SnapshotBoot
		err error
	)
	if *snapshot != "" {
		t0 := time.Now()
		v3, err = scpm.OpenSnapshot(*snapshot, scpm.SnapshotOptions{})
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Fresh boot: mine below and write the first snapshot.
		case err != nil:
			fmt.Fprintf(stderr, "scpm-serve: %s: %v\n", *snapshot, err)
			return 1
		default:
			// Views over the mapping serve for the whole process
			// lifetime; unmap only on the way out.
			defer v3.Close()
			bootMS.With("open_snapshot").Set(float64(time.Since(t0).Milliseconds()))
			reg.Gauge("scpm_snapshot_mapped_bytes",
				"Bytes of the v3 snapshot region opened at boot (OS-mapped, or read onto the heap where mmap is unavailable).").Set(float64(v3.MappedBytes()))
			if base := filepath.Base(*snapshot); v3.OSMapped() {
				reg.GaugeFunc("scpm_snapshot_resident_bytes",
					"Resident (faulted-in) bytes of the mapped snapshot, from /proc/self/smaps; -1 when unreadable.",
					func() float64 {
						n, ok := mmapio.ResidentBytes(base)
						if !ok {
							return -1
						}
						return float64(n)
					})
			}
			g = v3.Graph
			if *attrsPath != "" || *edgesPath != "" || *example != "" {
				fmt.Fprintln(stdout, "scpm-serve: v3 snapshot embeds its graph; -attrs/-edges/-example ignored")
			}
		}
	}
	if g == nil {
		t0 := time.Now()
		g, err = loadGraph(*attrsPath, *edgesPath, *example)
		if err != nil {
			fmt.Fprintln(stderr, "scpm-serve:", err)
			return 2
		}
		bootMS.With("graph_load").Set(float64(time.Since(t0).Milliseconds()))
	}

	opts := []scpm.Option{
		scpm.WithSigmaMin(*sigmaMin),
		scpm.WithGamma(*gamma),
		scpm.WithMinSize(*minSize),
		scpm.WithEpsMin(*epsMin),
		scpm.WithDeltaMin(*deltaMin),
		scpm.WithTopK(*k),
		scpm.WithMinAttrs(*minAttrs),
		scpm.WithMaxAttrs(*maxAttrs),
		scpm.WithParallelism(*par),
		scpm.WithSearchBudget(*budget),
	}
	if !*noUpdates {
		// Record the search lattice so POST /updates re-mines
		// incrementally from the boot result.
		opts = append(opts, scpm.WithLiveUpdates())
	}
	switch {
	case *manifest != "":
		man, err := scpm.LoadShardManifest(*manifest)
		if err != nil {
			fmt.Fprintln(stderr, "scpm-serve:", err)
			return 2
		}
		k := 0
		if *shardSpec != "" {
			var n int
			if k, n, err = parseShard(*shardSpec); err != nil {
				fmt.Fprintln(stderr, "scpm-serve:", err)
				return 2
			}
			if n != man.Shards {
				fmt.Fprintf(stderr, "scpm-serve: -shard %s against a %d-shard manifest %s\n", *shardSpec, man.Shards, *manifest)
				return 2
			}
		} else if man.Shards != 1 {
			fmt.Fprintf(stderr, "scpm-serve: manifest %s plans %d shards; pick one with -shard k/%d\n", *manifest, man.Shards, man.Shards)
			return 2
		}
		opts = append(opts, scpm.WithShardManifest(man, k))
		if man.Level1 != nil {
			fmt.Fprintf(stdout, "scpm-serve: serving shard %d/%d from manifest %s (%d sealed level-1 verdicts)\n",
				k, man.Shards, *manifest, len(man.Level1.Verdicts))
		} else {
			fmt.Fprintf(stdout, "scpm-serve: serving shard %d/%d from manifest %s\n", k, man.Shards, *manifest)
		}
	case *shardSpec != "":
		k, n, err := parseShard(*shardSpec)
		if err != nil {
			fmt.Fprintln(stderr, "scpm-serve:", err)
			return 2
		}
		opts = append(opts, scpm.WithShard(k, n))
		fmt.Fprintf(stdout, "scpm-serve: serving shard %d/%d of the attribute-set lattice\n", k, n)
	}
	switch strings.ToLower(*epsMode) {
	case "exact":
	case "sampled":
		opts = append(opts, scpm.WithEpsilonSampling(*sampleEps, *sampleDel), scpm.WithSeed(*seed))
	default:
		fmt.Fprintf(stderr, "scpm-serve: unknown -eps-mode %q (want exact or sampled)\n", *epsMode)
		return 2
	}
	miner, err := scpm.NewMiner(opts...)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-serve:", err)
		return 2
	}

	// Bind and serve before the (possibly long) boot mine: /metrics and
	// /debug/pprof answer immediately — so a boot mine can be watched
	// and profiled — while every other path returns a JSON 503 until
	// the real handler swaps in. The "listening on" line is printed only
	// after the swap; it remains the readiness signal.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-serve:", err)
		return 1
	}
	boot := obs.NewMux(reg)
	boot.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready": false, "reason": "booting: mining or restoring the index"}`)
	})
	var root swapHandler
	root.Store(boot)
	srvCtx, cancelSrv := context.WithCancel(ctx)
	defer cancelSrv()
	serveDone := make(chan error, 1)
	go func() { serveDone <- server.Serve(srvCtx, ln, &root) }()

	idx, res, err := buildIndex(ctx, miner, g, v3, *snapshot, stdout, mm, bootMS)
	if err != nil {
		if scpm.IsCanceled(err) {
			return 130
		}
		fmt.Fprintln(stderr, "scpm-serve:", err)
		return 1
	}

	var cfg scpm.ServerConfig
	cfg.CacheSize = *cacheSize
	cfg.Metrics = reg
	if !*quiet {
		logger := slog.New(slog.NewTextHandler(stderr, nil))
		if *shardSpec != "" {
			logger = logger.With(slog.String("shard", *shardSpec))
		}
		cfg.Logger = logger
	}
	if !*noUpdates {
		cfg.Result = res
		// Snapshot write-behind: every published generation refreshes
		// the snapshot so a restart resumes from the updated results.
		snapshotPath := *snapshot
		cfg.OnSwap = func(e scpm.SwapEvent) {
			fmt.Fprintf(stdout, "scpm-serve: serving v%d (%d sets, %d reused / %d recomputed, remine %s)\n",
				e.Version, len(e.Result.Sets), e.Result.Stats.ReusedSets,
				e.Result.Stats.RecomputedSets, e.RemineDuration.Round(time.Millisecond))
			if snapshotPath == "" {
				return
			}
			// Write-behind: refresh the snapshot so a restart resumes
			// the updated data. v3 embeds the graph, so no dataset
			// sidecars are needed.
			if err := scpm.WriteSnapshot(snapshotPath, e.Graph, e.Index); err != nil {
				fmt.Fprintln(stderr, "scpm-serve: snapshot write-behind:", err)
				return
			}
			fmt.Fprintf(stdout, "scpm-serve: refreshed snapshot %s (v%d)\n", snapshotPath, e.Version)
		}
	}
	handler, err := scpm.NewServerHandler(idx, g, miner.Params(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "scpm-serve:", err)
		return 2
	}

	bootMS.With("total").Set(float64(time.Since(bootStart).Milliseconds()))
	root.Store(handler)
	st := idx.Stats()
	fmt.Fprintf(stdout, "scpm-serve: serving %d sets, %d patterns\n", st.Sets, st.Patterns)
	fmt.Fprintf(stdout, "scpm-serve: listening on %s\n", ln.Addr())
	if err := <-serveDone; err != nil {
		fmt.Fprintln(stderr, "scpm-serve:", err)
		return 1
	}
	fmt.Fprintln(stdout, "scpm-serve: shut down cleanly")
	return 0
}

// swapHandler dispatches to an atomically replaceable handler — the
// boot 503 handler until the index is ready, the real server after.
type swapHandler struct {
	h atomic.Pointer[http.Handler]
}

// Store publishes h as the serving handler.
func (s *swapHandler) Store(h http.Handler) { s.h.Store(&h) }

// ServeHTTP dispatches to the current handler.
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// parseShard parses the -shard "k/N" spec.
func parseShard(spec string) (k, n int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &k, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want k/N, e.g. 0/2)", spec)
	}
	if n < 1 || k < 0 || k >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: shard index must be in 0…%d", spec, n-1)
	}
	return k, n, nil
}

// loadGraph resolves the dataset selection: two files, or a built-in
// example.
func loadGraph(attrsPath, edgesPath, example string) (*scpm.Graph, error) {
	if example != "" && (attrsPath != "" || edgesPath != "") {
		return nil, errors.New("-example cannot be combined with -attrs/-edges")
	}
	if example != "" && example != "paper" {
		return nil, fmt.Errorf("unknown -example %q (want paper)", example)
	}
	if example == "" && (attrsPath == "" || edgesPath == "") {
		return nil, errors.New("-attrs and -edges are required (or use -example paper)")
	}
	if example != "" {
		return scpm.PaperExample(), nil
	}
	return readDatasetFiles(attrsPath, edgesPath)
}

// readDatasetFiles opens and parses one attribute/edge file pair.
func readDatasetFiles(attrsPath, edgesPath string) (*scpm.Graph, error) {
	af, err := os.Open(attrsPath)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	ef, err := os.Open(edgesPath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	return scpm.ReadDataset(af, ef)
}

// buildIndex takes the index of the opened v3 snapshot when there is
// one, otherwise mines the graph and (when a snapshot path is
// configured) persists the result as a v3 snapshot for the next boot.
// It also returns the mining result backing the index — reconstructed from the snapshot tables
// when one was restored — which is what the live-update path re-mines
// from. A boot mine streams its progress into mm, so /metrics shows it
// advancing; phase wall times land on bootMS.
func buildIndex(ctx context.Context, miner *scpm.Miner, g *scpm.Graph, v3 *scpm.SnapshotBoot, snapshot string, stdout io.Writer, mm *obs.MiningMetrics, bootMS *obs.GaugeVec) (*scpm.Index, *scpm.Result, error) {
	if v3 != nil {
		// The graph and index both came out of the same v3 file, so they
		// match by construction.
		idx := v3.Index
		mapped := "heap-read"
		if v3.OSMapped() {
			mapped = "mapped"
		}
		fmt.Fprintf(stdout, "scpm-serve: restored graph+index from v3 snapshot %s (%s, %d bytes)\n",
			snapshot, mapped, v3.MappedBytes())
		fmt.Fprintln(stdout, "scpm-serve: indexed results reflect the snapshot's mining run; current mining flags apply to on-demand /epsilon only")
		// A snapshot carries no search lattice, so the first update
		// triggers a full (rather than incremental) remine; later ones
		// chain incrementally.
		res := &scpm.Result{Sets: idx.Sets(), Patterns: idx.Patterns(), Stats: idx.MiningStats()}
		return idx, res, nil
	}
	start := time.Now()
	mm.Active.Set(1)
	res, err := miner.MineWithProgress(ctx, g, scpm.SinkFuncs{Progress: func(st scpm.Stats) {
		mm.ObserveProgress(st.SetsEvaluated, st.SetsEmitted, st.PatternsEmitted,
			st.SearchNodes, st.SampledVertices, st.ReusedSets, st.RecomputedSets,
			st.ReusedVerdicts)
	}})
	mm.Active.Set(0)
	if err != nil {
		return nil, nil, err
	}
	bootMS.With("mine").Set(float64(time.Since(start).Milliseconds()))
	fmt.Fprintf(stdout, "scpm-serve: mined %d sets, %d patterns in %s\n",
		len(res.Sets), len(res.Patterns), res.Stats.Duration.Round(time.Millisecond))
	t0 := time.Now()
	idx := scpm.NewIndex(res, g)
	bootMS.With("index_build").Set(float64(time.Since(t0).Milliseconds()))
	fmt.Fprintf(stdout, "scpm-serve: index built in %s\n", time.Since(start).Round(time.Millisecond))
	if snapshot != "" {
		if err := scpm.WriteSnapshot(snapshot, g, idx); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(stdout, "scpm-serve: wrote v3 snapshot %s\n", snapshot)
	}
	return idx, res, nil
}
