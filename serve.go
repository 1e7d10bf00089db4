package scpm

import (
	"context"
	"log/slog"
	"net"
	"net/http"

	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/server"
)

// Index is a read-optimized, concurrently-queryable view of one mining
// run's output: stable-id lookups, exact and subset searches of the
// canonical set table, inverted postings (attribute → sets, vertex →
// patterns) and top-k rankings. Build one with NewIndex, or restore
// one together with its graph with OpenSnapshot; all methods are safe
// for concurrent use.
type Index = index.Index

// IndexStats summarizes an Index's shape (set/pattern/attribute counts
// plus the producing run's mining counters).
type IndexStats = index.Stats

// NewIndex builds an Index from a mining result. g must be the graph
// the result was mined from; it resolves pattern vertex ids to labels
// so the index and its snapshots are self-contained. The index takes
// res.Sets and res.Patterns by reference: do not modify them afterwards.
func NewIndex(res *Result, g *Graph) *Index { return index.Build(res, g) }

// SwapEvent describes one live-update generation swap: the new graph
// version, the incremental mining result and the rebuilt index that
// now serve reads. It is the payload of ServerConfig.OnSwap — the
// snapshot write-behind hook.
type SwapEvent = server.SwapEvent

// ServerConfig configures NewServerHandler beyond its required
// arguments.
type ServerConfig struct {
	// CacheSize bounds the /epsilon LRU cache (entries); 0 means the
	// server default (1024).
	CacheSize int
	// Logger, when set, receives one structured key=value line per
	// request plus remine lifecycle events.
	Logger *slog.Logger
	// Metrics, when set, is the registry the handler's instruments
	// register on and its GET /metrics endpoint serves. Nil means a
	// private registry — the endpoint still works, it just only sees
	// this handler's series. Share one registry (NewMetricsRegistry)
	// across layers to scrape them together.
	Metrics *MetricsRegistry
	// Result, when set together with a non-nil graph, enables the live
	// update path: POST /updates applies NDJSON graph operations and a
	// background incremental remine (Miner.Remine semantics) republishes
	// the index with an atomic swap readers never block on. Result must
	// be the result the index was built from; mine it with
	// WithLiveUpdates so the first remine is already incremental.
	Result *Result
	// OnSwap, when set, is called after every background remine
	// publishes a new generation — write the snapshot there to keep it
	// warm behind the served data.
	OnSwap func(SwapEvent)
}

// MetricsRegistry collects Prometheus-style metric families (counters,
// gauges, histograms) and renders them in the text exposition format on
// GET /metrics. Every server handler mounts one (private unless
// ServerConfig.Metrics shares it); embedders can register their own
// series on it. All methods are safe for concurrent use with hot-path
// atomic updates.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty metrics registry and pre-registers
// the process runtime gauges (goroutines, heap, GC, uptime).
func NewMetricsRegistry() *MetricsRegistry {
	reg := obs.NewRegistry()
	obs.AddRuntimeMetrics(reg)
	return reg
}

// NewServerHandler builds the HTTP query layer over an index: JSON and
// NDJSON endpoints for sets, patterns and vertices, plus on-demand
// /epsilon answers for attribute sets the mining run never emitted,
// computed by p's ε-estimation layer (exact, or sampled under
// WithEpsilonSampling-style parameters) through a singleflight-
// deduplicated LRU cache. g may be nil when only indexed lookups are
// needed (e.g. serving a snapshot without the dataset); /epsilon then
// answers indexed sets only. With ServerConfig.Result set the handler
// additionally accepts live updates (POST /updates, GET /version). See
// docs/FILE_FORMATS.md for the endpoint reference.
func NewServerHandler(idx *Index, g *Graph, p Params, cfg ServerConfig) (http.Handler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sc := server.Config{
		Index:     idx,
		CacheSize: cfg.CacheSize,
		Logger:    cfg.Logger,
		Metrics:   cfg.Metrics,
		OnSwap:    cfg.OnSwap,
	}
	if g != nil {
		sc.Graph = g
		sc.Estimator = p.NewEstimator()
		sc.Model = p.NewModel(g)
		if cfg.Result != nil {
			sc.Result = cfg.Result
			sc.Params = &p
		}
	}
	return server.New(sc)
}

// Serve runs h on addr until ctx is canceled, then shuts down
// gracefully (in-flight requests get a bounded grace period; a clean
// shutdown returns nil).
func Serve(ctx context.Context, addr string, h http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return server.Serve(ctx, ln, h)
}
