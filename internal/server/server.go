// Package server exposes a pattern index over HTTP: read-only JSON (and
// NDJSON) endpoints for the mined attribute sets and patterns, plus an
// on-demand /epsilon endpoint that answers structural-correlation
// queries for attribute sets the mining run never emitted, by calling
// the ε-estimation layer through a bounded, singleflight-deduplicated
// LRU cache.
//
// Endpoints (all GET; see docs/FILE_FORMATS.md for the full schemas):
//
//	/healthz            liveness + index shape
//	/stats              index, mining and server counters
//	/sets               list/filter/rank attribute sets
//	/sets/{id}          one set by stable id, with its patterns
//	/patterns           list/filter patterns
//	/vertices/{v}       patterns containing a vertex label
//	/epsilon?attrs=...  ε for any attribute set (index, cache or compute)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/epsilon"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/nullmodel"
	"github.com/scpm/scpm/internal/obs"
)

// DefaultCacheSize bounds the /epsilon LRU when Config.CacheSize is
// unset.
const DefaultCacheSize = 1024

// Config assembles a Server. Index is required; Graph and Estimator
// together enable on-demand /epsilon computation (without them the
// endpoint still serves indexed sets and fails cleanly otherwise).
// Result and Params together additionally enable the live-update path
// (POST /updates → background incremental remine → atomic index swap).
type Config struct {
	// Index is the pattern index to serve.
	Index *index.Index
	// Graph is the attributed graph the index was mined from; needed to
	// resolve attribute names and member sets for on-demand ε queries,
	// and to apply live updates.
	Graph *graph.Graph
	// Estimator answers on-demand ε queries (exact coverage search or
	// Hoeffding sampling — core.Params.NewEstimator builds either).
	Estimator epsilon.Estimator
	// Model, when set, adds expected_epsilon and delta to computed
	// answers (indexed answers always carry them). After a live update
	// the server re-derives the model for each new graph version via
	// Params.NewModel.
	Model nullmodel.Model
	// Result is the mining result Index was built from. Together with
	// Params it enables POST /updates: the server re-mines
	// incrementally from it after each accepted update batch. Mine it
	// with RecordLattice for incremental (rather than full) remines. A
	// result without a lattice is re-mined in full, which reads only
	// its Stats, so a snapshot boot passes one without rows.
	Result *core.Result
	// Params is the parameter block the result was mined with; the
	// update path re-mines with it (RecordLattice is forced on so
	// consecutive updates stay incremental).
	Params *core.Params
	// OnSwap, when set, is called after each background remine
	// publishes a new serving generation — the snapshot write-behind
	// hook. Calls are sequential.
	OnSwap func(SwapEvent)
	// CacheSize bounds the /epsilon LRU; ≤ 0 means DefaultCacheSize.
	CacheSize int
	// Logger, when set, receives one structured key=value line per
	// request (method, path, status, bytes, duration, generation) plus
	// remine lifecycle events.
	Logger *slog.Logger
	// Metrics is the registry the server's instruments register on and
	// GET /metrics serves from. Nil means a private registry, so the
	// endpoints work (and the request path pays the same instrumentation
	// cost) without any wiring. Share one registry across layers — e.g.
	// with boot-time mining — to scrape them together.
	Metrics *obs.Registry
}

// generation is one immutable serving state: a graph version with the
// index, result and null model derived from it. Readers grab the
// current generation once per request; the update path builds the next
// one off to the side and publishes it with a single atomic store.
type generation struct {
	version uint64
	g       *graph.Graph
	res     *core.Result
	idx     *index.Index
	model   nullmodel.Model
}

// Server is the HTTP query layer over a pattern index. Build one with
// New; it is an http.Handler safe for concurrent use.
type Server struct {
	gen     atomic.Pointer[generation]
	est     epsilon.Estimator
	cache   *epsCache
	logger  *slog.Logger
	mux     *http.ServeMux
	root    http.Handler // mux wrapped in request instrumentation
	metrics *serverMetrics

	// Live-update state; see updates.go. updateMu guards the data head
	// (headG, pending, remining) — never held while serving reads.
	params   *core.Params
	onSwap   func(SwapEvent)
	updateMu sync.Mutex
	headG    *graph.Graph
	pending  *graph.ChangeSet
	remining bool

	requests        atomic.Int64
	epsilonQueries  atomic.Int64
	epsilonIndexed  atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	searchNodes     atomic.Int64
	sampledVertices atomic.Int64
	updatesAccepted atomic.Int64
	remines         atomic.Int64
	lastRemineErr   atomic.Pointer[string]
}

// New builds the server and installs its routes.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("server: Config.Index is required")
	}
	s := &Server{
		est:    cfg.Estimator,
		cache:  newEpsCache(cmpOr(cfg.CacheSize, DefaultCacheSize)),
		logger: cfg.Logger,
		mux:    http.NewServeMux(),
		onSwap: cfg.OnSwap,
	}
	gen := &generation{
		g:     cfg.Graph,
		res:   cfg.Result,
		idx:   cfg.Index,
		model: cfg.Model,
	}
	if cfg.Graph != nil {
		gen.version = cfg.Graph.Version()
	}
	s.gen.Store(gen)
	s.cache.setVersion(gen.version)
	if cfg.Params != nil && cfg.Result != nil && cfg.Graph != nil {
		p := *cfg.Params
		p.RecordLattice = true
		s.params = &p
		s.headG = cfg.Graph
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newServerMetrics(reg)
	s.cache.evictions = s.metrics.cacheEvictions
	s.cache.shared = s.metrics.cacheShared
	reg.GaugeFunc("scpm_generation_served",
		"Graph version the served generation was mined at.",
		func() float64 { return float64(s.gen.Load().version) })
	reg.GaugeFunc("scpm_generation_data",
		"Graph version at the data head (accepted updates included).",
		func() float64 { return float64(s.dataVersion()) })
	reg.GaugeFunc("scpm_epsilon_cache_entries",
		"Current /epsilon LRU cache population.",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("scpm_ready",
		"1 when GET /readyz answers 200, 0 otherwise.",
		func() float64 {
			if ok, _ := s.readiness(); ok {
				return 1
			}
			return 0
		})

	s.get("/healthz", s.handleHealthz)
	s.get("/readyz", s.handleReadyz)
	s.get("/stats", s.handleStats)
	s.get("/sets", s.handleSets)
	s.get("/sets/{id}", s.handleSetByID)
	s.get("/patterns", s.handlePatterns)
	s.get("/vertices/{v}", s.handleVertex)
	s.get("/epsilon", s.handleEpsilon)
	s.get("/version", s.handleVersion)
	s.mux.HandleFunc("/updates", s.handleUpdates)
	obs.Mount(s.mux, reg)
	// Unknown paths get the JSON error envelope too, not ServeMux's
	// plain-text 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteErr(w, http.StatusNotFound, fmt.Sprintf("unknown path %q", r.URL.Path))
	})
	s.root = s.metrics.http.Instrument(s.mux, s.observe)
	return s, nil
}

// dataVersion reports the graph version at the data head (the served
// version when live updates are disabled).
func (s *Server) dataVersion() uint64 {
	if s.params == nil {
		return s.gen.Load().version
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	return s.headG.Version()
}

// readiness reports whether the server should receive traffic.
// Liveness (/healthz) it always has once New returns; readiness drops
// only when a failed remine leaves the served generation behind the
// data head — results are then stale relative to acknowledged updates,
// and a load balancer should prefer a replica that caught up.
func (s *Server) readiness() (bool, string) {
	msg := s.lastRemineErr.Load()
	if msg == nil {
		return true, ""
	}
	if s.dataVersion() == s.gen.Load().version {
		return true, ""
	}
	return false, "serving stale generation after failed remine: " + *msg
}

// handleReadyz is GET /readyz: 200 when ready, 503 with the reason
// otherwise. Distinct from /healthz, which only proves the process is
// up and serving its index.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	gen := s.gen.Load()
	out := map[string]any{
		"ready":          true,
		"served_version": gen.version,
		"data_version":   s.dataVersion(),
	}
	status := http.StatusOK
	if ok, reason := s.readiness(); !ok {
		out["ready"] = false
		out["reason"] = reason
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, out)
}

// get registers a GET/HEAD-only route that answers other methods with
// the documented JSON 405 envelope (a bare method-qualified ServeMux
// pattern would answer in plain text).
func (s *Server) get(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", http.MethodGet)
			WriteErr(w, http.StatusMethodNotAllowed, "method not allowed (GET only)")
			return
		}
		h(w, r)
	})
}

// cmpOr returns v when positive, else def.
func cmpOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// ServeHTTP implements http.Handler. Every request flows through the
// obs middleware (per-endpoint counters, latency histogram, in-flight
// gauge) before reaching the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.root.ServeHTTP(w, r)
}

// observe receives every completed request from the instrumentation
// middleware and emits the structured access-log line.
func (s *Server) observe(r *http.Request, o obs.RequestObservation) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.RequestURI()),
		slog.Int("status", o.Status),
		slog.Int("bytes", o.Bytes),
		slog.Duration("duration", o.Duration),
		slog.Uint64("generation", s.gen.Load().version),
	)
}

// logf emits one structured event line when logging is enabled.
func (s *Server) logf(msg string, attrs ...slog.Attr) {
	if s.logger == nil {
		return
	}
	s.logger.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
}

// Stats is a point-in-time snapshot of the server counters. The
// search-node and sampled-vertex totals aggregate every on-demand
// estimator call the server has made; a cache or index hit adds zero,
// which is what the serving-layer tests assert.
type Stats struct {
	// Requests counts every HTTP request received.
	Requests int64 `json:"requests"`
	// EpsilonQueries counts /epsilon requests that reached resolution
	// (indexed, cached or computed).
	EpsilonQueries int64 `json:"epsilon_queries"`
	// EpsilonIndexed counts /epsilon answers served from the index.
	EpsilonIndexed int64 `json:"epsilon_indexed"`
	// CacheHits / CacheMisses count on-demand answers served from the
	// LRU versus computed (joiners of an in-flight computation count as
	// misses).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheEntries is the current LRU population.
	CacheEntries int `json:"cache_entries"`
	// SearchNodes totals the quasi-clique search nodes spent by
	// on-demand estimator calls.
	SearchNodes int64 `json:"search_nodes"`
	// SampledVertices totals the membership samples drawn by on-demand
	// estimator calls (sampled mode only).
	SampledVertices int64 `json:"sampled_vertices"`
	// OnDemand reports whether /epsilon can compute uncached answers.
	OnDemand bool `json:"on_demand"`
	// LiveUpdates reports whether POST /updates is enabled.
	LiveUpdates bool `json:"live_updates"`
	// UpdatesAccepted counts accepted update batches.
	UpdatesAccepted int64 `json:"updates_accepted"`
	// Remines counts background remines that published a generation.
	Remines int64 `json:"remines"`
}

// Stats returns the current server counters.
func (s *Server) Stats() Stats {
	gen := s.gen.Load()
	return Stats{
		Requests:        s.requests.Load(),
		EpsilonQueries:  s.epsilonQueries.Load(),
		EpsilonIndexed:  s.epsilonIndexed.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMisses.Load(),
		CacheEntries:    s.cache.len(),
		SearchNodes:     s.searchNodes.Load(),
		SampledVertices: s.sampledVertices.Load(),
		OnDemand:        gen.g != nil && s.est != nil,
		LiveUpdates:     s.params != nil,
		UpdatesAccepted: s.updatesAccepted.Load(),
		Remines:         s.remines.Load(),
	}
}

// setDTO is the JSON shape of one attribute set, matching the batch
// export schema (ids shared, delta string-encoded so +Inf survives).
type setDTO struct {
	ID              string   `json:"id"`
	Attrs           []string `json:"attrs"`
	Support         int      `json:"support"`
	Epsilon         float64  `json:"epsilon"`
	ExpectedEpsilon float64  `json:"expected_epsilon"`
	Delta           string   `json:"delta"`
	Covered         int      `json:"covered"`
	Estimated       bool     `json:"estimated,omitempty"`
	EpsilonErr      float64  `json:"epsilon_err,omitempty"`
	SampledVertices int      `json:"sampled_vertices,omitempty"`
	Patterns        int      `json:"patterns"`
}

// patternDTO is the JSON shape of one pattern; vertices are labels.
type patternDTO struct {
	ID          string   `json:"id"`
	Set         string   `json:"set"`
	Attrs       []string `json:"attrs"`
	Vertices    []string `json:"vertices"`
	Size        int      `json:"size"`
	MinDeg      int      `json:"min_deg"`
	Edges       int      `json:"edges"`
	Density     float64  `json:"density"`
	EdgeDensity float64  `json:"edge_density"`
}

// EpsilonAnswer is the JSON shape of one /epsilon response. Source is
// "index", "cache" or "computed".
type EpsilonAnswer struct {
	ID              string   `json:"id"`
	Attrs           []string `json:"attrs"`
	Support         int      `json:"support"`
	Epsilon         float64  `json:"epsilon"`
	Covered         int      `json:"covered"`
	ExpectedEpsilon *float64 `json:"expected_epsilon,omitempty"`
	Delta           string   `json:"delta,omitempty"`
	Estimated       bool     `json:"estimated,omitempty"`
	EpsilonErr      float64  `json:"epsilon_err,omitempty"`
	SampledVertices int      `json:"sampled_vertices,omitempty"`
	Source          string   `json:"source"`
}

// setDTOOf renders set i of the index as its response DTO.
func setDTOOf(idx *index.Index, i int) setDTO {
	set := idx.Set(i)
	return setDTO{
		ID:              idx.SetID(i),
		Attrs:           set.Names,
		Support:         set.Support,
		Epsilon:         set.Epsilon,
		ExpectedEpsilon: set.ExpEps,
		Delta:           core.FormatDelta(set.Delta),
		Covered:         set.Covered,
		Estimated:       set.Estimated,
		EpsilonErr:      set.EpsilonErr,
		SampledVertices: set.SampledVertices,
		Patterns:        len(idx.PatternsOfSetByIndex(i)),
	}
}

// patternDTOOf renders pattern i of the index as its response DTO.
func patternDTOOf(idx *index.Index, i int) patternDTO {
	p := idx.Pattern(i)
	return patternDTO{
		ID:          idx.PatternID(i),
		Set:         idx.PatternSetID(i),
		Attrs:       p.Names,
		Vertices:    idx.PatternVertexNames(i),
		Size:        p.Size(),
		MinDeg:      p.MinDeg,
		Edges:       p.Edges,
		Density:     p.Density(),
		EdgeDensity: p.EdgeDensity(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	gen := s.gen.Load()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sets":     gen.idx.NumSets(),
		"patterns": gen.idx.NumPatterns(),
		"version":  gen.version,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ist := s.gen.Load().idx.Stats()
	WriteJSON(w, http.StatusOK, map[string]any{
		"index": map[string]any{
			"sets":             ist.Sets,
			"patterns":         ist.Patterns,
			"attributes":       ist.Attributes,
			"pattern_vertices": ist.PatternVertices,
		},
		"mining": map[string]any{
			"sets_evaluated":   ist.Mining.SetsEvaluated,
			"sets_emitted":     ist.Mining.SetsEmitted,
			"patterns_emitted": ist.Mining.PatternsEmitted,
			"search_nodes":     ist.Mining.SearchNodes,
			"sampled_vertices": ist.Mining.SampledVertices,
			"duration_ms":      ist.Mining.Duration.Milliseconds(),
		},
		"server": s.Stats(),
	})
}

// ParseAttrList splits repeated and comma-separated attrs parameters
// into a deduplicated name list. The gateway routes /epsilon with it,
// so routing and the shard always read the same names.
func ParseAttrList(vals []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, v := range vals {
		for _, name := range strings.Split(v, ",") {
			name = strings.TrimSpace(name)
			if name != "" && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return out
}

func (s *Server) handleSets(w http.ResponseWriter, r *http.Request) {
	idx := s.gen.Load().idx
	q := r.URL.Query()
	exact := ParseAttrList(q["attrs"])
	contains := ParseAttrList(q["contains"])
	within := ParseAttrList(q["within"])
	filters := 0
	for _, f := range [][]string{exact, contains, within} {
		if len(f) > 0 {
			filters++
		}
	}
	if filters > 1 {
		WriteErr(w, http.StatusBadRequest, "attrs, contains and within are mutually exclusive")
		return
	}

	minSupport, err := intParam(q, "min_support", 0)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	minEps, err := floatParam(q, "min_eps", 0)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	minDelta, err := floatParam(q, "min_delta", 0)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	var rank *core.Ranking
	if name := q.Get("rank"); name != "" {
		ranking, ok := core.ParseRanking(name)
		if !ok {
			WriteErr(w, http.StatusBadRequest, fmt.Sprintf("unknown rank %q (want support, epsilon or delta)", name))
			return
		}
		rank = &ranking
	}
	k, err := intParam(q, "k", 0)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}

	keep := func(i int) bool {
		support, eps, delta := idx.Scores(i)
		return support >= minSupport && eps >= minEps && delta >= minDelta
	}
	var idxs []int
	switch {
	case len(exact) > 0 || len(within) > 0:
		// These answers are small: filter them, rank them with a stable
		// sort (they ascend in canonical order, so ties stay canonical)
		// and cut.
		var cand []int
		if len(exact) > 0 {
			if i := idx.Exact(exact); i >= 0 {
				cand = []int{i}
			}
		} else {
			cand = idx.Subsets(within)
		}
		for _, i := range cand {
			if keep(i) {
				idxs = append(idxs, i)
			}
		}
		if rank != nil {
			slices.SortStableFunc(idxs, func(a, b int) int {
				var sa, sb core.AttributeSet
				sa.Support, sa.Epsilon, sa.Delta = idx.Scores(a)
				sb.Support, sb.Epsilon, sb.Delta = idx.Scores(b)
				return rank.Compare(&sa, &sb)
			})
		}
		if k > 0 && len(idxs) > k {
			idxs = idxs[:k]
		}
	case len(contains) > 0:
		if cand := idx.Containing(contains); cand != nil {
			idxs = walkSets(idx, cand, rank, k, keep)
		}
	default:
		idxs = walkSets(idx, nil, rank, k, keep)
	}

	if WantNDJSON(r) {
		writeNDJSON(w, len(idxs), func(i int) any { return setDTOOf(idx, idxs[i]) })
		return
	}
	out := make([]setDTO, len(idxs))
	for i, si := range idxs {
		out[i] = setDTOOf(idx, si)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sets": out, "total": len(out)})
}

// walkSets lists the sets of idx in cand (every set when cand is nil)
// that keep admits, in rank order when rank is set and ascending
// otherwise, and stops at the first k (0 keeps all). A ranked walk
// follows the index's ranked permutation, so neither order is sorted
// per request.
func walkSets(idx *index.Index, cand *bitset.Set, rank *core.Ranking, k int, keep func(i int) bool) []int {
	var out []int
	take := func(i int) bool {
		if (cand == nil || cand.Contains(i)) && keep(i) {
			out = append(out, i)
		}
		return k == 0 || len(out) < k
	}
	switch {
	case rank != nil:
		for _, i := range idx.Ranked(*rank) {
			if !take(int(i)) {
				break
			}
		}
	case cand != nil:
		for i := cand.NextSet(0); i >= 0 && take(i); i = cand.NextSet(i + 1) {
		}
	default:
		for i := 0; i < idx.NumSets() && take(i); i++ {
		}
	}
	return out
}

func (s *Server) handleSetByID(w http.ResponseWriter, r *http.Request) {
	idx := s.gen.Load().idx
	id := r.PathValue("id")
	si := idx.SetIndexByID(id)
	if si < 0 {
		WriteErr(w, http.StatusNotFound, fmt.Sprintf("no attribute set with id %q", id))
		return
	}
	pats := idx.PatternsOfSetByIndex(si)
	out := make([]patternDTO, len(pats))
	for i, pi := range pats {
		out[i] = patternDTOOf(idx, int(pi))
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"set":      setDTOOf(idx, si),
		"patterns": out,
	})
}

func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	idx := s.gen.Load().idx
	q := r.URL.Query()
	var idxs []int
	switch {
	case q.Get("set") != "":
		for _, pi := range idx.PatternsOfSet(q.Get("set")) {
			idxs = append(idxs, int(pi))
		}
	case q.Get("vertex") != "":
		idxs = idx.PatternsWithVertex(q.Get("vertex"))
	default:
		idxs = make([]int, idx.NumPatterns())
		for i := range idxs {
			idxs[i] = i
		}
	}
	minSize, err := intParam(q, "min_size", 0)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if minSize > 0 {
		kept := idxs[:0]
		for _, i := range idxs {
			if idx.Pattern(i).Size() >= minSize {
				kept = append(kept, i)
			}
		}
		idxs = kept
	}
	limit, err := intParam(q, "limit", 0)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	if limit > 0 && len(idxs) > limit {
		idxs = idxs[:limit]
	}
	if WantNDJSON(r) {
		writeNDJSON(w, len(idxs), func(i int) any { return patternDTOOf(idx, idxs[i]) })
		return
	}
	out := make([]patternDTO, len(idxs))
	for i, pi := range idxs {
		out[i] = patternDTOOf(idx, pi)
	}
	WriteJSON(w, http.StatusOK, map[string]any{"patterns": out, "total": len(out)})
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	gen := s.gen.Load()
	label := r.PathValue("v")
	known := gen.idx.HasVertex(label)
	if !known && gen.g != nil {
		_, known = gen.g.VertexID(label)
	}
	if !known {
		WriteErr(w, http.StatusNotFound, fmt.Sprintf("unknown vertex %q", label))
		return
	}
	pis := gen.idx.PatternsWithVertex(label)
	pats := make([]patternDTO, len(pis))
	setIDs := make([]string, 0, len(pis))
	seen := make(map[string]bool)
	for i, pi := range pis {
		pats[i] = patternDTOOf(gen.idx, pi)
		if id := pats[i].Set; !seen[id] {
			seen[id] = true
			setIDs = append(setIDs, id)
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"vertex":   label,
		"patterns": pats,
		"sets":     setIDs,
	})
}

func (s *Server) handleEpsilon(w http.ResponseWriter, r *http.Request) {
	gen := s.gen.Load()
	names := ParseAttrList(r.URL.Query()["attrs"])
	if len(names) == 0 {
		WriteErr(w, http.StatusBadRequest, "attrs parameter is required (e.g. /epsilon?attrs=A,B)")
		return
	}

	// Fast path: the mining run already scored this exact set.
	if i := gen.idx.Exact(names); i >= 0 {
		set := gen.idx.Set(i)
		s.epsilonQueries.Add(1)
		s.epsilonIndexed.Add(1)
		exp := set.ExpEps
		WriteJSON(w, http.StatusOK, EpsilonAnswer{
			ID:              gen.idx.SetID(i),
			Attrs:           set.Names,
			Support:         set.Support,
			Epsilon:         set.Epsilon,
			Covered:         set.Covered,
			ExpectedEpsilon: &exp,
			Delta:           core.FormatDelta(set.Delta),
			Estimated:       set.Estimated,
			EpsilonErr:      set.EpsilonErr,
			SampledVertices: set.SampledVertices,
			Source:          "index",
		})
		return
	}

	if gen.g == nil || s.est == nil {
		WriteErr(w, http.StatusNotImplemented, "on-demand epsilon computation is disabled (no graph/estimator configured)")
		return
	}
	attrs := make([]int32, 0, len(names))
	for _, n := range names {
		id, ok := gen.g.AttrID(n)
		if !ok {
			WriteErr(w, http.StatusNotFound, fmt.Sprintf("unknown attribute %q", n))
			return
		}
		attrs = append(attrs, id)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })

	key := attrKey(attrs)
	ans, cached, err := s.cache.do(key, attrs, gen.version, func() (EpsilonAnswer, error) {
		return computeEpsilon(gen, s, attrs)
	})
	// δ-normalization is applied at serve time against the CURRENT
	// generation's null model, never cached: the model shifts with the
	// global degree distribution on every edge/vertex update, so a
	// cached ε (which stays valid for clean sets) must not freeze the
	// expected ε it was first served with.
	if err == nil && gen.model != nil {
		exp := gen.model.Exp(ans.Support)
		ans.ExpectedEpsilon = &exp
		ans.Delta = core.FormatDelta(core.NormalizeDelta(ans.Epsilon, exp))
	}
	if err != nil {
		// A budget-bounded search that ran out is an overload signal,
		// not a server fault: 503 tells the client the query was too
		// expensive under the configured budget.
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrBudget) {
			status = http.StatusServiceUnavailable
		}
		WriteErr(w, status, err.Error())
		return
	}
	s.epsilonQueries.Add(1)
	if cached {
		s.cacheHits.Add(1)
		s.metrics.cacheHits.Inc()
		ans.Source = "cache"
	} else {
		s.cacheMisses.Add(1)
		s.metrics.cacheMisses.Inc()
		ans.Source = "computed"
	}
	WriteJSON(w, http.StatusOK, ans)
}

// computeEpsilon answers one uncached /epsilon query through the
// estimator against one consistent generation; it runs inside the
// cache's singleflight. The answer carries only the ε computation —
// δ-normalization is applied by the handler per serve, so cached
// answers track the current null model.
func computeEpsilon(gen *generation, s *Server, attrs []int32) (EpsilonAnswer, error) {
	names := gen.g.AttrSetNames(attrs)
	ans := EpsilonAnswer{
		ID:    core.SetID(names),
		Attrs: names,
	}
	members := gen.g.Members(attrs)
	ans.Support = members.Count()
	if ans.Support > 0 {
		est, err := s.est.EstimateWithCerts(gen.g, attrs, members, members, nil)
		if err != nil {
			return EpsilonAnswer{}, err
		}
		s.searchNodes.Add(est.Nodes)
		s.sampledVertices.Add(int64(est.SampledVertices))
		ans.Epsilon = est.Epsilon
		ans.Covered = est.Covered
		ans.Estimated = est.Estimated
		ans.EpsilonErr = est.ErrBound
		ans.SampledVertices = est.SampledVertices
	}
	return ans, nil
}

// attrKey renders sorted attribute ids as the cache key.
func attrKey(attrs []int32) string {
	var sb strings.Builder
	for _, a := range attrs {
		fmt.Fprintf(&sb, "%d,", a)
	}
	return sb.String()
}

// intParam parses an optional non-negative integer query parameter.
func intParam(q map[string][]string, name string, def int) (int, error) {
	vals := q[name]
	if len(vals) == 0 || vals[0] == "" {
		return def, nil
	}
	v, err := strconv.Atoi(vals[0])
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s %q (want a non-negative integer)", name, vals[0])
	}
	return v, nil
}

// floatParam parses an optional non-negative float query parameter.
// NaN is rejected with the negatives: every comparison against it is
// false, so as a threshold it would silently filter out every set.
func floatParam(q map[string][]string, name string, def float64) (float64, error) {
	vals := q[name]
	if len(vals) == 0 || vals[0] == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(vals[0], 64)
	if err != nil || !(v >= 0) {
		return 0, fmt.Errorf("bad %s %q (want a non-negative number)", name, vals[0])
	}
	return v, nil
}

// WantNDJSON reports whether the request asked for NDJSON output.
func WantNDJSON(r *http.Request) bool {
	if r.URL.Query().Get("format") == "ndjson" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// WriteJSON writes one JSON document (indent 2, sorted map keys) with
// the right headers. The gateway writes through it too, which keeps
// merged responses byte-identical to single-process ones.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeNDJSON streams n items, one JSON object per line.
func writeNDJSON(w http.ResponseWriter, n int, item func(i int) any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		if err := enc.Encode(item(i)); err != nil {
			return
		}
	}
}

// WriteErr writes the JSON error envelope {"error": msg}.
func WriteErr(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{"error": msg})
}
