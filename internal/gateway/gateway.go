// Package gateway is the scatter-gather query front for a sharded SCPM
// deployment: one HTTP handler fanning queries out to N scpm-serve
// replicas — each serving one lattice partition per the shard manifest
// — and merging the answers so clients see the same responses a
// single-process server would produce.
//
// Routing follows the manifest's ownership rule. /epsilon, whose answer
// lives on exactly one shard, goes to that shard alone and is proxied
// verbatim. /sets/{id} scatters to every shard, because a set id is a
// hash of the set's names that the manifest cannot route, and relays
// the one shard that holds the set. Enumeration queries (/sets,
// /patterns, /vertices/{v}) scatter to every shard and merge the raw
// shard elements: the gateway decodes only each element's merge key
// (attribute names, and σ/ε/δ when ranked) and orders the elements
// canonically or under core's one ranking rule, the order the shards
// themselves use. The output is byte-identical to single-process
// output because the partitions are disjoint slices of one sorted
// result and the elements pass through unchanged. POST /updates
// forwards the NDJSON batch to every shard; /version aggregates the
// per-shard versions into a version vector and flags skew; /healthz
// reports per-shard reachability.
//
// A slow or dead replica degrades, not fails, scatter queries: after
// one bounded retry (Config.RetryBackoff) its slice is dropped from
// the merge and the response carries the PartialHeader header naming
// the missing shards (see docs/FILE_FORMATS.md). Only an /epsilon
// query whose owning shard is down, or a /sets/{id} that no reachable
// shard holds while some shard is down, answers 503.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/obs"
	"github.com/scpm/scpm/internal/server"
	"github.com/scpm/scpm/internal/shard"
)

// PartialHeader is the response header naming the shards (comma-
// separated indices) whose slice is missing from a degraded
// scatter-gather answer.
const PartialHeader = "X-Scpm-Partial-Shards"

// DefaultTimeout bounds each per-shard subrequest when
// Config.Timeout is unset.
const DefaultTimeout = 10 * time.Second

// DefaultRetryBackoff is the pause before the single retry of a
// transiently-failed GET subrequest when Config.RetryBackoff is unset.
const DefaultRetryBackoff = 50 * time.Millisecond

// maxUpdateBody bounds one forwarded POST /updates body, matching the
// shard servers' own limit.
const maxUpdateBody = 32 << 20

// Config assembles a Gateway.
type Config struct {
	// Manifest is the shard map (shard count, ownership, dataset
	// shape); required.
	Manifest *shard.Manifest
	// Shards holds one base URL per shard, indexed by shard number —
	// e.g. "http://127.0.0.1:8081". Must match Manifest.Shards.
	Shards []string
	// Timeout bounds each per-shard subrequest; 0 means DefaultTimeout.
	Timeout time.Duration
	// RetryBackoff is the pause before the one retry a transiently-
	// failed GET subrequest gets (unreachable, timed out, or 5xx)
	// before its shard is declared down; 0 means DefaultRetryBackoff,
	// negative disables retries. POSTs never retry — a replay of an
	// /updates batch whose first attempt died mid-flight could apply it
	// twice.
	RetryBackoff time.Duration
	// Client issues the subrequests; nil uses http.DefaultClient (the
	// per-shard timeout still applies through request contexts).
	Client *http.Client
	// Logger, when set, receives one structured key=value line per
	// gateway request (method, path, status, bytes, duration).
	Logger *slog.Logger
	// Metrics is the registry the gateway's instruments register on and
	// GET /metrics serves from; nil means a private registry.
	Metrics *obs.Registry
}

// Gateway is the scatter-gather handler. Build one with New; it is an
// http.Handler safe for concurrent use.
type Gateway struct {
	man     *shard.Manifest
	shards  []string
	client  *http.Client
	timeout time.Duration
	backoff time.Duration
	logger  *slog.Logger
	mux     *http.ServeMux
	root    http.Handler // mux wrapped in request instrumentation
	metrics *gwMetrics
	attrID  map[string]int32
}

// New builds the gateway and installs its routes.
func New(cfg Config) (*Gateway, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("gateway: Config.Manifest is required")
	}
	if err := cfg.Manifest.Verify(); err != nil {
		return nil, err
	}
	if len(cfg.Shards) != cfg.Manifest.Shards {
		return nil, fmt.Errorf("gateway: %d shard URLs for a %d-shard manifest", len(cfg.Shards), cfg.Manifest.Shards)
	}
	gw := &Gateway{
		man:     cfg.Manifest,
		shards:  make([]string, len(cfg.Shards)),
		client:  cfg.Client,
		timeout: cfg.Timeout,
		backoff: cfg.RetryBackoff,
		logger:  cfg.Logger,
		mux:     http.NewServeMux(),
		attrID:  make(map[string]int32),
	}
	for i, u := range cfg.Shards {
		gw.shards[i] = strings.TrimRight(u, "/")
	}
	if gw.client == nil {
		gw.client = http.DefaultClient
	}
	if gw.timeout <= 0 {
		gw.timeout = DefaultTimeout
	}
	if gw.backoff == 0 {
		gw.backoff = DefaultRetryBackoff
	}
	for id, name := range cfg.Manifest.AttrNames {
		gw.attrID[name] = int32(id)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	gw.metrics = newGwMetrics(reg)
	gw.mux.HandleFunc("GET /healthz", gw.handleHealthz)
	gw.mux.HandleFunc("GET /readyz", gw.handleReadyz)
	gw.mux.HandleFunc("GET /stats", gw.handleStats)
	gw.mux.HandleFunc("GET /sets", gw.handleList("sets", "k", true))
	gw.mux.HandleFunc("GET /sets/{id}", gw.handleSetByID)
	gw.mux.HandleFunc("GET /patterns", gw.handleList("patterns", "limit", false))
	gw.mux.HandleFunc("GET /vertices/{v}", gw.handleVertex)
	gw.mux.HandleFunc("GET /epsilon", gw.handleEpsilon)
	gw.mux.HandleFunc("GET /version", gw.handleVersion)
	gw.mux.HandleFunc("POST /updates", gw.handleUpdates)
	obs.Mount(gw.mux, reg)
	gw.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		server.WriteErr(w, http.StatusNotFound, fmt.Sprintf("unknown path %q", r.URL.Path))
	})
	gw.root = gw.metrics.http.Instrument(gw.mux, gw.observe)
	return gw, nil
}

// ServeHTTP implements http.Handler. Every request flows through the
// obs middleware before reaching the route table.
func (gw *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	gw.root.ServeHTTP(w, r)
}

// observe receives every completed request from the instrumentation
// middleware and emits the structured access-log line.
func (gw *Gateway) observe(r *http.Request, o obs.RequestObservation) {
	if gw.logger == nil {
		return
	}
	gw.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.RequestURI()),
		slog.Int("status", o.Status),
		slog.Int("bytes", o.Bytes),
		slog.Duration("duration", o.Duration),
	)
}

// shardResp is one shard's answer to a scattered subrequest.
type shardResp struct {
	shard  int
	status int
	body   []byte
	err    error
}

// ok reports a transport-level success with HTTP 200.
func (r shardResp) ok() bool { return r.err == nil && r.status == http.StatusOK }

// down reports a shard that could not answer at all: unreachable,
// timed out, or 5xx.
func (r shardResp) down() bool { return r.err != nil || r.status >= 500 }

// fetch issues one subrequest to one shard. A transiently-failed GET
// (unreachable, timed out, 5xx) gets exactly one retry after a short
// backoff before its shard is declared down — a replica mid-restart or
// shedding one overloaded request answers the retry, so the client
// never sees a partial response for a blip. POSTs are never replayed.
func (gw *Gateway) fetch(ctx context.Context, k int, method, pathAndQuery string, body []byte) shardResp {
	resp := gw.fetchOnce(ctx, k, method, pathAndQuery, body)
	if !resp.down() || method != http.MethodGet || gw.backoff < 0 {
		return resp
	}
	select {
	case <-ctx.Done():
		return resp
	case <-time.After(gw.backoff):
	}
	gw.metrics.retryAttempts.With(shardLabel(k)).Inc()
	resp = gw.fetchOnce(ctx, k, method, pathAndQuery, body)
	if resp.down() {
		gw.metrics.retryGaveUp.With(shardLabel(k)).Inc()
	}
	return resp
}

// fetchOnce issues one subrequest attempt under the gateway timeout.
func (gw *Gateway) fetchOnce(ctx context.Context, k int, method, pathAndQuery string, body []byte) shardResp {
	start := time.Now()
	defer func() {
		gw.metrics.shardDuration.With(shardLabel(k)).Observe(time.Since(start).Seconds())
	}()
	ctx, cancel := context.WithTimeout(ctx, gw.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, gw.shards[k]+pathAndQuery, rd)
	if err != nil {
		return shardResp{shard: k, err: err}
	}
	resp, err := gw.client.Do(req)
	if err != nil {
		return shardResp{shard: k, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return shardResp{shard: k, err: err}
	}
	return shardResp{shard: k, status: resp.StatusCode, body: b}
}

// scatter fans one subrequest out to every shard concurrently and
// gathers the answers, indexed by shard.
func (gw *Gateway) scatter(ctx context.Context, method, pathAndQuery string, body []byte) []shardResp {
	out := make([]shardResp, len(gw.shards))
	var wg sync.WaitGroup
	for k := range gw.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out[k] = gw.fetch(ctx, k, method, pathAndQuery, body)
		}(k)
	}
	wg.Wait()
	return out
}

// partition splits scatter answers into served slices, shards that are
// down, and (when one shard rejected the query with a 4xx) the client
// error to relay — the query is equally invalid on every shard, so one
// rejection speaks for all.
func partition(resps []shardResp) (served []shardResp, down []int, clientErr *shardResp) {
	for i := range resps {
		r := resps[i]
		switch {
		case r.ok():
			served = append(served, r)
		case r.down():
			down = append(down, r.shard)
		case r.status >= 400 && r.status < 500:
			if clientErr == nil {
				clientErr = &resps[i]
			}
		}
	}
	return served, down, clientErr
}

// degrade annotates a partial scatter answer: the PartialHeader names
// the shards whose slice is missing, the partial-response counter
// ticks once, and each missing shard's dead-shard counter ticks.
func (gw *Gateway) degrade(w http.ResponseWriter, down []int) {
	if len(down) == 0 {
		return
	}
	gw.metrics.partialResponses.Inc()
	strs := make([]string, len(down))
	for i, k := range down {
		strs[i] = strconv.Itoa(k)
		gw.metrics.deadShards.With(shardLabel(k)).Inc()
	}
	w.Header().Set(PartialHeader, strings.Join(strs, ","))
}

// relay copies a shard's response verbatim — status, JSON body, and
// (when degraded) the partial header.
func relay(w http.ResponseWriter, r shardResp) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(r.status)
	w.Write(r.body) //nolint:errcheck // client gone; nothing to do
}

// attrIDs maps attribute names to their ids in the manifest's
// attribute table — the ids a single-process server orders by. A name
// outside the table, first created by a live update after the plan,
// maps to MaxInt32: it sorts after every planned id, and elements tied
// on such names keep the order the shards sent them in.
func (gw *Gateway) attrIDs(names []string) []int32 {
	out := make([]int32, len(names))
	for i, n := range names {
		if id, ok := gw.attrID[n]; ok {
			out[i] = id
		} else {
			out[i] = math.MaxInt32
		}
	}
	return out
}

// element is one raw set or pattern from a shard answer, with the
// merge key decoded from it.
type element struct {
	raw json.RawMessage
	// key holds the planned attribute ids and, for a ranked merge, the
	// σ/ε/δ the ranking compares.
	key core.AttributeSet
	// set is the owning set's id (patterns only).
	set string
}

// decodeKey reads the merge key of one raw shard element; ranked also
// reads δ, which the ranking compares.
func (gw *Gateway) decodeKey(raw []byte, ranked bool) (element, error) {
	var k struct {
		Attrs   []string `json:"attrs"`
		Set     string   `json:"set"`
		Support int      `json:"support"`
		Epsilon float64  `json:"epsilon"`
		Delta   string   `json:"delta"`
	}
	if err := json.Unmarshal(raw, &k); err != nil {
		return element{}, err
	}
	e := element{raw: raw, set: k.Set, key: core.AttributeSet{
		Attrs:   gw.attrIDs(k.Attrs),
		Support: k.Support,
		Epsilon: k.Epsilon,
	}}
	if ranked {
		d, err := core.ParseDelta(k.Delta)
		if err != nil {
			return element{}, err
		}
		e.key.Delta = d
	}
	return e, nil
}

// merge orders the shards' element streams into one answer — under
// rank when non-nil, then canonically — and cuts it to the first limit
// (0 keeps all). Each shard cut its own answer the same way under the
// same order, so their union holds the global first limit, and each
// stream already arrives in that order. A k-way merge that takes ties
// from the earliest stream therefore yields the stable order of the
// concatenated streams: the patterns of one set, all sent by the set's
// owning shard, keep that shard's order.
func merge(streams [][]element, rank *core.Ranking, limit int) []element {
	less := func(a, b *core.AttributeSet) bool {
		if rank != nil {
			if c := rank.Compare(a, b); c != 0 {
				return c < 0
			}
		}
		return core.CompareAttrs(a.Attrs, b.Attrs) < 0
	}
	var out []element
	for limit <= 0 || len(out) < limit {
		best := -1
		for i, st := range streams {
			if len(st) > 0 && (best < 0 || less(&st[0].key, &streams[best][0].key)) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, streams[best][0])
		streams[best] = streams[best][1:]
	}
	return out
}

// raws lists the elements' raw JSON — never nil, so an empty answer
// encodes as [] like a shard's.
func raws(elems []element) []json.RawMessage {
	out := make([]json.RawMessage, len(elems))
	for i, e := range elems {
		out[i] = e.raw
	}
	return out
}

// handleList serves GET /sets (field "sets", cut by k, rankable) and
// GET /patterns (field "patterns", cut by limit). It asks every shard
// for its compact NDJSON answer, merges the lines, and answers an
// NDJSON client with them verbatim, a JSON client with them wrapped
// as {field: [...], "total": n} and indented like a shard's own JSON.
func (gw *Gateway) handleList(field, limitParam string, rankable bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var rank *core.Ranking
		if rk, ok := core.ParseRanking(q.Get("rank")); ok && rankable {
			rank = &rk
		}
		limit, _ := strconv.Atoi(q.Get(limitParam))
		q.Set("format", "ndjson")
		resps := gw.scatter(r.Context(), http.MethodGet, "/"+field+"?"+q.Encode(), nil)
		served, down, clientErr := partition(resps)
		if clientErr != nil {
			relay(w, *clientErr)
			return
		}
		if len(served) == 0 {
			server.WriteErr(w, http.StatusServiceUnavailable, "no shard answered /"+field)
			return
		}
		streams := make([][]element, len(served))
		for i, resp := range served {
			for line := range bytes.Lines(resp.body) {
				e, err := gw.decodeKey(bytes.TrimSuffix(line, []byte("\n")), rank != nil)
				if err != nil {
					server.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("shard %d: malformed /%s element: %v", resp.shard, field, err))
					return
				}
				streams[i] = append(streams[i], e)
			}
		}
		elems := merge(streams, rank, limit)
		gw.degrade(w, down)
		if server.WantNDJSON(r) {
			var buf bytes.Buffer
			for _, e := range elems {
				buf.Write(e.raw)
				buf.WriteByte('\n')
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Write(buf.Bytes()) //nolint:errcheck // client gone; nothing to do
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{field: raws(elems), "total": len(elems)})
	}
}

// handleSetByID scatters GET /sets/{id} (a set id is a hash the
// manifest cannot route): the shard holding the set answers 200 and
// its response is relayed verbatim; uniform 404 from every live shard
// means the id does not exist.
func (gw *Gateway) handleSetByID(w http.ResponseWriter, r *http.Request) {
	path := "/sets/" + url.PathEscape(r.PathValue("id"))
	resps := gw.scatter(r.Context(), http.MethodGet, path, nil)
	var notFound *shardResp
	var down []int
	for i := range resps {
		switch {
		case resps[i].ok():
			relay(w, resps[i])
			return
		case resps[i].down():
			down = append(down, resps[i].shard)
		case resps[i].status == http.StatusNotFound && notFound == nil:
			notFound = &resps[i]
		}
	}
	if len(down) > 0 {
		// The id might live on a dead shard; absence is not provable.
		gw.degrade(w, down)
		server.WriteErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("set not found on any reachable shard, and shard(s) %v did not answer", down))
		return
	}
	if notFound != nil {
		relay(w, *notFound)
		return
	}
	server.WriteErr(w, http.StatusBadGateway, "no shard produced a usable /sets/{id} answer")
}

// handleVertex scatters GET /vertices/{v} and merges the per-shard
// pattern lists; a vertex is known if any shard knows it.
func (gw *Gateway) handleVertex(w http.ResponseWriter, r *http.Request) {
	label := r.PathValue("v")
	resps := gw.scatter(r.Context(), http.MethodGet, "/vertices/"+url.PathEscape(label), nil)
	served, down, _ := partition(resps)
	if len(served) == 0 {
		if len(down) > 0 {
			gw.degrade(w, down)
			server.WriteErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("no reachable shard knows vertex %q, and shard(s) %v did not answer", label, down))
			return
		}
		for i := range resps {
			if resps[i].status == http.StatusNotFound {
				relay(w, resps[i])
				return
			}
		}
		server.WriteErr(w, http.StatusBadGateway, "no shard produced a usable /vertices answer")
		return
	}
	streams := make([][]element, len(served))
	for i, resp := range served {
		var payload struct {
			Patterns []json.RawMessage `json:"patterns"`
		}
		if err := json.Unmarshal(resp.body, &payload); err != nil {
			server.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("shard %d: malformed /vertices payload: %v", resp.shard, err))
			return
		}
		for _, raw := range payload.Patterns {
			e, err := gw.decodeKey(raw, false)
			if err != nil {
				server.WriteErr(w, http.StatusBadGateway, fmt.Sprintf("shard %d: malformed /vertices pattern: %v", resp.shard, err))
				return
			}
			streams[i] = append(streams[i], e)
		}
	}
	elems := merge(streams, nil, 0)
	setIDs := []string{}
	seen := make(map[string]bool)
	for _, e := range elems {
		if !seen[e.set] {
			seen[e.set] = true
			setIDs = append(setIDs, e.set)
		}
	}
	gw.degrade(w, down)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"vertex":   label,
		"patterns": raws(elems),
		"sets":     setIDs,
	})
}

// handleEpsilon routes GET /epsilon to the single shard owning the
// queried attribute set and relays its answer verbatim.
func (gw *Gateway) handleEpsilon(w http.ResponseWriter, r *http.Request) {
	names := server.ParseAttrList(r.URL.Query()["attrs"])
	if len(names) == 0 {
		server.WriteErr(w, http.StatusBadRequest, "attrs parameter is required (e.g. /epsilon?attrs=A,B)")
		return
	}
	owner := gw.man.Route(names)
	resp := gw.fetch(r.Context(), owner, http.MethodGet, "/epsilon?"+r.URL.RawQuery, nil)
	if resp.err != nil {
		server.WriteErr(w, http.StatusServiceUnavailable,
			fmt.Sprintf("owning shard %d is unreachable: %v", owner, resp.err))
		return
	}
	relay(w, resp)
}

// handleStats scatters GET /stats and reports the per-shard documents
// plus summed index totals.
func (gw *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	resps := gw.scatter(r.Context(), http.MethodGet, "/stats", nil)
	served, down, _ := partition(resps)
	perShard := make([]any, len(gw.shards))
	totalSets, totalPatterns := 0, 0
	for k := range perShard {
		perShard[k] = map[string]any{"shard": k, "error": "unreachable"}
	}
	for _, resp := range served {
		var doc map[string]any
		if err := json.Unmarshal(resp.body, &doc); err != nil {
			continue
		}
		doc["shard"] = resp.shard
		perShard[resp.shard] = doc
		if idx, ok := doc["index"].(map[string]any); ok {
			if v, ok := idx["sets"].(float64); ok {
				totalSets += int(v)
			}
			if v, ok := idx["patterns"].(float64); ok {
				totalPatterns += int(v)
			}
		}
	}
	gw.degrade(w, down)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"index":  map[string]any{"sets": totalSets, "patterns": totalPatterns},
		"shards": perShard,
	})
}

// shardVersion is one shard's entry in the aggregated version vector.
type shardVersion struct {
	Shard         int    `json:"shard"`
	ServedVersion uint64 `json:"served_version"`
	DataVersion   uint64 `json:"data_version"`
	Reachable     bool   `json:"reachable"`
	Error         string `json:"error,omitempty"`
}

// versionVector gathers every shard's /version into the vector plus a
// skew verdict: true when reachable shards serve different versions
// (or lag their own data head).
func (gw *Gateway) versionVector(ctx context.Context) ([]shardVersion, bool, []int) {
	resps := gw.scatter(ctx, http.MethodGet, "/version", nil)
	vec := make([]shardVersion, len(gw.shards))
	var down []int
	skew := false
	var seenServed *uint64
	for _, resp := range resps {
		sv := shardVersion{Shard: resp.shard}
		switch {
		case resp.err != nil:
			sv.Error = resp.err.Error()
		case resp.status != http.StatusOK:
			sv.Error = fmt.Sprintf("status %d", resp.status)
		default:
			var doc struct {
				ServedVersion uint64 `json:"served_version"`
				DataVersion   uint64 `json:"data_version"`
			}
			if err := json.Unmarshal(resp.body, &doc); err != nil {
				sv.Error = fmt.Sprintf("malformed /version: %v", err)
				break
			}
			sv.Reachable = true
			sv.ServedVersion = doc.ServedVersion
			sv.DataVersion = doc.DataVersion
			if doc.ServedVersion != doc.DataVersion {
				skew = true
			}
			if seenServed == nil {
				v := doc.ServedVersion
				seenServed = &v
			} else if *seenServed != doc.ServedVersion {
				skew = true
			}
		}
		if !sv.Reachable {
			down = append(down, resp.shard)
		}
		vec[resp.shard] = sv
	}
	if skew {
		gw.metrics.versionSkew.Set(1)
	} else {
		gw.metrics.versionSkew.Set(0)
	}
	return vec, skew, down
}

// handleVersion is GET /version: the aggregated version vector.
func (gw *Gateway) handleVersion(w http.ResponseWriter, r *http.Request) {
	vec, skew, down := gw.versionVector(r.Context())
	gw.degrade(w, down)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"shards": vec,
		"skew":   skew,
	})
}

// handleHealthz reports per-shard reachability and version skew. The
// gateway itself always answers 200 — "degraded" in the body is the
// operational signal.
func (gw *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	vec, skew, down := gw.versionVector(r.Context())
	status := "ok"
	if skew || len(down) > 0 {
		status = "degraded"
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status": status,
		"shards": vec,
		"skew":   skew,
	})
}

// handleUpdates forwards one POST /updates NDJSON batch to every
// shard, so all replicas apply the same delta and re-mine their slice.
func (gw *Gateway) handleUpdates(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, fmt.Sprintf("reading update body: %v", err))
		return
	}
	resps := gw.scatter(r.Context(), http.MethodPost, "/updates", body)
	perShard := make([]any, len(gw.shards))
	accepted := 0
	var down []int
	var clientErr *shardResp
	for i := range resps {
		resp := resps[i]
		entry := map[string]any{"shard": resp.shard}
		switch {
		case resp.err != nil:
			entry["error"] = resp.err.Error()
			down = append(down, resp.shard)
		case resp.status == http.StatusAccepted:
			accepted++
			var doc map[string]any
			if json.Unmarshal(resp.body, &doc) == nil {
				entry["response"] = doc
			}
		default:
			entry["status"] = resp.status
			if resp.status >= 400 && resp.status < 500 && clientErr == nil {
				clientErr = &resps[i]
			} else if resp.status >= 500 {
				down = append(down, resp.shard)
			}
		}
		perShard[resp.shard] = entry
	}
	if clientErr != nil && accepted == 0 {
		// Uniformly rejected input: relay the shard's 4xx.
		relay(w, *clientErr)
		return
	}
	status := http.StatusAccepted
	if accepted < len(gw.shards) {
		// A divergent write: some shards applied the batch, others did
		// not. 502 tells the operator the replicas have drifted (and
		// /version will flag the skew) — clients must not retry blindly.
		status = http.StatusBadGateway
	}
	gw.degrade(w, down)
	server.WriteJSON(w, status, map[string]any{
		"forwarded": len(gw.shards),
		"accepted":  accepted,
		"shards":    perShard,
	})
}
