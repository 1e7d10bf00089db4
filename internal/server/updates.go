// This file is the live-update path: POST /updates applies a batch of
// NDJSON graph operations to the data head, then a background
// goroutine re-mines incrementally (core.Remine over the accumulated
// dirty attributes) and publishes the new result with one atomic
// generation swap that concurrent readers never block on. GET /version
// reports where the data and the served results stand.

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
)

// maxUpdateBody bounds one POST /updates request body.
const maxUpdateBody = 32 << 20

// UpdateOp is one NDJSON line of a POST /updates body. Op selects the
// operation; the other fields are operands (see docs/FILE_FORMATS.md):
//
//	{"op":"add_vertex","vertex":"v9","attrs":["A","B"]}
//	{"op":"add_edge","u":"v1","v":"v2"}
//	{"op":"remove_edge","u":"v1","v":"v2"}
//	{"op":"set_attr","vertex":"v1","attr":"C"}
//	{"op":"unset_attr","vertex":"v1","attr":"C"}
type UpdateOp struct {
	Op     string   `json:"op"`
	Vertex string   `json:"vertex,omitempty"`
	Attrs  []string `json:"attrs,omitempty"`
	Attr   string   `json:"attr,omitempty"`
	U      string   `json:"u,omitempty"`
	V      string   `json:"v,omitempty"`
}

// apply records the operation into the delta.
func (op UpdateOp) apply(d *graph.Delta) error {
	switch op.Op {
	case "add_vertex":
		return d.AddVertex(op.Vertex, op.Attrs...)
	case "add_edge":
		return d.AddEdge(op.U, op.V)
	case "remove_edge":
		return d.RemoveEdge(op.U, op.V)
	case "set_attr":
		return d.SetAttr(op.Vertex, op.Attr)
	case "unset_attr":
		return d.UnsetAttr(op.Vertex, op.Attr)
	default:
		return fmt.Errorf("unknown op %q (want add_vertex, add_edge, remove_edge, set_attr or unset_attr)", op.Op)
	}
}

// SwapEvent describes one published serving generation — the
// write-behind hook's payload.
type SwapEvent struct {
	// Version is the graph data version the new generation serves.
	Version uint64
	// Graph, Result and Index are the new generation's state.
	Graph  *graph.Graph
	Result *core.Result
	Index  *index.Index
	// Changes is the (merged) change set the remine covered.
	Changes *graph.ChangeSet
	// RemineDuration is the background remine wall time.
	RemineDuration time.Duration
}

// opsError is why parseUpdateOps rejected a body: the 1-based line at
// fault, or 0 for the body as a whole.
type opsError struct {
	line int
	err  error
}

// Error renders the error as the 400 answer quotes it.
func (e *opsError) Error() string {
	if e.line == 0 {
		return e.err.Error()
	}
	return fmt.Sprintf("line %d: %v", e.line, e.err)
}

// Unwrap returns the decoder's or the scanner's error.
func (e *opsError) Unwrap() error { return e.err }

// parseUpdateOps decodes an NDJSON op stream, rejecting blank-ops,
// malformed lines and lines holding more than one JSON value with
// their line number. Every error it returns is an
// *opsError.
func parseUpdateOps(r io.Reader) ([]UpdateOp, error) {
	var ops []UpdateOp
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var op UpdateOp
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&op); err != nil {
			return nil, &opsError{line, err}
		}
		// One op per line: anything after the first value, another
		// value or garbage, is an error rather than silently dropped.
		if dec.InputOffset() != int64(len(text)) {
			return nil, &opsError{line, errors.New("trailing data after the op")}
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, &opsError{0, err}
	}
	if len(ops) == 0 {
		return nil, &opsError{0, errors.New("empty update batch")}
	}
	return ops, nil
}

// handleUpdates is POST /updates: parse the NDJSON ops, apply them
// atomically (all-or-nothing) to the data head, and schedule the
// background remine. The response returns as soon as the delta is
// applied; reads keep being served from the previous generation until
// the remine publishes the next one.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteErr(w, http.StatusMethodNotAllowed, "method not allowed (POST only)")
		return
	}
	if s.params == nil {
		WriteErr(w, http.StatusNotImplemented, "live updates are disabled (server booted without mining result and parameters)")
		return
	}
	ops, err := parseUpdateOps(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, fmt.Sprintf("parsing update ops: %v", err))
		return
	}

	s.updateMu.Lock()
	base := s.headG
	d := base.NewDelta()
	for i, op := range ops {
		if err := op.apply(d); err != nil {
			s.updateMu.Unlock()
			WriteErr(w, http.StatusBadRequest, fmt.Sprintf("op %d: %v", i+1, err))
			return
		}
	}
	ng, cs, err := base.Apply(d)
	if err != nil {
		s.updateMu.Unlock()
		WriteErr(w, http.StatusBadRequest, err.Error())
		return
	}
	s.headG = ng
	if s.pending == nil {
		s.pending = cs
	} else if err := s.pending.Merge(cs); err != nil {
		// Cannot happen: pending always ends where the head begins.
		s.updateMu.Unlock()
		WriteErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !s.remining {
		s.remining = true
		go s.remineLoop()
	}
	dataVersion := ng.Version()
	s.updateMu.Unlock()

	s.updatesAccepted.Add(1)
	s.metrics.updatesAccepted.Inc()
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"accepted":         len(ops),
		"data_version":     dataVersion,
		"served_version":   s.gen.Load().version,
		"dirty_attributes": cs.DirtyAttrs.Count(),
		"dirty_vertices":   cs.DirtyVertices.Count(),
		"added_vertices":   cs.AddedVertices,
		"added_edges":      cs.AddedEdges,
		"removed_edges":    cs.RemovedEdges,
		"attr_changes":     cs.AttrsSet + cs.AttrsUnset,
		"remine":           "scheduled",
	})
}

// remineLoop drains pending updates: each pass re-mines the current
// data head incrementally from the served generation's result and
// publishes the new generation. Updates accepted while a remine runs
// are merged and handled by the next pass, so the loop converges to
// the head and exits.
func (s *Server) remineLoop() {
	for {
		s.updateMu.Lock()
		if s.pending == nil {
			s.remining = false
			s.updateMu.Unlock()
			return
		}
		g := s.headG
		cs := s.pending
		s.pending = nil
		s.updateMu.Unlock()

		if err := s.remineOnce(g, cs); err != nil {
			msg := err.Error()
			s.lastRemineErr.Store(&msg)
			s.metrics.remines.With("error").Inc()
			s.logf("remine failed",
				slog.Uint64("to_version", cs.ToVersion),
				slog.String("error", err.Error()))
			// Put the change set back so the next accepted update (whose
			// ChangeSet starts at cs.ToVersion and merges cleanly) retries
			// the whole span; without new updates the server keeps
			// serving the last good generation.
			s.updateMu.Lock()
			if s.pending == nil {
				s.pending = cs
			} else {
				newer := s.pending
				s.pending = cs
				if err := s.pending.Merge(newer); err != nil {
					s.logf("merging pending changes failed", slog.String("error", err.Error()))
				}
				// New updates arrived while we failed: retry now.
				s.updateMu.Unlock()
				continue
			}
			s.remining = false
			s.updateMu.Unlock()
			return
		}
		s.lastRemineErr.Store(nil)
	}
}

// remineOnce runs one incremental remine + index rebuild + swap.
func (s *Server) remineOnce(g *graph.Graph, cs *graph.ChangeSet) error {
	start := time.Now()
	ngen, err := s.nextGeneration(g, cs)
	if err != nil {
		return err
	}
	s.gen.Store(ngen)
	s.cache.invalidate(cs.DirtyAttrs, ngen.version)
	s.remines.Add(1)
	s.metrics.remines.With("ok").Inc()
	s.metrics.remineDuration.Observe(time.Since(start).Seconds())
	s.logf("remine published",
		slog.Uint64("from_version", cs.FromVersion),
		slog.Uint64("to_version", cs.ToVersion),
		slog.Int("sets", len(ngen.res.Sets)),
		slog.Int64("reused", ngen.res.Stats.ReusedSets),
		slog.Int64("recomputed", ngen.res.Stats.RecomputedSets),
		slog.Duration("duration", time.Since(start).Round(time.Millisecond)))
	if s.onSwap != nil {
		s.onSwap(SwapEvent{
			Version:        ngen.version,
			Graph:          g,
			Result:         ngen.res,
			Index:          ngen.idx,
			Changes:        cs,
			RemineDuration: time.Since(start),
		})
	}
	return nil
}

// nextGeneration re-mines g incrementally from the served generation's
// result and builds the generation that publishes it. The remine streams
// its progress into the mining gauges, so a /metrics scrape mid-remine
// shows search nodes and reuse rates advancing; the active gauge is
// cleared when nextGeneration returns, before anything is published.
func (s *Server) nextGeneration(g *graph.Graph, cs *graph.ChangeSet) (*generation, error) {
	s.metrics.mining.Active.Set(1)
	defer s.metrics.mining.Active.Set(0)
	gen := s.gen.Load()
	res, err := core.Remine(context.Background(), g, *s.params, gen.res, cs, s.miningSink())
	if err != nil {
		return nil, err
	}
	s.metrics.mining.ObserveProgress(res.Stats)
	return &generation{
		version: g.Version(),
		g:       g,
		res:     res,
		idx:     gen.idx.Rebuild(res, g),
		model:   s.params.NewModel(g),
	}, nil
}

// handleVersion is GET /version: the data version at the head, the
// version the served results reflect, and the remine status between
// them.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	gen := s.gen.Load()
	out := map[string]any{
		"served_version":  gen.version,
		"data_version":    gen.version,
		"updates_enabled": s.params != nil,
		"remines":         s.remines.Load(),
	}
	if s.params != nil {
		s.updateMu.Lock()
		out["data_version"] = s.headG.Version()
		out["remine_in_progress"] = s.remining
		s.updateMu.Unlock()
	}
	if msg := s.lastRemineErr.Load(); msg != nil {
		out["last_remine_error"] = *msg
	}
	WriteJSON(w, http.StatusOK, out)
}
