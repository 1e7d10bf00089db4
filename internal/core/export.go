package core

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/scpm/scpm/internal/graph"
)

// jsonResult is the export schema: attribute sets and patterns with
// names resolved, so the file is self-contained.
type jsonResult struct {
	Sets     []jsonSet     `json:"sets"`
	Patterns []jsonPattern `json:"patterns"`
	Stats    jsonStats     `json:"stats"`
}

type jsonSet struct {
	// ID is the stable attribute-set identifier (AttributeSet.ID),
	// shared with CSV exports, NDJSON events and server responses.
	ID      string   `json:"id"`
	Attrs   []string `json:"attrs"`
	Support int      `json:"support"`
	Epsilon float64  `json:"epsilon"`
	ExpEps  float64  `json:"expected_epsilon"`
	// Delta is serialized as a string so +Inf survives JSON.
	Delta   string `json:"delta"`
	Covered int    `json:"covered"`
	// Estimated/EpsilonErr/Sampled describe sampling estimates; all are
	// omitted for exact ε.
	Estimated  bool    `json:"estimated,omitempty"`
	EpsilonErr float64 `json:"epsilon_err,omitempty"`
	Sampled    int     `json:"sampled_vertices,omitempty"`
}

type jsonPattern struct {
	// ID is the stable pattern identifier (Pattern.ID); SetID joins the
	// pattern to its attribute set's "id".
	ID          string   `json:"id"`
	SetID       string   `json:"set"`
	Attrs       []string `json:"attrs"`
	Vertices    []string `json:"vertices"`
	Size        int      `json:"size"`
	Density     float64  `json:"density"`
	EdgeDensity float64  `json:"edge_density"`
	Edges       int      `json:"edges"`
}

type jsonStats struct {
	SetsEvaluated   int64  `json:"sets_evaluated"`
	SetsEmitted     int64  `json:"sets_emitted"`
	PatternsEmitted int64  `json:"patterns_emitted"`
	SearchNodes     int64  `json:"search_nodes"`
	SampledVertices int64  `json:"sampled_vertices,omitempty"`
	ReusedSets      int64  `json:"reused_sets,omitempty"`
	RecomputedSets  int64  `json:"recomputed_sets,omitempty"`
	DurationMS      int64  `json:"duration_ms"`
	Duration        string `json:"duration"`
}

// WriteJSON serializes the result (with vertex labels resolved via g)
// as indented JSON.
func (r *Result) WriteJSON(w io.Writer, g *graph.Graph) error {
	out := jsonResult{
		Stats: jsonStats{
			SetsEvaluated:   r.Stats.SetsEvaluated,
			SetsEmitted:     r.Stats.SetsEmitted,
			PatternsEmitted: r.Stats.PatternsEmitted,
			SearchNodes:     r.Stats.SearchNodes,
			SampledVertices: r.Stats.SampledVertices,
			ReusedSets:      r.Stats.ReusedSets,
			RecomputedSets:  r.Stats.RecomputedSets,
			DurationMS:      r.Stats.Duration.Milliseconds(),
			Duration:        r.Stats.Duration.String(),
		},
	}
	for _, s := range r.Sets {
		out.Sets = append(out.Sets, jsonSet{
			ID:         s.ID(),
			Attrs:      s.Names,
			Support:    s.Support,
			Epsilon:    s.Epsilon,
			ExpEps:     s.ExpEps,
			Delta:      FormatDelta(s.Delta),
			Covered:    s.Covered,
			Estimated:  s.Estimated,
			EpsilonErr: s.EpsilonErr,
			Sampled:    s.SampledVertices,
		})
	}
	for _, p := range r.Patterns {
		out.Patterns = append(out.Patterns, jsonPattern{
			ID:          p.ID(),
			SetID:       p.SetID(),
			Attrs:       p.Names,
			Vertices:    p.VertexNames(g),
			Size:        p.Size(),
			Density:     p.Density(),
			EdgeDensity: p.EdgeDensity(),
			Edges:       p.Edges,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteSetsCSV writes the attribute-set table as CSV with the columns
// of the paper's case-study tables: the stable set id, attrs, support,
// epsilon, expected_epsilon, delta, covered, plus the estimation
// columns estimated (true/false) and epsilon_err (the Hoeffding
// half-width, 0 when exact).
func (r *Result) WriteSetsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "attrs", "support", "epsilon", "expected_epsilon", "delta", "covered", "estimated", "epsilon_err"}); err != nil {
		return err
	}
	for _, s := range r.Sets {
		rec := []string{
			s.ID(),
			strings.Join(s.Names, " "),
			strconv.Itoa(s.Support),
			strconv.FormatFloat(s.Epsilon, 'g', -1, 64),
			strconv.FormatFloat(s.ExpEps, 'g', -1, 64),
			FormatDelta(s.Delta),
			strconv.Itoa(s.Covered),
			strconv.FormatBool(s.Estimated),
			strconv.FormatFloat(s.EpsilonErr, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePatternsCSV writes the pattern table as CSV: the stable pattern
// id, the owning set's id, attrs, vertices, size, density,
// edge_density.
func (r *Result) WritePatternsCSV(w io.Writer, g *graph.Graph) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "set", "attrs", "vertices", "size", "density", "edge_density"}); err != nil {
		return err
	}
	for _, p := range r.Patterns {
		rec := []string{
			p.ID(),
			p.SetID(),
			strings.Join(p.Names, " "),
			strings.Join(p.VertexNames(g), " "),
			strconv.Itoa(p.Size()),
			strconv.FormatFloat(p.Density(), 'g', -1, 64),
			strconv.FormatFloat(p.EdgeDensity(), 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatDelta string-encodes δ for JSON/CSV surfaces: "inf" for +Inf
// (raw JSON numbers cannot carry it), shortest round-trip decimal
// otherwise. Exported so server responses and batch exports cannot
// diverge.
func FormatDelta(d float64) string {
	if math.IsInf(d, 1) {
		return "inf"
	}
	return strconv.FormatFloat(d, 'g', -1, 64)
}

// ParseDelta reverses FormatDelta ("inf" parses as +Inf).
func ParseDelta(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
