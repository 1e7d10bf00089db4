package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Parent is 0 for a root span. Req, when non-zero, is
// the load generator's request number the span served.
type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Req     int64  `json:"req,omitempty"`
	Phase   string `json:"phase"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory while it is on and writes them out when
// the run ends. A nil or switched-off tracer records nothing, so every
// call site stays in place in untraced runs at the cost of one atomic
// load.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setPhase switches recording on for the named phase, or off for "".
func (t *tracer) setPhase(phase string) {
	t.mu.Lock()
	t.phase = phase
	t.mu.Unlock()
	t.on.Store(phase != "")
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newID reserves a span id (0 when not recording).
func (t *tracer) newID() int64 {
	if !t.active() {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(name string, id, parent, req int64, start, end time.Time) {
	if !t.active() || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent, Req: req, Phase: t.phase,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// do runs fn as a span named name under parent and returns fn's error.
// fn receives the span's id so it can parent child spans.
func (t *tracer) do(name string, parent int64, fn func(id int64) error) error {
	id := t.newID()
	start := time.Now()
	err := fn(id)
	t.record(name, id, parent, 0, start, time.Now())
	return err
}

// aggregate records a child span whose duration is the summed time of
// many short calls (εexp lookups), placed at the end of its parent so
// that self-time subtraction sees it. Recording each call separately
// would cost more than the calls.
func (t *tracer) aggregate(name string, parent int64, total time.Duration, parentEnd time.Time) {
	if total <= 0 {
		return
	}
	t.record(name, t.newID(), parent, 0, parentEnd.Add(-total), parentEnd)
}

// phaseSpans returns a copy of the spans recorded in one phase.
func (t *tracer) phaseSpans(phase string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans named name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time over spans: a span's
// duration minus the part of its interval that its children cover,
// summed per layer.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of s's interval the union of kids covers.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, s.StartNS), min(k.EndNS, s.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.StartNS
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(total)
}

// write saves every recorded span as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
