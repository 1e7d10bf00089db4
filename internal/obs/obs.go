// Package obs is the observability layer: a metrics
// registry (counters, gauges, histograms — all with lock-free hot
// paths) rendered in the Prometheus text exposition format v0.0.4 on
// GET /metrics, plus helpers that mount /metrics and net/http/pprof on
// any mux and an HTTP middleware producing the standard per-endpoint
// request series. Every scpm binary wires one Registry through its
// layers so a fleet under load is inspectable end to end.
//
// Instruments are get-or-create: asking a Registry twice for the same
// family name returns the same instrument, so independent subsystems
// (boot-time mining, the serving layer) can share one registry without
// coordinating registration order. Asking for the same name with a
// different type or label set panics — that is a programming error,
// not a runtime condition.
//
// All instrument methods are safe on nil receivers (they no-op), so
// optional wiring needs no branching at call sites. The only package of
// the repo obs imports is internal/core, for the Stats snapshot the
// mining gauges read.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// kind discriminates the metric families a Registry holds.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

// typeName renders the kind as the exposition TYPE keyword.
func (k kind) typeName() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them as Prometheus text
// exposition v0.0.4. The zero value is not usable; build one with
// NewRegistry. Registration takes a mutex; instrument updates
// (Counter.Add, Gauge.Set, Histogram.Observe) are atomic and never
// block a concurrent scrape.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric family: a help string, a kind, a label
// schema, and one child instrument per label-value combination.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogramKind only
	fn      func() float64

	mu       sync.Mutex // guards child creation only
	children sync.Map   // joined label values → *child
}

// child is one instrument of a family together with the label values
// that select it.
type child struct {
	values []string
	inst   any // *Counter, *Gauge or *Histogram
}

// labelSep joins label values into child keys; it cannot appear in a
// label value without escaping mattering for identity (a 0xFF byte is
// invalid UTF-8, which label values never legitimately contain).
const labelSep = "\xff"

// family returns the named family, creating it on first use and
// panicking when an existing family disagrees on kind, labels or
// buckets.
func (r *Registry) family(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k.typeName(), f.kind.typeName()))
		}
		if strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %q re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels, buckets: buckets}
	r.fams[name] = f
	return f
}

// child returns the instrument for one label-value combination,
// creating it with mk on first use.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	if c, ok := f.children.Load(key); ok {
		return c.(*child).inst
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c.(*child).inst
	}
	c := &child{values: append([]string(nil), values...), inst: mk()}
	f.children.Store(key, c)
	return c.inst
}

// Counter is a monotonically increasing integer metric. A nil Counter
// discards updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be ≥ 0 for the exposition to stay monotone).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down. A nil Gauge
// discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta with a CAS loop, so concurrent adders never lose an
// update.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter returns the unlabeled counter of the named family.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, counterKind, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the unlabeled gauge of the named family.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, gaugeKind, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values that already live elsewhere (goroutine counts,
// cache population, generation numbers). Re-registering the same name
// replaces the function (latest wins), so a layer that owns the
// authoritative state can take over a placeholder.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, gaugeFuncKind, nil, nil)
	r.mu.Lock()
	f.fn = fn
	r.mu.Unlock()
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct {
	fam *family
}

// CounterVec returns the labeled counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.family(name, help, counterKind, labels, nil)}
}

// With returns the counter selected by the label values (one per label
// name, in order). A nil CounterVec returns a nil (no-op) Counter.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct {
	fam *family
}

// GaugeVec returns the labeled gauge family with the given label
// names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.family(name, help, gaugeKind, labels, nil)}
}

// With returns the gauge selected by the label values. A nil GaugeVec
// returns a nil (no-op) Gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the unlabeled histogram of the named family, with
// the given upper bucket bounds (ascending; the +Inf bucket is
// implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, histogramKind, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct {
	fam *family
}

// HistogramVec returns the labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.family(name, help, histogramKind, labels, buckets)}
}

// With returns the histogram selected by the label values. A nil
// HistogramVec returns a nil (no-op) Histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() any { return newHistogram(v.fam.buckets) }).(*Histogram)
}

// sortedFamilies snapshots the families in name order for rendering.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren snapshots a family's children in label-value order.
func (f *family) sortedChildren() []*child {
	var out []*child
	keys := make([]string, 0, 4)
	byKey := make(map[string]*child)
	f.children.Range(func(k, v any) bool {
		keys = append(keys, k.(string))
		byKey[k.(string)] = v.(*child)
		return true
	})
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}
