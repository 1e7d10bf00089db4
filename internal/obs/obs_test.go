package obs

import (
	"strings"
	"sync"
	"testing"

	"github.com/scpm/scpm/internal/core"
)

// TestExpositionGolden pins the exact text exposition rendering:
// family ordering, HELP/TYPE lines, label escaping, histogram
// cumulative buckets with _sum and _count.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_requests_total", "Requests.").Add(7)
	v := reg.CounterVec("t_by_endpoint_total", "By endpoint.", "endpoint", "class")
	v.With("/sets", "2xx").Add(3)
	v.With("/epsilon", "5xx").Inc()
	reg.Gauge("t_in_flight", "In flight.").Set(2.5)
	reg.GaugeFunc("t_always_nine", "Computed at scrape.", func() float64 { return 9 })
	h := reg.Histogram("t_latency_seconds", "Latency.", []float64{0.1, 1})
	// Powers of two only, so the float sum renders exactly.
	h.Observe(0.0625)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)
	reg.Counter("t_escaped_total", `Help with \ backslash`)
	reg.CounterVec("t_labeled_total", "Labeled.", "v").With("say \"hi\"\n").Inc()

	want := `# HELP t_always_nine Computed at scrape.
# TYPE t_always_nine gauge
t_always_nine 9
# HELP t_by_endpoint_total By endpoint.
# TYPE t_by_endpoint_total counter
t_by_endpoint_total{endpoint="/epsilon",class="5xx"} 1
t_by_endpoint_total{endpoint="/sets",class="2xx"} 3
# HELP t_escaped_total Help with \\ backslash
# TYPE t_escaped_total counter
t_escaped_total 0
# HELP t_in_flight In flight.
# TYPE t_in_flight gauge
t_in_flight 2.5
# HELP t_labeled_total Labeled.
# TYPE t_labeled_total counter
t_labeled_total{v="say \"hi\"\n"} 1
# HELP t_latency_seconds Latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{le="0.1"} 1
t_latency_seconds_bucket{le="1"} 3
t_latency_seconds_bucket{le="+Inf"} 4
t_latency_seconds_sum 6.0625
t_latency_seconds_count 4
# HELP t_requests_total Requests.
# TYPE t_requests_total counter
t_requests_total 7
`
	if got := reg.Render(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGetOrCreate: the same name resolves to the same instrument, and
// a kind or label mismatch panics.
func TestGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("t_x_total", "X.")
	b := reg.Counter("t_x_total", "X.")
	if a != b {
		t.Fatal("same-name counter not shared")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}

	mustPanic(t, "kind mismatch", func() { reg.Gauge("t_x_total", "X.") })
	reg.CounterVec("t_y_total", "Y.", "shard")
	mustPanic(t, "label mismatch", func() { reg.CounterVec("t_y_total", "Y.", "endpoint") })
	mustPanic(t, "label arity", func() { reg.CounterVec("t_y_total", "Y.", "shard").With("0", "1") })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

// TestNilInstrumentsNoop: nil receivers discard updates so optional
// wiring needs no branching.
func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	var m *MiningMetrics
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.With("x").Inc()
	gv.With("x").Set(1)
	hv.With("x").Observe(1)
	m.ObserveProgress(core.Stats{SetsEvaluated: 1, SearchNodes: 4})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

// TestHistogramBuckets checks boundary placement: a value equal to a
// bound lands in that bound's bucket (le is inclusive).
func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_h", "H.", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	cum := h.cumulative()
	if cum[0] != 1 || cum[1] != 2 || cum[2] != 3 {
		t.Fatalf("cumulative = %v, want [1 2 3]", cum)
	}
	if h.Count() != 3 || h.Sum() != 6 {
		t.Fatalf("count=%d sum=%g, want 3 and 6", h.Count(), h.Sum())
	}
}

// TestRegistryRace hammers every instrument type from many writer
// goroutines while others scrape, so `go test -race` proves renders
// are safe against hot-path writes. It also checks no writes are lost.
func TestRegistryRace(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_c_total", "C.")
	g := reg.Gauge("t_g", "G.")
	h := reg.Histogram("t_h_seconds", "H.", []float64{0.5})
	vec := reg.CounterVec("t_v_total", "V.", "worker")
	reg.GaugeFunc("t_f", "F.", func() float64 { return 1 })

	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.25)
				vec.With(label).Inc()
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if out := reg.Render(); !strings.Contains(out, "t_c_total") {
					t.Error("scrape lost a family")
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = writers * perWriter
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge = %g, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), total)
	}
	if h.Sum() != total*0.25 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), total*0.25)
	}
}
