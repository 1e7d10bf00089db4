package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/scpm/scpm/internal/core"
)

// spec names one metric as BENCHMARK.json lists it.
type spec struct {
	name, unit string
}

// endToEnd lists the metrics an untraced run reports, on every
// workload. What "op" is depends on the workload (README.md).
var endToEnd = []spec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_cpu_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics a traced run reports. A workload that does
// not reach a layer reports its metrics as 0 and says so on its
// human-readable lines.
var perLayer = func() []spec {
	out := []spec{
		{"datagen.generate_ms", "ms"},
		{"core.mine_ms", "ms"},
		{"core.level1_ms", "ms"},
		{"core.subtree_ms", "ms"},
		{"core.sets_evaluated", "count"},
		{"core.search_nodes", "count"},
		{"core.sets_emitted", "count"},
		{"core.patterns_emitted", "count"},
		{"core.allocs_per_set", "count"},
		{"core.alloc_bytes_per_set", "B"},
		{"nullmodel.exp_calls", "count"},
		{"nullmodel.exp_ms", "ms"},
		{"graph.induce_ms", "ms"},
		{"epsilon.estimate_ms", "ms"},
		{"epsilon.search_nodes", "count"},
		{"quasiclique.topk_ms", "ms"},
		{"graph.apply_ms", "ms"},
		{"core.remine_ms", "ms"},
		{"core.remine_reuse_ratio", "1"},
		{"core.remine_allocs", "count"},
		{"index.build_ms", "ms"},
		{"index.rebuild_ms", "ms"},
		{"snapshot.open_ms", "ms"},
		{"server.first_answer_ms", "ms"},
	}
	for _, c := range classNames {
		out = append(out, spec{"index." + c + "_us", "us"})
	}
	for _, c := range classNames {
		out = append(out,
			spec{"server." + c + "_p50_ms", "ms"},
			spec{"server." + c + "_p99_ms", "ms"},
			spec{"server." + c + "_bytes", "B"})
	}
	out = append(out,
		spec{"server.eps_cache_hit_ratio", "1"},
		spec{"server.eps_computed", "count"},
		spec{"server.search_nodes", "count"},
		spec{"server.allocs_per_request", "count"},
		spec{"gateway.subrequests_per_request", "count"},
		spec{"gateway.shard_ms", "ms"},
		spec{"gateway.self_ms", "ms"},
		spec{"gateway.retries", "count"},
		spec{"gateway.partial_responses", "count"},
		spec{"loadgen.late_ms", "ms"},
	)
	for _, l := range layers {
		out = append(out, spec{"self." + l + "_ms", "ms"})
	}
	return append(out, spec{"trace.overhead_pct", "%"})
}()

// layers are the repository modules a span can belong to, plus the
// benchmark's own load generator.
var layers = []string{"datagen", "graph", "core", "nullmodel", "epsilon", "quasiclique", "index", "snapshot", "server", "gateway", "loadgen"}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// report collects what one workload run measured.
type report struct {
	attempted, failed int
	e2e               map[string]value
	layer             map[string]value
	// aliases maps an end-to-end name to what it is on the workload
	// (README.md names: mine_s, update_s, query_p50_ms ...).
	aliases map[string]string
	// unbounded are end-to-end figures an untraced run prints but
	// BENCHMARK.json does not bound (README.md says why).
	unbounded []line
	notes     []string
}

type line struct {
	name, unit, desc string
	v                value
}

func (r *report) addUnbounded(name, unit string, v value, desc string) {
	r.unbounded = append(r.unbounded, line{name, unit, desc, v})
}

func newReport() *report {
	return &report{e2e: map[string]value{}, layer: map[string]value{}, aliases: map[string]string{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLayerMedian stores the median of samples as a per-layer metric.
func (r *report) setLayerMedian(name string, samples []float64) {
	if len(samples) > 0 {
		r.layer[name] = value{median(samples), len(samples)}
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable lines and then the result object as
// the last line. Traced runs report the per-layer metrics, untraced
// runs the end-to-end ones.
func (r *report) print(w io.Writer, workload string, traced bool) bool {
	list, got := endToEnd, r.e2e
	if traced {
		list, got = perLayer, r.layer
	}
	out := resultJSON{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(list)),
	}
	for _, s := range list {
		m, ok := got[s.name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-34s %14s %-5s not exercised by %s\n", s.name, "-", s.unit, workload)
		case r.aliases[s.name] != "":
			fmt.Fprintf(w, "  %-34s %14.4f %-5s n=%-6d (%s)\n", s.name, m.v, s.unit, m.n, r.aliases[s.name])
		default:
			fmt.Fprintf(w, "  %-34s %14.4f %-5s n=%d\n", s.name, m.v, s.unit, m.n)
		}
		out.Metrics[s.name] = metricJSON{Value: m.v, Unit: s.unit}
	}
	if !traced {
		for _, l := range r.unbounded {
			fmt.Fprintf(w, "  %-34s %14.4f %-5s n=%-6d (unbounded: %s)\n", l.name, l.v.v, l.unit, l.v.n, l.desc)
		}
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-34s %14.4f %-5s n=%d (failed %d)\n", "failed_ratio", ratio, "1", r.attempted, r.failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	line, _ := json.Marshal(out) // plain structs of numbers and strings always marshal
	fmt.Fprintln(w, string(line))
	return out.Correct
}

// Statistics.

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cost is what one operation took: wall time and the CPU time of the
// whole process (every thread: the garbage collector, and for queries
// the server, the gateway and the load generator). CPU time leaves out
// the time a virtual machine's host takes the processor away, so it
// stays steady on a shared host where wall time does not.
type cost struct {
	wall, cpu time.Duration
}

type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) stop() cost {
	return cost{time.Since(s.wall), processCPU() - s.cpu}
}

// processCPU returns the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// costsMS splits costs into wall and CPU times in ms.
func costsMS(cs []cost) (wall, cpu []float64) {
	for _, c := range cs {
		wall = append(wall, ms(c.wall))
		cpu = append(cpu, ms(c.cpu))
	}
	return wall, cpu
}

// timeReps runs fn at least minN times, and more while budget lasts,
// up to maxN, and returns each call's wall time in seconds.
func timeReps(minN, maxN int, budget time.Duration, fn func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minN || (len(out) < maxN && time.Since(start) < budget) {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// heapObjects is the runtime metric heapPeak samples: the bytes of live
// and not yet swept heap objects.
const heapObjects = "/memory/classes/heap/objects:bytes"

// liveHeapMB collects garbage and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// heapPeak samples the bytes of live and not yet swept heap objects
// every millisecond and keeps the largest reading of each lap: the peak
// heap in use while it runs. Whether a collection lands just before or
// just after a lap's high point moves that lap's peak by up to a sixth,
// so workloads report the mean over laps.
type heapPeak struct {
	stop, done chan struct{}
	mu         sync.Mutex
	peak       uint64
}

func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.mu.Lock()
			h.peak = max(h.peak, sample[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap returns the peak in MB since the previous lap and starts the next.
func (h *heapPeak) lap() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	mb := float64(h.peak) / (1 << 20)
	h.peak = 0
	return mb
}

// finish stops the sampler.
func (h *heapPeak) finish() {
	close(h.stop)
	<-h.done
}

// allocs reads the process's cumulative allocation counters (a
// stop-the-world read, so only traced runs take it around a call).
func allocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// digest is the canonical fingerprint of a mining result: every set's
// id and metrics and every pattern's id and members, in result order.
// Stats, timings and the recorded lattice are left out, so a Mine and a
// Remine of the same graph version digest equal.
func digest(res *core.Result) [32]byte {
	h := sha256.New()
	var buf [8]byte
	num := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, s := range res.Sets {
		h.Write([]byte(s.ID()))
		num(uint64(s.Support))
		num(math.Float64bits(s.Epsilon))
		num(math.Float64bits(s.ExpEps))
		num(math.Float64bits(s.Delta))
		num(uint64(s.Covered))
	}
	for _, p := range res.Patterns {
		h.Write([]byte(p.ID()))
		num(uint64(p.MinDeg))
		num(uint64(p.Edges))
		for _, v := range p.Vertices {
			num(uint64(v))
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}
