package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/gateway"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/server"
	"github.com/scpm/scpm/internal/shard"
	"github.com/scpm/scpm/internal/snapshot"
)

// Serving workload settings. They are the same for dblp-query and
// dblp-gateway, and BENCHMARK.json repeats them in the workloads' why.
const (
	// fixedRate is the offered rate of the latency phase, in requests
	// per second: a light load, a few percent of what either stack
	// sustains.
	fixedRate = 300
	// latencyLimit is the p99 limit of the max-rate search.
	latencyLimit = 100 * time.Millisecond
	// latencyShare and capacityShare are the shares of the measured
	// seconds spent at fixedRate and with the workers saturated; the
	// rest goes to the search for the highest rate meeting the limit.
	latencyShare  = 0.4
	capacityShare = 0.4
	// windows is how many latency and capacity windows alternate.
	windows = 5
	// searchTrial is the length of one max-rate trial.
	searchTrial = 600 * time.Millisecond
	// mixLen is the number of requests drawn per run; phases walk it
	// in order and wrap around.
	mixLen = 30000
	// boots is how many times set-up boots the served stack.
	boots = 11
	// shards is the shard count of dblp-gateway.
	shards = 2
)

// fixture is what a serving workload builds before it boots: the
// snapshot files, the shard manifest, and the query mix with the
// reference answer of every request in it.
type fixture struct {
	p         core.Params
	mix       []query
	first     [numClasses]int
	ans       *answers
	snapshots []string
	manifest  *shard.Manifest
}

// buildFixture mines the dblp graph, writes its v3 snapshot (or one per
// shard) and takes the reference answers from an in-memory server
// built from the same result. Nothing here is timed.
func buildFixture(ctx context.Context, e *env, sharded bool, rep *report) (*fixture, error) {
	prof := profileFor("dblp", e.graphSeed)
	f := &fixture{p: paramsFor(prof)}
	g, err := generate(e, prof)
	if err != nil {
		return nil, err
	}
	res, err := core.Mine(ctx, g, f.p, nil)
	if err != nil {
		return nil, err
	}
	idx := index.Build(res, g)
	f.mix = queryMix(g, res, f.p.SigmaMin, prof.Config.ZipfS, e.seed, mixLen)
	if f.first, err = firstOfEachClass(f.mix); err != nil {
		return nil, err
	}
	ref, err := server.New(server.Config{Index: idx, Graph: g, Estimator: f.p.NewEstimator(), Model: f.p.NewModel(g)})
	if err != nil {
		return nil, err
	}
	f.ans = newAnswers()
	for _, q := range f.mix {
		if _, ok := f.ans.want[q.path]; ok {
			continue
		}
		w := httptest.NewRecorder()
		ref.ServeHTTP(w, httptest.NewRequest(http.MethodGet, q.path, nil))
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("reference server answered %s with %d", q.path, w.Code)
		}
		f.ans.add(q.path, w.Body.Bytes())
	}
	rep.note("dblp result: %d sets, %d patterns; mix of %d requests, %d distinct", len(res.Sets), len(res.Patterns), len(f.mix), len(f.ans.want))

	if !sharded {
		path := filepath.Join(e.dir, "dblp.scpm")
		f.snapshots = []string{path}
		return f, snapshot.Write(path, g, idx)
	}
	if f.manifest, err = shard.BuildManifest(g, f.p.SigmaMin, shards, nil); err != nil {
		return nil, err
	}
	for k := 0; k < shards; k++ {
		part, err := shard.Mine(ctx, g, f.p, k, shards)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(e.dir, fmt.Sprintf("dblp-shard%d.scpm", k))
		if err := snapshot.Write(path, g, index.Build(part, g)); err != nil {
			return nil, err
		}
		f.snapshots = append(f.snapshots, path)
	}
	return f, nil
}

// stack is one booted serving deployment: a server per snapshot, and in
// front of them a gateway when sharded. base is where clients send.
type stack struct {
	base      string
	index     *index.Index // the first snapshot's, for the index probe
	shardURLs []string
	stops     []func()
}

func (s *stack) close() {
	for i := len(s.stops) - 1; i >= 0; i-- {
		s.stops[i]()
	}
}

// listen serves h on a loopback port until stop is called; stop
// returns once the serving goroutine has ended.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

type spanKey struct{}

// tracedHandler wraps a layer's handler in a span named name, parented
// by the span id the caller sent in spanHeader. The span id rides in
// the request context so the gateway's subrequests can find it.
func tracedHandler(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.active() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // absent header: root span
		id := tr.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		tr.record(name, id, parent, 0, start, time.Now())
	})
}

// timingTransport is the gateway.Config.Client probe (layer: gateway):
// it records one span per shard subrequest, from send until the
// gateway closes the response body, parented by the gateway request.
type timingTransport struct {
	inner http.RoundTripper
	tr    *tracer
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.active() {
		return t.inner.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanKey{}).(int64)
	id := t.tr.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.tr.record("gateway.subrequest", id, parent, 0, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.tr.record("gateway.subrequest", id, parent, 0, start, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	end func() // nil once the span is recorded
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.end != nil {
		b.end()
		b.end = nil
	}
	return err
}

// boot opens the snapshots, builds a server on each (and the gateway
// over them when sharded), and waits for the first 200 of one request
// of each query class. Its wall time is one setup_s sample.
func boot(e *env, f *fixture, transport *http.Transport) (*stack, error) {
	st := &stack{}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, err
	}
	for _, path := range f.snapshots {
		var b *snapshot.Boot
		err := e.tr.do("snapshot.Open", 0, func(int64) error {
			var err error
			b, err = snapshot.Open(path, snapshot.Options{Mode: snapshot.ModeMmap})
			return err
		})
		if err != nil {
			return fail(err)
		}
		st.stops = append(st.stops, func() { _ = b.Close() }) // read-only mapping
		if st.index == nil {
			st.index = b.Index
		}
		var s *server.Server
		err = e.tr.do("server.New", 0, func(int64) error {
			var err error
			s, err = server.New(server.Config{Index: b.Index, Graph: b.Graph, Estimator: f.p.NewEstimator(), Model: f.p.NewModel(b.Graph)})
			return err
		})
		if err != nil {
			return fail(err)
		}
		url, stop, err := listen(tracedHandler(e.tr, "server.request", s))
		if err != nil {
			return fail(err)
		}
		st.stops = append(st.stops, stop)
		st.shardURLs = append(st.shardURLs, url)
	}
	st.base = st.shardURLs[0]
	if f.manifest != nil {
		var gw *gateway.Gateway
		err := e.tr.do("gateway.New", 0, func(int64) error {
			var err error
			gw, err = gateway.New(gateway.Config{
				Manifest: f.manifest,
				Shards:   st.shardURLs,
				Client:   &http.Client{Transport: &timingTransport{inner: transport, tr: e.tr}},
			})
			return err
		})
		if err != nil {
			return fail(err)
		}
		url, stop, err := listen(tracedHandler(e.tr, "gateway.request", gw))
		if err != nil {
			return fail(err)
		}
		st.stops = append(st.stops, stop)
		st.base = url
	}
	client := newClient(1)
	st.stops = append(st.stops, client.CloseIdleConnections)
	for _, i := range f.first {
		q := f.mix[i]
		err := e.tr.do("server.first_answer", 0, func(int64) error {
			status, body, err := get(context.Background(), client, st.base+q.path, 0)
			if err == nil && !f.ans.check(q.path, status, f.ans.sum(body)) {
				err = fmt.Errorf("first answer to %s: status %d, body differs from the reference", q.path, status)
			}
			return err
		})
		if err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Server server.Stats `json:"server"`
}

// scrapeStats sums the server counters of every shard.
func scrapeStats(client *http.Client, urls []string) (server.Stats, error) {
	var sum server.Stats
	for _, u := range urls {
		status, body, err := get(context.Background(), client, u+"/stats", 0)
		if err != nil || status != http.StatusOK {
			return sum, fmt.Errorf("GET %s/stats: status %d, %v", u, status, err)
		}
		var doc serverStats
		if err := json.Unmarshal(body, &doc); err != nil {
			return sum, fmt.Errorf("decoding %s/stats: %w", u, err)
		}
		sum.CacheHits += doc.Server.CacheHits
		sum.CacheMisses += doc.Server.CacheMisses
		sum.SearchNodes += doc.Server.SearchNodes
	}
	return sum, nil
}

// scrapeCounter sums every sample of a counter family on a /metrics
// page.
func scrapeCounter(client *http.Client, url, family string) (float64, error) {
	status, body, err := get(context.Background(), client, url+"/metrics", 0)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET %s/metrics: status %d, %v", url, status, err)
	}
	total := 0.0
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %w", line, err)
		}
		total += v
	}
	return total, nil
}

// runServe is the dblp-query workload (sharded=false) and the
// dblp-gateway workload (sharded=true).
func runServe(ctx context.Context, e *env, sharded bool) (*report, error) {
	rep := newReport()
	f, err := buildFixture(ctx, e, sharded, rep)
	if err != nil {
		return nil, err
	}
	// The fixture (the query mix and the reference hashes) stays alive
	// for the whole run; peak_heap_mb counts only what comes on top.
	baseMB := liveHeapMB()
	if e.traced {
		e.tr.setPhase("setup")
	}

	// The gateway's subrequest transport lives across boots so that all
	// of them pay the same connection set-up.
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * e.workers, DisableCompression: true}
	defer transport.CloseIdleConnections()
	var st *stack
	var setup []float64
	for i := 0; i < boots; i++ {
		// Each boot starts from a collected heap, as in a fresh process,
		// so the previous boot's garbage does not land in its timing.
		runtime.GC()
		start := time.Now()
		st, err = boot(e, f, transport)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start).Seconds())
		if i < boots-1 {
			st.close()
			transport.CloseIdleConnections()
		}
	}
	defer st.close()
	e.tr.setPhase("")
	rep.e2e["setup_s"] = value{median(setup), len(setup)}
	rep.aliases["setup_s"] = "snapshot.Open (mmap) + server.New" + map[bool]string{true: " ×2 + gateway.New", false: ""}[sharded] + " until the first 200 of each class"

	client := newClient(e.workers)
	defer client.CloseIdleConnections()
	l := &loadgen{client: client, base: st.base, mix: f.mix, workers: e.workers, tr: e.tr, ans: f.ans}
	giveUp := 4 * latencyLimit

	// Warm-up: fills the ε cache and the connection pools.
	warm, _ := l.run(ctx, fixedRate, time.Second, giveUp)
	l.check(warm)
	count := func(recs []rec) {
		s, fl := sentCount(recs)
		rep.attempted += s
		rep.failed += fl
	}
	count(warm)

	// The latency and capacity phases alternate over several windows and
	// each metric is the median of its windows, so that a burst of
	// contention on a shared host moves one window, not the metric.
	peak := startHeapPeak()
	var fixed []rec
	var p50s, p99s, rates, cpus, peaks []float64
	pass, sat := true, 0
	for i := 0; i < windows; i++ {
		got, overloaded := l.run(ctx, fixedRate, share(e.seconds, latencyShare/windows), giveUp)
		l.check(got)
		count(got)
		fixed = append(fixed, got...)
		ok, p99 := passes(got, overloaded, latencyLimit)
		pass = pass && ok
		lat, _, _ := latencies(got, -1)
		p50s = append(p50s, median(lat))
		p99s = append(p99s, p99)
		w := startWatch()
		saturated, rate := l.saturate(ctx, share(e.seconds, capacityShare/windows))
		cpus = append(cpus, ms(w.stop().cpu)/float64(len(saturated)))
		peaks = append(peaks, peak.lap()-baseMB)
		l.check(saturated)
		count(saturated)
		sat += len(saturated)
		rates = append(rates, rate)
	}
	capacity := median(rates)
	lo := capacity / 2
	if pass {
		lo = max(lo, fixedRate)
	}
	best, converged, trials, searched := l.maxRate(ctx, lo, capacity*1.05, latencyLimit, searchTrial,
		share(e.seconds, 1-latencyShare-capacityShare))
	count(searched)
	peak.finish()
	rep.e2e["peak_heap_mb"] = value{mean(peaks), len(peaks)}
	rep.aliases["peak_heap_mb"] = fmt.Sprintf("above the %.1f MB the fixture holds", baseMB)
	rep.e2e["op_p50_ms"] = value{median(p50s), len(fixed)}
	rep.e2e["op_cpu_ms"] = value{median(cpus), sat}
	rep.aliases["op_p50_ms"] = fmt.Sprintf("query_p50_ms at %d/s from due send time, median of windows", fixedRate)
	rep.aliases["op_cpu_ms"] = "process CPU per request with the workers saturated: server, gateway, client"
	rep.addUnbounded("query_p99_ms", "ms", value{median(p99s), len(fixed)},
		fmt.Sprintf("at %d/s from due send time, median of windows", fixedRate))
	rep.addUnbounded("query_capacity_per_s", "1/s", value{capacity, sat},
		fmt.Sprintf("completion rate with the generator's %d connections always busy, median of windows", e.workers))
	rep.addUnbounded("query_max_qps", "1/s", value{best, len(searched)},
		fmt.Sprintf("highest offered rate with p99 ≤ %v, steps ≤ %.0f%%", latencyLimit, (searchStep-1)*100))
	rep.note("rate search: %s", strings.Join(trials, "; "))
	if !converged {
		rep.note("the rate search did not narrow to %.0f%% within the run", (searchStep-1)*100)
	}

	if e.traced {
		lat, _, _ := latencies(fixed, -1)
		if err := tracedServe(ctx, e, f, st, l, lat, rep, count); err != nil {
			return nil, err
		}
	}
	for _, x := range f.ans.examples {
		rep.note("wrong answer: %s", x)
	}
	return rep, nil
}

// share returns a fraction of d.
func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

// tracedServe repeats the latency phase with spans on and fills in the
// serving layers' per-layer metrics.
func tracedServe(ctx context.Context, e *env, f *fixture, st *stack, l *loadgen, untraced []float64, rep *report, count func([]rec)) error {
	admin := newClient(1)
	defer admin.CloseIdleConnections()
	before, err := scrapeStats(admin, st.shardURLs)
	if err != nil {
		return err
	}
	a0, _ := allocs()
	e.tr.setPhase("timed")
	fixed, _ := l.run(ctx, fixedRate, share(e.seconds, latencyShare), 4*latencyLimit)
	e.tr.setPhase("probe")
	a1, _ := allocs()
	l.check(fixed)
	count(fixed)
	after, err := scrapeStats(admin, st.shardURLs)
	if err != nil {
		return err
	}
	sent, _ := sentCount(fixed)
	lat, late, _ := latencies(fixed, -1)

	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		rep.layer["server.eps_cache_hit_ratio"] = value{float64(hits) / float64(hits+misses), int(hits + misses)}
	}
	rep.layer["server.eps_computed"] = value{float64(misses), sent}
	rep.layer["server.search_nodes"] = value{float64(after.SearchNodes - before.SearchNodes), sent}
	rep.layer["server.allocs_per_request"] = value{float64(a1-a0) / float64(sent), sent}
	rep.layer["loadgen.late_ms"] = value{percentile(late, 0.99), len(late)}
	for c, name := range classNames {
		cl, _, cb := latencies(fixed, c)
		if len(cl) == 0 {
			continue
		}
		rep.layer["server."+name+"_p50_ms"] = value{median(cl), len(cl)}
		rep.layer["server."+name+"_p99_ms"] = value{percentile(cl, 0.99), len(cl)}
		rep.layer["server."+name+"_bytes"] = value{median(cb), len(cb)}
	}
	spans := e.tr.phaseSpans("timed")
	rep.setSelfTimes(spans, sent)
	rep.setOverhead(untraced, lat)
	setupSpans := e.tr.phaseSpans("setup")
	rep.setLayerMedian("datagen.generate_ms", durationsMS(setupSpans, "datagen.Generate"))
	rep.setLayerMedian("snapshot.open_ms", durationsMS(setupSpans, "snapshot.Open"))
	rep.setLayerMedian("server.first_answer_ms", durationsMS(setupSpans, "server.first_answer"))

	if f.manifest != nil {
		gatewaySpans(spans, rep)
		for family, name := range map[string]string{
			"scpm_gateway_retry_attempts_total":    "gateway.retries",
			"scpm_gateway_partial_responses_total": "gateway.partial_responses",
		} {
			v, err := scrapeCounter(admin, st.base, family)
			if err != nil {
				return err
			}
			rep.layer[name] = value{v, sent}
		}
		return nil
	}
	probeIndex(f, st.index, rep)
	return nil
}

// gatewaySpans derives the scatter-gather metrics from the gateway's
// request spans and their subrequest children.
func gatewaySpans(spans []span, rep *report) {
	subs := make(map[int64][]span)
	for _, s := range spans {
		if s.Name == "gateway.subrequest" {
			subs[s.Parent] = append(subs[s.Parent], s)
		}
	}
	var fanout, shardMS, selfMS []float64
	for _, s := range spans {
		if s.Name != "gateway.request" {
			continue
		}
		slowest := time.Duration(0)
		for _, c := range subs[s.ID] {
			slowest = max(slowest, c.dur())
			shardMS = append(shardMS, ms(c.dur()))
		}
		fanout = append(fanout, float64(len(subs[s.ID])))
		selfMS = append(selfMS, ms(s.dur()-slowest))
	}
	total := 0.0
	for _, x := range fanout {
		total += x
	}
	if len(fanout) > 0 {
		rep.layer["gateway.subrequests_per_request"] = value{total / float64(len(fanout)), len(fanout)}
	}
	rep.setLayerMedian("gateway.shard_ms", shardMS)
	rep.setLayerMedian("gateway.self_ms", selfMS)
}

// probeIndex calls the Index method behind each query class on the
// class's first 200 drawn queries, or as many as fit in half a second
// (at least 3), against the served snapshot's index (layer: index).
func probeIndex(f *fixture, idx *index.Index, rep *report) {
	calls := [numClasses]func(arg string){
		classSet:      func(a string) { idx.SetIndexByID(a) },
		classContains: func(a string) { idx.Supersets([]string{a}) },
		classRank:     func(string) { idx.TopSets(core.ByEpsilon, 10) },
		classPatterns: func(a string) { idx.PatternsWithVertex(a) },
		classVertex:   func(a string) { idx.PatternsWithVertex(a) },
		classEpsilon:  func(a string) { idx.Exact(strings.Split(a, ",")) },
	}
	var us [numClasses][]float64
	var spent [numClasses]time.Duration
	for _, q := range f.mix {
		c := q.class
		if n := len(us[c]); n >= 200 || (n >= 3 && spent[c] > time.Second/2) {
			continue
		}
		start := time.Now()
		calls[c](q.arg)
		took := time.Since(start)
		spent[c] += took
		us[c] = append(us[c], float64(took.Nanoseconds())/1e3)
	}
	for c, name := range classNames {
		rep.setLayerMedian("index."+name+"_us", us[c])
	}
}
