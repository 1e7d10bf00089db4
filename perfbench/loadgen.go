package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the caller's span id across an HTTP hop, so the
// wrapper on the far side can parent its span (traced runs only).
const spanHeader = "X-Perfbench-Span"

// rec is the outcome of one request of an open-loop phase.
type rec struct {
	sent   bool
	q      int // position in the mix
	class  int
	status int    // 0 when the request failed
	sum    uint64 // hash of the body, checked after the phase
	ok     bool
	latMS  float64 // done − due: includes the wait a stall imposed
	lateMS float64 // sent − due: how late the generator ran
	bytes  int
}

// answers holds, for every request path a run can send, the hashes of
// the bodies that count as right: the body of an in-memory server built
// before boot and, for /epsilon, that body with its source reported as
// either "cache" or "computed". Such answers carry the same result, and
// which one a request gets depends only on the requests before it.
type answers struct {
	seed maphash.Seed
	want map[string][2]uint64
	// examples keeps the first few mismatches for the report.
	examples []string
}

func newAnswers() *answers {
	return &answers{seed: maphash.MakeSeed(), want: make(map[string][2]uint64)}
}

// add records the reference body of path, in both of its /epsilon
// forms (the reference server answers a pair from its cache too when
// the same pair came before in the other order).
func (a *answers) add(path string, body []byte) {
	computed := bytes.Replace(body, []byte(`"source": "cache"`), []byte(`"source": "computed"`), 1)
	cached := bytes.Replace(computed, []byte(`"source": "computed"`), []byte(`"source": "cache"`), 1)
	a.want[path] = [2]uint64{a.sum(computed), a.sum(cached)}
}

// sum is the hash a served body is compared by.
func (a *answers) sum(body []byte) uint64 { return maphash.Bytes(a.seed, body) }

// check reports whether a served answer, given by its status and body
// hash, is a right one.
func (a *answers) check(path string, status int, sum uint64) bool {
	want, known := a.want[path]
	ok := known && status == http.StatusOK && (sum == want[0] || sum == want[1])
	if !ok && len(a.examples) < 3 {
		a.examples = append(a.examples, fmt.Sprintf("%s: status %d, body differs from the reference", path, status))
	}
	return ok
}

// loadgen is the open-loop load generator: it sends the requests of a
// seeded mix on a fixed schedule, with at most workers goroutines and
// connections, and times each request from its due send time.
type loadgen struct {
	client  *http.Client
	base    string
	mix     []query
	workers int
	tr      *tracer
	ans     *answers
	next    int // position in mix of the next phase's first request
	// spinning is held by the one worker spinning towards a due time.
	spinning atomic.Bool
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// get sends one request and reads its body.
func get(ctx context.Context, client *http.Client, url string, spanID int64) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// run sends rate·d requests at a fixed rate. A request that would go
// out more than giveUp late means the system fell behind for good: the
// phase stops sending and reports overload.
func (l *loadgen) run(ctx context.Context, rate float64, d, giveUp time.Duration) ([]rec, bool) {
	n := int(rate * d.Seconds())
	recs := make([]rec, n) // each index is written by the one worker that claimed it
	first := l.next
	l.next += n
	var claim atomic.Int64
	var overloaded atomic.Bool
	t0 := time.Now().Add(time.Millisecond)
	l.workersDo(func() bool {
		i := int(claim.Add(1) - 1)
		if i >= n || overloaded.Load() || ctx.Err() != nil {
			return false
		}
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sent := l.waitUntil(due)
		if sent.Sub(due) > giveUp {
			overloaded.Store(true)
			return false
		}
		recs[i] = l.send(ctx, first+i, due, sent)
		return true
	})
	return recs, overloaded.Load()
}

// saturate keeps every worker busy for d, each sending its next request
// as soon as the previous one returns, and returns the completion rate:
// the highest rate the system sustains without a growing backlog, at
// the generator's concurrency.
func (l *loadgen) saturate(ctx context.Context, d time.Duration) ([]rec, float64) {
	var mu sync.Mutex
	var recs []rec
	start := time.Now()
	deadline := start.Add(d)
	l.workersDo(func() bool {
		now := time.Now()
		if !now.Before(deadline) || ctx.Err() != nil {
			return false
		}
		mu.Lock()
		i := l.next
		l.next++
		mu.Unlock()
		r := l.send(ctx, i, now, now)
		mu.Lock()
		recs = append(recs, r)
		mu.Unlock()
		return true
	})
	return recs, float64(len(recs)) / time.Since(start).Seconds()
}

// workersDo runs step on every worker goroutine until it returns false,
// and waits for all of them.
func (l *loadgen) workersDo(step func() bool) {
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step() {
			}
		}()
	}
	wg.Wait()
}

// send issues request i of the mix, due at due and sent at sent, and
// keeps the hash of its answer for check.
func (l *loadgen) send(ctx context.Context, i int, due, sent time.Time) rec {
	q := i % len(l.mix)
	id := l.tr.newID()
	status, body, err := get(ctx, l.client, l.base+l.mix[q].path, id)
	done := time.Now()
	l.tr.record("loadgen.request", id, 0, int64(i), sent, done)
	if err != nil {
		status = 0
	}
	return rec{sent: true, q: q, class: l.mix[q].class, status: status, sum: l.ans.sum(body),
		latMS: ms(done.Sub(due)), lateMS: ms(sent.Sub(due)), bytes: len(body)}
}

// check compares the answers of a phase with the reference. Callers run
// it after the phase, outside its timing.
func (l *loadgen) check(recs []rec) {
	for i := range recs {
		if r := &recs[i]; r.sent {
			r.ok = l.ans.check(l.mix[r.q].path, r.status, r.sum)
		}
	}
}

// spinWindow is how long before a due time the generator stops
// sleeping and yields in a loop instead: a timer sleep in an idle Go
// process wakes up to a millisecond late, which would otherwise
// dominate fast requests.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at due, or at once when due has passed, and returns
// the time it returned. Only one worker spins at a time: while every
// processor is busy with a spinning goroutine, none blocks in the
// network poller, and responses would wait for the runtime's
// background poll.
func (l *loadgen) waitUntil(due time.Time) time.Time {
	for {
		wait := time.Until(due)
		switch {
		case wait <= 0:
			return time.Now()
		case wait > spinWindow:
			time.Sleep(wait - spinWindow)
		case l.spinning.CompareAndSwap(false, true):
			for time.Now().Before(due) {
				runtime.Gosched()
			}
			l.spinning.Store(false)
			return time.Now()
		default:
			time.Sleep(min(wait, spinWindow/8))
		}
	}
}

// latencies returns the latency of every sent request of class c (all
// classes when c < 0); a failed request counts as infinitely slow, so
// it misses every limit.
func latencies(recs []rec, c int) (lat, late []float64, bytes []float64) {
	for _, r := range recs {
		if !r.sent || (c >= 0 && r.class != c) {
			continue
		}
		l := r.latMS
		if !r.ok {
			l = math.Inf(1)
		}
		lat = append(lat, l)
		late = append(late, r.lateMS)
		bytes = append(bytes, float64(r.bytes))
	}
	return lat, late, bytes
}

// sent counts the requests a phase sent and those that failed.
func sentCount(recs []rec) (sent, failed int) {
	for _, r := range recs {
		if r.sent {
			sent++
			if !r.ok {
				failed++
			}
		}
	}
	return sent, failed
}

// searchStep is the ratio the rate search narrows to: it stops once the
// highest passing and lowest failing rates are within 4% of each other,
// finer than the bound on max_rate_per_s.
const searchStep = 1.04

// passes reports whether a phase met the latency limit: every request
// sent on time (no growing backlog) and p99 within limit.
func passes(recs []rec, overloaded bool, limit time.Duration) (bool, float64) {
	lat, _, _ := latencies(recs, -1)
	p99 := percentile(lat, 0.99)
	return !overloaded && len(lat) > 0 && p99 <= ms(limit), p99
}

// maxRate searches offered rates for the highest one that passes. lo
// is a rate taken to pass and hi one taken to fail; the search bisects
// geometrically until they are within searchStep, and reports whether
// it got there within budget.
func (l *loadgen) maxRate(ctx context.Context, lo, hi float64, limit, trial, budget time.Duration) (best float64, converged bool, trials []string, recs []rec) {
	r := math.Sqrt(lo * hi)
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		got, overloaded := l.run(ctx, r, trial, 4*limit)
		l.check(got)
		recs = append(recs, got...)
		pass, p99 := passes(got, overloaded, limit)
		trials = append(trials, fmt.Sprintf("%.0f/s p99=%.1fms %s", r, p99, map[bool]string{true: "pass", false: "fail"}[pass]))
		if pass {
			lo = r
		} else {
			hi = r
		}
		switch {
		case hi/lo <= searchStep:
			return lo, true, trials, recs
		default:
			r = math.Sqrt(lo * hi)
		}
	}
	return lo, false, trials, recs
}
