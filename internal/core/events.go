package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Sink receives mining events while a run is in flight. Callbacks are
// serialized: the miner never invokes two sink methods concurrently,
// and a qualifying attribute set is always delivered as one atomic
// burst — OnAttributeSet followed immediately by OnPattern for each of
// its top-k patterns (best first). With Parallelism ≤ 1 bursts arrive
// in search order; with workers the burst order is nondeterministic but
// the per-set grouping still holds. A Remine delivers the sets it
// carries over after the ones it walked, in canonical order.
//
// Sink callbacks run on miner goroutines; slow callbacks stall the
// search, so hand heavy work off to a channel.
type Sink interface {
	// OnAttributeSet is called once per attribute set that passes all
	// output thresholds.
	OnAttributeSet(AttributeSet)
	// OnPattern is called for each reported (S, Q) pattern, after the
	// OnAttributeSet call for S.
	OnPattern(Pattern)
	// OnProgress is called periodically (every Params.ProgressEvery
	// evaluations, default 64) and once when the run ends.
	OnProgress(Stats)
}

// SinkFuncs adapts plain functions to the Sink interface; nil fields
// are skipped. With neither an AttributeSet nor a Pattern func it is a
// progress-only sink, and a run skips streaming sets to it altogether.
type SinkFuncs struct {
	AttributeSet func(AttributeSet)
	Pattern      func(Pattern)
	Progress     func(Stats)
}

// OnAttributeSet forwards to the AttributeSet func when set.
func (s SinkFuncs) OnAttributeSet(a AttributeSet) {
	if s.AttributeSet != nil {
		s.AttributeSet(a)
	}
}

// OnPattern forwards to the Pattern func when set.
func (s SinkFuncs) OnPattern(p Pattern) {
	if s.Pattern != nil {
		s.Pattern(p)
	}
}

// OnProgress forwards to the Progress func when set.
func (s SinkFuncs) OnProgress(st Stats) {
	if s.Progress != nil {
		s.Progress(st)
	}
}

// emitter serializes sink callbacks across mining workers and keeps the
// global run counters that progress snapshots report. A nil *emitter or
// an emitter with a nil sink degrades every method to counter updates
// only, so the hot path needs no branching at call sites.
type emitter struct {
	sink  Sink
	every int64
	start time.Time
	// streams reports that the sink takes sets and patterns; a
	// progress-only sink is never handed a set.
	streams bool

	evaluated atomic.Int64
	emitted   atomic.Int64
	patterns  atomic.Int64
	nodes     atomic.Int64
	sampled   atomic.Int64
	reused    atomic.Int64
	verdicts  atomic.Int64

	mu sync.Mutex
}

func newEmitter(sink Sink, every int, start time.Time) *emitter {
	if every <= 0 {
		every = 64
	}
	return &emitter{sink: sink, every: int64(every), start: start, streams: takesSets(sink)}
}

// takesSets reports whether sink wants each set and pattern: any sink
// but nil and a SinkFuncs with neither an AttributeSet nor a Pattern
// func.
func takesSets(sink Sink) bool {
	switch s := sink.(type) {
	case nil:
		return false
	case SinkFuncs:
		return s.AttributeSet != nil || s.Pattern != nil
	}
	return true
}

// snapshot builds a Stats view of the run so far.
func (e *emitter) snapshot() Stats {
	evaluated := e.evaluated.Load()
	return Stats{
		SetsEvaluated:   evaluated,
		SetsEmitted:     e.emitted.Load(),
		PatternsEmitted: e.patterns.Load(),
		SearchNodes:     e.nodes.Load(),
		SampledVertices: e.sampled.Load(),
		ReusedSets:      e.reused.Load(),
		RecomputedSets:  evaluated,
		ReusedVerdicts:  e.verdicts.Load(),
		Duration:        time.Since(e.start),
	}
}

// noteReused records n attribute sets carried over from a previous
// run instead of being recomputed.
func (e *emitter) noteReused(n int64) { e.reused.Add(n) }

// noteVerdictReplayed records one level-1 single served from sealed
// verdicts instead of searched.
func (e *emitter) noteVerdictReplayed() { e.verdicts.Add(1) }

// tally is a per-worker counter block for the scheduling-sensitive run
// totals: search nodes and membership samples, the columns the bench
// JSON reports. Each forEach worker accumulates locally and merges into
// the emitter exactly once when it finishes, so a run's totals are a
// plain sum of per-evaluation counts — identical for every Parallelism
// value — and the evaluation hot path pays no atomic traffic.
type tally struct {
	nodes   int64
	sampled int64
}

// noteSampled adds one evaluation's membership-sample count.
func (t *tally) noteSampled(n int64) { t.sampled += n }

// noteSearchNodes adds one coverage search's node count (the bench
// harness reports the run total as nodes visited).
func (t *tally) noteSearchNodes(n int64) { t.nodes += n }

// merge folds one worker's tally into the run counters. Progress
// snapshots taken before a worker merges lag its in-flight counts; the
// final snapshot runs after every worker has merged and is exact. A
// nil emitter (dispatcher tests) discards the tally.
func (e *emitter) merge(t *tally) {
	if e == nil {
		return
	}
	if t.nodes != 0 {
		e.nodes.Add(t.nodes)
	}
	if t.sampled != 0 {
		e.sampled.Add(t.sampled)
	}
}

// noteEvaluated records one ε evaluation and fires OnProgress on every
// `every`-th one. The snapshot is taken inside the critical section so
// concurrently-delivered progress events never show counters going
// backwards.
func (e *emitter) noteEvaluated() {
	n := e.evaluated.Add(1)
	if e.sink == nil || n%e.every != 0 {
		return
	}
	e.mu.Lock()
	e.sink.OnProgress(e.snapshot())
	e.mu.Unlock()
}

// noteEmitted counts sets qualifying sets with pats patterns between them.
func (e *emitter) noteEmitted(sets, pats int64) {
	e.emitted.Add(sets)
	e.patterns.Add(pats)
}

// deliver streams one qualifying set and its patterns to the sink, if
// it takes them, as an atomic burst.
func (e *emitter) deliver(set *AttributeSet, pats []Pattern) {
	if !e.streams {
		return
	}
	e.mu.Lock()
	e.sink.OnAttributeSet(*set)
	for _, p := range pats {
		e.sink.OnPattern(p)
	}
	e.mu.Unlock()
}

// finish fires the terminal OnProgress carrying the final counters.
func (e *emitter) finish() {
	if e.sink == nil {
		return
	}
	e.mu.Lock()
	e.sink.OnProgress(e.snapshot())
	e.mu.Unlock()
}
