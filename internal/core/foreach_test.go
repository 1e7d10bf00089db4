package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachProcessesEveryIndexOnce hammers the atomic task dispatcher
// with many workers: every index must run exactly once and no error
// must surface. Run under -race this exercises the counter and the
// one-shot error recording concurrently.
func TestForEachProcessesEveryIndexOnce(t *testing.T) {
	const n = 4096
	m := &miner{p: Params{Parallelism: 16}}
	seen := make([]atomic.Int32, n)
	if err := m.forEach(context.Background(), n, func(i int, _ *worker) error {
		seen[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d ran %d times", i, got)
		}
	}
}

// TestForEachFirstErrorWins injects failures from many concurrent
// tasks: exactly one of the injected errors must come back (the first
// recorded), tasks must never run twice, and dispatch must stop
// claiming new work after the failure is published.
func TestForEachFirstErrorWins(t *testing.T) {
	const n = 2048
	errBoom := errors.New("boom")
	for round := 0; round < 8; round++ {
		m := &miner{p: Params{Parallelism: 8}}
		seen := make([]atomic.Int32, n)
		var ran atomic.Int64
		err := m.forEach(context.Background(), n, func(i int, _ *worker) error {
			if seen[i].Add(1) != 1 {
				return fmt.Errorf("index %d ran twice", i)
			}
			ran.Add(1)
			if i%64 == 7 {
				return fmt.Errorf("task %d failed: %w", i, errBoom)
			}
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("round %d: err = %v, want injected failure", round, err)
		}
		// With 8 workers and a failure every 64 tasks, dispatch must stop
		// long before the full range is claimed.
		if got := ran.Load(); got == n {
			t.Fatalf("round %d: all %d tasks ran despite early failure", round, got)
		}
	}
}

// TestForEachSequentialFirstError pins the deterministic sequential
// path: the error of the lowest failing index is returned and no later
// task runs.
func TestForEachSequentialFirstError(t *testing.T) {
	m := &miner{p: Params{Parallelism: 1}}
	var calls int
	wantErr := errors.New("stop at three")
	err := m.forEach(context.Background(), 10, func(i int, _ *worker) error {
		calls++
		if i == 3 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("ran %d tasks, want 4", calls)
	}
}

// TestForEachCancellation cancels the context mid-run; the dispatcher
// must return ErrCanceled without running every task.
func TestForEachCancellation(t *testing.T) {
	const n = 1 << 20
	m := &miner{p: Params{Parallelism: 8}}
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := m.forEach(ctx, n, func(i int, _ *worker) error {
		if ran.Add(1) == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := ran.Load(); got == n {
		t.Fatalf("all %d tasks ran despite cancellation", got)
	}
}
