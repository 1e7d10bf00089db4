//go:build !race

// The race detector allocates on its own, so this gate builds only
// without it.

package core

import (
	"context"
	"runtime"
	"testing"

	"github.com/scpm/scpm/internal/datagen"
)

// maxAllocsPerSet is the allocation ceiling of TestMineAllocsPerSet:
// the measured count on SynthDBLP@0.1 (0.250–0.255) plus about 25%
// headroom.
const maxAllocsPerSet = 0.32

// TestMineAllocsPerSet gates the per-set allocation count of a full
// Mine on SynthDBLP@0.1, where nearly every evaluated set has an empty
// Theorem-3 restriction: such a set must cost no more than carving its
// rows, so the run's allocations divided by the sets it evaluated stay
// under a fixed ceiling. Sequential mining makes the count
// deterministic up to the runtime's own allocations.
func TestMineAllocsPerSet(t *testing.T) {
	prof := datagen.SynthDBLP(0.1)
	g, _, err := datagen.Generate(prof.Config)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		SigmaMin: prof.SigmaMin, Gamma: prof.Gamma, MinSize: prof.MinSize,
		MinAttrs: prof.MinAttrs, EpsMin: prof.EpsMin, DeltaMin: prof.DeltaMin,
		K: 5, Parallelism: 1,
	}
	// The first run warms the null model's cache.
	if _, err := Mine(context.Background(), g, p, nil); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Mine(context.Background(), g, p, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perSet := float64(after.Mallocs-before.Mallocs) / float64(res.Stats.SetsEvaluated)
	t.Logf("%d sets evaluated, %.3f allocations per set", res.Stats.SetsEvaluated, perSet)
	if perSet > maxAllocsPerSet {
		t.Errorf("%.3f allocations per evaluated set, ceiling %v", perSet, maxAllocsPerSet)
	}
}

// TestSetIDAllocs checks that SetID allocates only the id it returns
// for a set of up to 16 names.
func TestSetIDAllocs(t *testing.T) {
	names := []string{"venue:KDD", "term:graph", "term:mining", "author:7"}
	if n := testing.AllocsPerRun(100, func() { SetID(names) }); n != 1 {
		t.Errorf("SetID makes %v allocations, want 1", n)
	}
}
