package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestLevel1VerdictReplay is the sealed-verdict equivalence property:
// mining with precomputed level-1 verdicts injected produces output —
// sets, ε, δ, patterns, stable ids, recorded lattice AND every stats
// counter including SearchNodes — bit-identical to evaluating level 1
// live, in exact and sampled ε modes, unsharded and sharded, while
// actually replaying (ReusedVerdicts > 0).
func TestLevel1VerdictReplay(t *testing.T) {
	ctx := context.Background()
	for mode, base := range remineParams() {
		t.Run(mode, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				g := remineGraph(t, int64(2700+trial))
				label := fmt.Sprintf("%s trial %d", mode, trial)
				want, err := Mine(ctx, g, base, nil)
				if err != nil {
					t.Fatal(err)
				}

				verdicts, err := ComputeLevel1(ctx, g, base)
				if err != nil {
					t.Fatal(err)
				}
				p := base
				p.Level1Verdicts = verdicts
				got, err := Mine(ctx, g, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, label+" unsharded", got, want)
				if got.Stats.ReusedVerdicts == 0 {
					t.Fatalf("%s: verdict run replayed nothing", label)
				}
				gs, ws := got.Stats, want.Stats
				gs.Duration, ws.Duration = 0, 0
				gs.ReusedVerdicts, ws.ReusedVerdicts = 0, 0
				if gs != ws {
					t.Fatalf("%s: stats diverge\ngot:  %+v\nwant: %+v", label, gs, ws)
				}

				// Sharded: every shard replays the shared verdicts; the
				// merged counters still sum to the single-process run.
				const n = 2
				parts := make([]*Result, n)
				for k := 0; k < n; k++ {
					sp := p
					sp.ShardOwner = parityOwner(k)
					if parts[k], err = Mine(ctx, g, sp, nil); err != nil {
						t.Fatal(err)
					}
				}
				merged, err := MergeResults(parts...)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, label+" sharded", merged, want)
				ms := merged.Stats
				ms.Duration, ms.ReusedVerdicts = 0, 0
				if ms != ws {
					t.Fatalf("%s: merged stats diverge\ngot:  %+v\nwant: %+v", label, ms, ws)
				}
			}
		})
	}
}

// TestLevel1VerdictGuards pins the two injection guards: a parameter-
// fingerprint mismatch fails loudly (silently mining the wrong numbers
// is the one unacceptable outcome), and so does a graph-version
// mismatch, with the typed ErrStaleVerdicts — callers drop a stale
// table before mining.
func TestLevel1VerdictGuards(t *testing.T) {
	ctx := context.Background()
	base := remineParams()["exact"]
	g := remineGraph(t, 2800)
	verdicts, err := ComputeLevel1(ctx, g, base)
	if err != nil {
		t.Fatal(err)
	}

	// Fingerprint mismatch: loud.
	p := base
	p.EpsMin = base.EpsMin + 0.01
	p.Level1Verdicts = verdicts
	if _, err := Mine(ctx, g, p, nil); err == nil || !strings.Contains(err.Error(), "level-1 verdicts sealed under") {
		t.Fatalf("mismatched fingerprint not rejected (err=%v)", err)
	}

	// Graph-version mismatch: typed error.
	d := g.NewDelta()
	victim := g.VertexName(0)
	if err := d.UnsetAttr(victim, "a0"); err != nil {
		d = g.NewDelta()
		if err := d.SetAttr(victim, "a0"); err != nil {
			t.Fatal(err)
		}
	}
	ng, _, err := g.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	p = base
	p.Level1Verdicts = verdicts
	if _, err := Mine(ctx, ng, p, nil); !errors.Is(err, ErrStaleVerdicts) {
		t.Fatalf("stale verdicts not rejected (err=%v)", err)
	}
}

// TestSinglesMemoizedOnce pins where a lattice-recording run memoizes
// each evaluation: every frequent single once, in the level-1 verdict
// table, and only sets of two or more attributes in the lattice (the
// only entries Remine's replay reads from it), in exact and sampled ε
// modes, unsharded and 2-shard merged.
func TestSinglesMemoizedOnce(t *testing.T) {
	ctx := context.Background()
	for mode, p := range remineParams() {
		g := remineGraph(t, 2900)
		unsharded, err := Mine(ctx, g, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Result, 2)
		for k := range parts {
			sp := p
			sp.ShardOwner = parityOwner(k)
			if parts[k], err = Mine(ctx, g, sp, nil); err != nil {
				t.Fatal(err)
			}
		}
		merged, err := MergeResults(parts...)
		if err != nil {
			t.Fatal(err)
		}
		for label, res := range map[string]*Result{"unsharded": unsharded, "merged": merged} {
			label = mode + " " + label
			if res.lattice.Size() == 0 {
				t.Fatalf("%s: empty lattice", label)
			}
			sets := latticeSets(res.lattice)
			for _, attrs := range sets {
				if len(attrs) < 2 {
					t.Errorf("%s: lattice memoizes the single %v", label, attrs)
				}
			}
			if len(sets) != res.lattice.Size() {
				t.Errorf("%s: lattice blocks hold %d sets, Size reports %d", label, len(sets), res.lattice.Size())
			}
			singles := 0
			for a := int32(0); a < int32(g.NumAttributes()); a++ {
				if g.AttrSupport(a) < p.SigmaMin {
					continue
				}
				singles++
				if res.level1.Lookup(a) == nil {
					t.Errorf("%s: level-1 table misses frequent single %d", label, a)
				}
			}
			if got := res.level1.Len(); got != singles {
				t.Errorf("%s: level-1 table holds %d verdicts, want %d", label, got, singles)
			}
		}
	}
}
