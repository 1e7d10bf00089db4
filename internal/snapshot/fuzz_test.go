package snapshot_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/snapshot"
)

// typedErrors are the errors a failed Open may wrap.
var typedErrors = []error{
	snapshot.ErrNotSnapshot, snapshot.ErrVersion, snapshot.ErrRegenerate,
	snapshot.ErrTruncated, snapshot.ErrMisaligned, snapshot.ErrChecksum,
	snapshot.ErrCorrupt, snapshot.ErrBigEndian,
}

// FuzzSnapshotOpen mutates the quickstart snapshot, reseals its
// checksums so the mutation reaches structural validation, and opens
// it with full verification. Every failure must be one of the typed
// errors; every success must survive reading the whole pair back
// without panicking. The index is queried first as booted, reading
// rows from the columns — the id lookup, the exact, subset and
// containment lookups of the first set, every ranking, the top sets,
// a vertex lookup and the rows of the first and the last set and
// pattern — and again once Sets and Patterns have materialized the
// row tables: both rounds must answer alike, the rows read singly must
// equal the materialized ones, and each ranking must order the
// materialized rows as a stable comparison sort does. Last the pair is
// re-encoded.
//
//	go test -run '^$' -fuzz FuzzSnapshotOpen -fuzztime 30s ./internal/snapshot
func FuzzSnapshotOpen(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "quickstart.scpmidx"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append([]byte(nil), data...)
		reseal(data)
		path := filepath.Join(t.TempDir(), "fuzz.scpmidx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		boot, err := snapshot.Open(path, snapshot.Options{Verify: snapshot.VerifyFull})
		if err != nil {
			for _, typed := range typedErrors {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped open error: %v", err)
		}
		defer boot.Close()
		g, x := boot.Graph, boot.Index
		booted := lookups(x, g)
		sets, pats := x.Sets(), x.Patterns()
		if got := lookups(x, g); !same(got, booted) {
			t.Fatalf("answers changed once the rows were materialized:\nbooted: %+v\nafter:  %+v", booted, got)
		}
		for _, i := range []int{0, len(sets) - 1} {
			if i >= 0 && !same(x.Set(i), sets[i]) {
				t.Fatalf("set %d read from the columns %+v, materialized %+v", i, x.Set(i), sets[i])
			}
		}
		for _, i := range []int{0, len(pats) - 1} {
			if i >= 0 && !same(x.Pattern(i), pats[i]) {
				t.Fatalf("pattern %d read from the columns %+v, materialized %+v", i, x.Pattern(i), pats[i])
			}
		}
		for r := core.BySupport; r <= core.ByDelta; r++ {
			want := make([]int32, len(sets))
			for i := range want {
				want[i] = int32(i)
			}
			slices.SortStableFunc(want, func(a, b int32) int { return r.Compare(&sets[a], &sets[b]) })
			if got := x.Ranked(r); !slices.Equal(got, want) {
				t.Fatalf("Ranked(%v) = %v, a stable sort gives %v", r, got, want)
			}
		}
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			g.VertexName(v)
			g.Neighbors(v)
			g.VertexAttrs(v)
		}
		// Encode may reject an inconsistent pair; it must not panic.
		_, _ = snapshot.Encode(g, x)
	})
}

// same reports whether a and b print alike, so that a NaN read from a
// fuzzed file equals itself.
func same(a, b any) bool { return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) }

// answers holds what lookups read from an index.
type answers struct {
	ByID                int
	Exact               int
	Subsets, Supersets  []int
	Ranked              [][]int32
	Top                 []core.AttributeSet
	WithVertex          []int
	First, Last         core.AttributeSet
	FirstPat, LastPat   core.Pattern
	FirstVerts, LastIDs []string
}

// lookups runs every query class of the index over its first set, its
// first vertex and its rankings, and reads its first and last rows.
func lookups(x *index.Index, g *graph.Graph) answers {
	var a answers
	if n := x.NumSets(); n > 0 {
		a.ByID = x.SetIndexByID(x.SetID(0))
		a.First, a.Last = x.Set(0), x.Set(n-1)
		a.Exact = x.Exact(a.First.Names)
		a.Subsets = x.Subsets(a.First.Names)
		a.Supersets = x.Supersets(a.First.Names)
		a.LastIDs = []string{x.SetID(n - 1)}
	}
	for r := core.BySupport; r <= core.ByDelta; r++ {
		a.Ranked = append(a.Ranked, slices.Clone(x.Ranked(r)))
	}
	a.Top = x.TopSets(core.ByDelta, 3)
	if g.NumVertices() > 0 {
		a.WithVertex = x.PatternsWithVertex(g.VertexName(0))
	}
	if n := x.NumPatterns(); n > 0 {
		a.FirstPat, a.LastPat = x.Pattern(0), x.Pattern(n-1)
		a.FirstVerts = x.PatternVertexNames(0)
		a.LastIDs = append(a.LastIDs, x.PatternID(n-1), x.PatternSetID(n-1))
	}
	return a
}
