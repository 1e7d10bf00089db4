package snapshot_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

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
// errors; every success must survive reading the whole pair back —
// rows, labels, neighbour ranges, an id lookup, the exact and subset
// lookups of the first set and a re-encode — without panicking.
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
		sets := x.Sets()
		x.Patterns()
		for v := int32(0); int(v) < g.NumVertices(); v++ {
			g.VertexName(v)
			g.Neighbors(v)
			g.VertexAttrs(v)
		}
		if len(sets) > 0 {
			x.SetIndexByID(x.SetID(0))
			x.Exact(sets[0].Names)
			x.Subsets(sets[0].Names)
		}
		// Encode may reject an inconsistent pair; it must not panic.
		_, _ = snapshot.Encode(g, x)
	})
}
