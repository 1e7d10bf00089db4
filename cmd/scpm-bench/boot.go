package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/experiments"
	"github.com/scpm/scpm/internal/mmapio"
	"github.com/scpm/scpm/internal/snapshot"
)

// bootRun is one dataset's cold-boot comparison on the same v3
// snapshot, both through snapshot.Open: a full boot (every section
// checksum verified, then the row tables, id maps, trie and a vertex
// label touched, so nothing is left for the first query) versus the
// lazy default boot (mapped views, table checksum only). Both load
// the same contents; the columns quantify what the lazy path defers.
type bootRun struct {
	Dataset       string  `json:"dataset"`
	Scale         float64 `json:"scale"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	Sets          int     `json:"sets"`
	Patterns      int     `json:"patterns"`

	// FullBootMS / MmapMS are best-of-repeats wall times of the full
	// and the lazy boot; Speedup is their ratio.
	FullBootMS float64 `json:"full_boot_ms"`
	MmapMS     float64 `json:"mmap_ms"`
	Speedup    float64 `json:"speedup"`

	// MmapOSMapped reports whether the boots got a real OS mapping (on
	// platforms without one Open falls back to a heap read and the
	// speedup only reflects the skipped checksums and deferred tables).
	MmapOSMapped bool `json:"mmap_os_mapped"`

	// Heap deltas (HeapAlloc after − before, post-GC) of holding one
	// boot open: the full boot holds every row table and lookup
	// structure, the lazy one only the assembled views' spine.
	FullBootHeapBytes uint64 `json:"full_boot_heap_bytes"`
	MmapHeapBytes     uint64 `json:"mmap_heap_bytes"`
	// MmapResidentBytes is the snapshot's faulted-in resident size
	// right after the lazy boot, before the full boot maps the file,
	// from /proc/self/smaps (0 when unavailable).
	MmapResidentBytes int64 `json:"mmap_resident_bytes,omitempty"`

	// Verified reports that the two boots' contents were cross-checked
	// (set/pattern ids and ε values, graph shape) before the timings
	// were published.
	Verified bool `json:"verified"`
}

// bootReport is the "boot" section of BENCH_boot.json.
type bootReport struct {
	Repeats int       `json:"repeats"`
	Runs    []bootRun `json:"runs"`
}

// runBootBench mines each dataset, writes its v3 snapshot, then times
// full and lazy cold boots (best of repeats, contents cross-checked),
// writing BENCH_boot.json.
func runBootBench(ctx context.Context, datasets string, scale float64, repeats int, outDir string, stdout io.Writer) error {
	if repeats < 1 {
		repeats = 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("boot: creating %s: %w", outDir, err)
	}
	report := benchReport{
		Schema:  benchSchema,
		Dataset: "boot",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Boot:    &bootReport{Repeats: repeats},
	}
	tmp, err := os.MkdirTemp("", "scpm-bootbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	for _, name := range strings.Split(datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, err := bootOne(ctx, name, scale, repeats, tmp)
		if err != nil {
			return fmt.Errorf("boot %s: %w", name, err)
		}
		report.Boot.Runs = append(report.Boot.Runs, r)
		fmt.Fprintf(stdout, "boot %s snapshot=%dB full=%8.3fms mmap=%8.3fms speedup=%6.1fx heap %d→%d B resident=%dB mapped=%v\n",
			r.Dataset, r.SnapshotBytes, r.FullBootMS, r.MmapMS, r.Speedup,
			r.FullBootHeapBytes, r.MmapHeapBytes, r.MmapResidentBytes, r.MmapOSMapped)
	}
	path := filepath.Join(outDir, "BENCH_boot.json")
	if err := writeBenchReport(path, report); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// bootOne mines one dataset, writes its v3 snapshot and measures the
// full and the lazy boot against it.
func bootOne(ctx context.Context, name string, scale float64, repeats int, tmp string) (bootRun, error) {
	d, err := experiments.Load(name, scale)
	if err != nil {
		return bootRun{}, err
	}
	res, err := core.Mine(ctx, d.Graph, d.Params(), nil)
	if err != nil {
		return bootRun{}, err
	}
	idx := scpm.NewIndex(res, d.Graph)
	path := filepath.Join(tmp, "BOOT_"+name+".scpmidx")
	if err := scpm.WriteSnapshot(path, d.Graph, idx); err != nil {
		return bootRun{}, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return bootRun{}, err
	}

	// Best-of-repeats wall per boot; one more boot of each kind is kept
	// open for the cross-check and the heap/resident columns.
	openBest := func(boot func(string) (*snapshot.Boot, error)) (float64, *snapshot.Boot, uint64, error) {
		best := math.MaxFloat64
		for i := 0; i < repeats; i++ {
			start := time.Now()
			b, err := boot(path)
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			if err != nil {
				return 0, nil, 0, err
			}
			if ms < best {
				best = ms
			}
			if err := b.Close(); err != nil {
				return 0, nil, 0, err
			}
		}
		// One extra, GC-bracketed boot for the heap column, held open.
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b, err := boot(path)
		if err != nil {
			return 0, nil, 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		var heap uint64
		if m1.HeapAlloc > m0.HeapAlloc {
			heap = m1.HeapAlloc - m0.HeapAlloc
		}
		return best, b, heap, nil
	}

	mmapMS, mmapBoot, mmapHeap, err := openBest(bootLazy)
	if err != nil {
		return bootRun{}, err
	}
	defer mmapBoot.Close()
	// Read before the full boot maps the same file: the count covers
	// every mapping of it.
	var resident int64
	if n, ok := mmapio.ResidentBytes(filepath.Base(path)); ok {
		resident = n
	}
	fullMS, fullBoot, fullHeap, err := openBest(bootFull)
	if err != nil {
		return bootRun{}, err
	}
	defer fullBoot.Close()
	if err := sameBoot(fullBoot, mmapBoot); err != nil {
		return bootRun{}, fmt.Errorf("lazy boot diverged from full boot: %w", err)
	}
	return bootRun{
		Dataset:           name,
		Scale:             scale,
		SnapshotBytes:     st.Size(),
		Sets:              len(mmapBoot.Index.Sets()),
		Patterns:          len(mmapBoot.Index.Patterns()),
		FullBootMS:        fullMS,
		MmapMS:            mmapMS,
		Speedup:           fullMS / mmapMS,
		MmapOSMapped:      mmapBoot.OSMapped(),
		FullBootHeapBytes: fullHeap,
		MmapHeapBytes:     mmapHeap,
		MmapResidentBytes: resident,
		Verified:          true,
	}, nil
}

// bootLazy is the default boot: mapped views, table checksum only,
// row tables and lookup structures deferred to first use.
func bootLazy(path string) (*snapshot.Boot, error) {
	return snapshot.Open(path, snapshot.Options{})
}

// bootFull is the fully-resident boot through the same Open: every
// section checksum verified, then the row tables (Sets), the id maps
// and trie (one SetIndexByID lookup) and a vertex label built or
// touched, so the first query pays nothing.
func bootFull(path string) (*snapshot.Boot, error) {
	b, err := snapshot.Open(path, snapshot.Options{Verify: snapshot.VerifyFull})
	if err != nil {
		return nil, err
	}
	if sets := b.Index.Sets(); len(sets) > 0 {
		b.Index.SetIndexByID(b.Index.SetID(0))
	}
	if b.Graph.NumVertices() > 0 {
		b.Graph.VertexName(0)
	}
	return b, nil
}

// sameBoot cross-checks the two boots' loaded contents so a divergence
// can never publish a timing: graph shape, set/pattern counts, stable
// ids and ε values must all agree.
func sameBoot(a, b *scpm.SnapshotBoot) error {
	if a.Graph.NumVertices() != b.Graph.NumVertices() || a.Graph.NumEdges() != b.Graph.NumEdges() ||
		a.Graph.NumAttributes() != b.Graph.NumAttributes() {
		return fmt.Errorf("graph shape |V|=%d/%d |E|=%d/%d |A|=%d/%d",
			a.Graph.NumVertices(), b.Graph.NumVertices(), a.Graph.NumEdges(), b.Graph.NumEdges(),
			a.Graph.NumAttributes(), b.Graph.NumAttributes())
	}
	as, bs := a.Index.Sets(), b.Index.Sets()
	ap, bp := a.Index.Patterns(), b.Index.Patterns()
	if len(as) != len(bs) || len(ap) != len(bp) {
		return fmt.Errorf("%d/%d sets, %d/%d patterns", len(as), len(bs), len(ap), len(bp))
	}
	for i := range as {
		if a.Index.SetID(i) != b.Index.SetID(i) || as[i].Epsilon != bs[i].Epsilon {
			return fmt.Errorf("set %d: id %s ε=%g vs id %s ε=%g",
				i, a.Index.SetID(i), as[i].Epsilon, b.Index.SetID(i), bs[i].Epsilon)
		}
	}
	for i := range ap {
		if a.Index.PatternID(i) != b.Index.PatternID(i) {
			return fmt.Errorf("pattern %d id mismatch", i)
		}
	}
	return nil
}
