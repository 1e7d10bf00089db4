package snapshot_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	scpm "github.com/scpm/scpm"
	"github.com/scpm/scpm/internal/mmapio"
	"github.com/scpm/scpm/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// minedPair mines the paper example (the quickstart configuration) and
// returns the graph/index pair every test round-trips.
func minedPair(t *testing.T) (*scpm.Graph, *scpm.Index) {
	t.Helper()
	g, res := mineQuickstart(t)
	return g, scpm.NewIndex(res, g)
}

// mineQuickstart mines the paper example under the quickstart
// configuration, with the wall-clock Stats.Duration pinned to 0 so the
// encoded bytes are reproducible.
func mineQuickstart(t *testing.T) (*scpm.Graph, *scpm.Result) {
	t.Helper()
	g := scpm.PaperExample()
	m, err := scpm.NewMiner(
		scpm.WithSigmaMin(3),
		scpm.WithGamma(0.6),
		scpm.WithMinSize(4),
		scpm.WithEpsMin(0.5),
		scpm.WithTopK(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Mine(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.Duration = 0
	return g, res
}

// TestQuickstartGolden pins mined output end to end: the v3 snapshot of
// the quickstart mine — graph, sets, ε, δ, patterns, stable ids and
// every Stats counter — must match testdata/quickstart.scpmidx byte for
// byte, and the golden must open to the same pair. A diff means either
// the format or the mined output changed; regenerate with
// `go test ./internal/snapshot -run Golden -update` only after a
// deliberate change to one of them.
func TestQuickstartGolden(t *testing.T) {
	g, x := minedPair(t)
	got, err := snapshot.Encode(g, x)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "quickstart.scpmidx")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("quickstart snapshot differs from golden (%d vs %d bytes)", len(got), len(want))
	}
	boot, err := snapshot.Open(golden, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	checkPair(t, boot, g, x)
}

func writeV3(t *testing.T, g *scpm.Graph, x *scpm.Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "pair.scpmidx")
	if err := snapshot.Write(path, g, x); err != nil {
		t.Fatal(err)
	}
	return path
}

func checkPair(t *testing.T, boot *snapshot.Boot, g *scpm.Graph, x *scpm.Index) {
	t.Helper()
	lg, lx := boot.Graph, boot.Index

	if lg.NumVertices() != g.NumVertices() || lg.NumEdges() != g.NumEdges() ||
		lg.NumAttributes() != g.NumAttributes() || lg.Version() != g.Version() {
		t.Fatalf("graph shape mismatch: %v vs %v", lg, g)
	}
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if lg.VertexName(v) != g.VertexName(v) {
			t.Fatalf("vertex %d name %q, want %q", v, lg.VertexName(v), g.VertexName(v))
		}
		if !reflect.DeepEqual(lg.Neighbors(v), g.Neighbors(v)) {
			t.Fatalf("vertex %d neighbors %v, want %v", v, lg.Neighbors(v), g.Neighbors(v))
		}
		if !reflect.DeepEqual(lg.VertexAttrs(v), g.VertexAttrs(v)) {
			t.Fatalf("vertex %d attrs %v, want %v", v, lg.VertexAttrs(v), g.VertexAttrs(v))
		}
		if id, ok := lg.VertexID(g.VertexName(v)); !ok || id != v {
			t.Fatalf("vertex %q resolves to (%d,%v), want %d", g.VertexName(v), id, ok, v)
		}
	}
	for a := int32(0); int(a) < g.NumAttributes(); a++ {
		if lg.AttrName(a) != g.AttrName(a) {
			t.Fatalf("attr %d name %q, want %q", a, lg.AttrName(a), g.AttrName(a))
		}
		if !lg.AttrMembers(a).Equal(g.AttrMembers(a)) {
			t.Fatalf("attr %d members %v, want %v", a, lg.AttrMembers(a), g.AttrMembers(a))
		}
	}

	if !reflect.DeepEqual(lx.Sets(), x.Sets()) {
		t.Fatalf("sets mismatch:\n%v\nvs\n%v", lx.Sets(), x.Sets())
	}
	if !reflect.DeepEqual(lx.Patterns(), x.Patterns()) {
		t.Fatalf("patterns mismatch")
	}
	if lx.MiningStats() != x.MiningStats() {
		t.Fatalf("stats %+v, want %+v", lx.MiningStats(), x.MiningStats())
	}
	for i := range x.Sets() {
		if lx.SetID(i) != x.SetID(i) {
			t.Fatalf("set %d id %q, want %q", i, lx.SetID(i), x.SetID(i))
		}
		if !reflect.DeepEqual(lx.PatternsOfSet(x.SetID(i)), x.PatternsOfSet(x.SetID(i))) {
			t.Fatalf("set %d patterns-of mismatch", i)
		}
	}
	for i := range x.Patterns() {
		if lx.PatternID(i) != x.PatternID(i) || lx.PatternSetID(i) != x.PatternSetID(i) {
			t.Fatalf("pattern %d ids mismatch", i)
		}
		if !reflect.DeepEqual(lx.PatternVertexNames(i), x.PatternVertexNames(i)) {
			t.Fatalf("pattern %d vertex names mismatch", i)
		}
		for _, label := range x.PatternVertexNames(i) {
			if !reflect.DeepEqual(lx.PatternsWithVertex(label), x.PatternsWithVertex(label)) {
				t.Fatalf("vertex posting %q mismatch", label)
			}
		}
	}
	for _, s := range x.Sets() {
		for _, name := range s.Names {
			if !reflect.DeepEqual(lx.WithAttr(name), x.WithAttr(name)) {
				t.Fatalf("attr posting %q mismatch", name)
			}
			if !reflect.DeepEqual(lx.Supersets([]string{name}), x.Supersets([]string{name})) {
				t.Fatalf("supersets(%q) mismatch", name)
			}
		}
		if lx.Exact(s.Names) != x.Exact(s.Names) {
			t.Fatalf("exact(%v) mismatch", s.Names)
		}
	}
}

// TestRoundTripCarriesEstimationAndInf covers set fields the quickstart
// mine leaves at zero: an infinite δ and the sampled-ε estimation
// columns must survive a write and an open.
func TestRoundTripCarriesEstimationAndInf(t *testing.T) {
	g, res := mineQuickstart(t)
	res.Sets[0].Delta = math.Inf(1)
	res.Sets[1].Estimated = true
	res.Sets[1].EpsilonErr = 0.125
	res.Sets[1].SampledVertices = 185
	boot, err := snapshot.Open(writeV3(t, g, scpm.NewIndex(res, g)), snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	sets := boot.Index.Sets()
	if !math.IsInf(sets[0].Delta, 1) {
		t.Fatal("+Inf delta lost")
	}
	if s := sets[1]; !s.Estimated || s.EpsilonErr != 0.125 || s.SampledVertices != 185 {
		t.Fatalf("estimation fields lost: %+v", s)
	}
}

// verifyLevels are the two Open verification levels every round-trip
// and hostile-file test runs at.
var verifyLevels = []snapshot.Verify{snapshot.VerifyTable, snapshot.VerifyFull}

func TestRoundTripBothModes(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	for _, verify := range verifyLevels {
		boot, err := snapshot.Open(path, snapshot.Options{Verify: verify})
		if err != nil {
			t.Fatalf("verify %v: %v", verify, err)
		}
		checkPair(t, boot, g, x)
		if err := boot.Close(); err != nil {
			t.Fatalf("verify %v close: %v", verify, err)
		}
	}
}

// TestFullVerifyOnMmap checksums every section of an OS-mapped file
// (where the host supports mapping) and checks the pair still matches.
func TestFullVerifyOnMmap(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	boot, err := snapshot.Open(path, snapshot.Options{Verify: snapshot.VerifyFull})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	if boot.OSMapped() != mmapio.Supported() {
		t.Fatalf("OSMapped = %v, want %v", boot.OSMapped(), mmapio.Supported())
	}
	checkPair(t, boot, g, x)
}

// TestHeapFallbackRoundTrip opens the file through the heap-read
// region Open falls back to where mmap is unavailable, so that path
// runs on every host: the pair must match and re-encode bit-identically.
func TestHeapFallbackRoundTrip(t *testing.T) {
	g, x := minedPair(t)
	want, err := snapshot.Encode(g, x)
	if err != nil {
		t.Fatal(err)
	}
	path := writeV3(t, g, x)
	for _, verify := range verifyLevels {
		boot, err := snapshot.OpenHeap(path, verify)
		if err != nil {
			t.Fatalf("verify %v: %v", verify, err)
		}
		if boot.OSMapped() {
			t.Fatal("heap boot reports an OS mapping")
		}
		checkPair(t, boot, g, x)
		got, err := snapshot.Encode(boot.Graph, boot.Index)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("verify %v: Encode after a heap boot is not bit-identical", verify)
		}
		if err := boot.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEncodeDeterministicAndRewriteStable(t *testing.T) {
	g, x := minedPair(t)
	a, err := snapshot.Encode(g, x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := snapshot.Encode(g, x)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two Encodes of the same pair differ")
	}
	// Write → Open → Encode must reproduce the file bit-identically:
	// the format stores the exact in-memory representation, so a load
	// loses nothing.
	path := writeV3(t, g, x)
	boot, err := snapshot.Open(path, snapshot.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	c, err := snapshot.Encode(boot.Graph, boot.Index)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("Encode after a load round-trip is not bit-identical")
	}
}

// patch rewrites one file with fn applied to its bytes.
func patch(t *testing.T, src string, fn func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "patched.scpmidx")
	if err := os.WriteFile(out, fn(append([]byte(nil), data...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

const headerSize, entrySize, numKinds = 32, 24, 25

// fixTableCRC recomputes the header/table checksum after a deliberate
// table mutation, so the test reaches the deeper validation layer.
func fixTableCRC(data []byte) {
	crc := crc32.NewIEEE()
	crc.Write(data[:24])
	crc.Write(data[headerSize : headerSize+numKinds*entrySize])
	binary.LittleEndian.PutUint32(data[24:28], crc.Sum32())
}

// reseal recomputes every in-bounds section checksum and then the
// table checksum, so a mutated payload reaches structural validation
// at both verification levels instead of failing its CRC.
func reseal(data []byte) {
	if len(data) < headerSize+numKinds*entrySize {
		return
	}
	for i := 0; i < numKinds; i++ {
		base := headerSize + i*entrySize
		off := binary.LittleEndian.Uint64(data[base+8:])
		n := binary.LittleEndian.Uint64(data[base+16:])
		if off <= uint64(len(data)) && n <= uint64(len(data))-off {
			binary.LittleEndian.PutUint32(data[base+4:], crc32.ChecksumIEEE(data[off:off+n]))
		}
	}
	fixTableCRC(data)
}

// openBoth opens path at both verification levels and returns each
// level's error.
func openBoth(path string) []error {
	var errs []error
	for _, verify := range verifyLevels {
		boot, err := snapshot.Open(path, snapshot.Options{Verify: verify})
		if err == nil {
			boot.Close()
		}
		errs = append(errs, err)
	}
	return errs
}

func TestHostileTruncated(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	data, _ := os.ReadFile(path)
	for _, keep := range []int{4, 31, 200, len(data) / 2, len(data) - 1} {
		cut := patch(t, path, func(b []byte) []byte { return b[:keep] })
		for _, err := range openBoth(cut) {
			if err == nil {
				t.Fatalf("truncated to %d bytes: open succeeded", keep)
			}
			if !errors.Is(err, snapshot.ErrTruncated) {
				t.Fatalf("truncated to %d bytes: err = %v, want ErrTruncated", keep, err)
			}
		}
	}
}

func TestHostileMisalignedSectionOffset(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	bad := patch(t, path, func(b []byte) []byte {
		// Nudge the adj-off section (table entry 1) off 8-byte alignment.
		base := 32 + 1*24
		off := binary.LittleEndian.Uint64(b[base+8 : base+16])
		binary.LittleEndian.PutUint64(b[base+8:base+16], off+4)
		fixTableCRC(b)
		return b
	})
	for _, err := range openBoth(bad) {
		if !errors.Is(err, snapshot.ErrMisaligned) {
			t.Fatalf("err = %v, want ErrMisaligned", err)
		}
	}
}

func TestHostileFlippedSectionChecksum(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	bad := patch(t, path, func(b []byte) []byte {
		// Flip one bit inside the adj-arena payload (table entry 2);
		// the table CRC does not cover payloads, so only the section
		// CRC can catch it.
		base := 32 + 2*24
		off := binary.LittleEndian.Uint64(b[base+8 : base+16])
		b[off] ^= 0x40
		return b
	})
	boot, err := snapshot.Open(bad, snapshot.Options{Verify: snapshot.VerifyFull})
	if err == nil {
		boot.Close()
		t.Fatal("full-verify open of a corrupted section succeeded")
	}
	if !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestHostileFlippedTableByte(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	bad := patch(t, path, func(b []byte) []byte {
		b[40] ^= 1 // inside the section table, CRC left stale
		return b
	})
	for _, err := range openBoth(bad) {
		if !errors.Is(err, snapshot.ErrChecksum) {
			t.Fatalf("err = %v, want ErrChecksum", err)
		}
	}
}

func TestHostileCorruptCounts(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	bad := patch(t, path, func(b []byte) []byte {
		// Inflate the vertex count in the meta section (first section,
		// slot 0) to an absurd value.
		base := 32 + 0*24
		off := binary.LittleEndian.Uint64(b[base+8 : base+16])
		binary.LittleEndian.PutUint64(b[off:off+8], 1<<40)
		reseal(b)
		return b
	})
	// With the checksums resealed, both verification levels must
	// reject it structurally, before any count-sized allocation.
	for _, err := range openBoth(bad) {
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	}
}

func TestHostileVersionAndMagic(t *testing.T) {
	g, x := minedPair(t)
	path := writeV3(t, g, x)
	v9 := patch(t, path, func(b []byte) []byte { b[7] = 9; return b })
	if _, err := snapshot.Open(v9, snapshot.Options{}); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("version 9 err = %v, want ErrVersion", err)
	}
	junk := patch(t, path, func(b []byte) []byte { copy(b, "GARBAGE!"); return b })
	if _, err := snapshot.Open(junk, snapshot.Options{}); !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("bad magic err = %v, want ErrNotSnapshot", err)
	}
}

// TestV2CompatSignal pins what a retired v2 (index-only) snapshot gets:
// the typed ErrRegenerate, at both verification levels, never a
// misleading "corrupt" or "not a snapshot".
func TestV2CompatSignal(t *testing.T) {
	for _, err := range openBoth(filepath.Join("testdata", "quickstart-v2.idx")) {
		if !errors.Is(err, snapshot.ErrRegenerate) {
			t.Fatalf("v2 open err = %v, want ErrRegenerate", err)
		}
	}
}

// TestCrashConsistency simulates a writer killed at every interesting
// point: a half-written temp file must never load under the target
// name, and an existing good snapshot must survive a failed rewrite
// attempt untouched.
func TestCrashConsistency(t *testing.T) {
	g, x := minedPair(t)
	dir := t.TempDir()
	target := filepath.Join(dir, "live.scpmidx")
	if err := snapshot.Write(target, g, x); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}

	// A crashed writer leaves only a temp file (Write publishes with
	// rename); whatever prefix it got to, the target stays intact.
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		tmp := filepath.Join(dir, "live.scpmidx.tmp-crashed")
		if err := os.WriteFile(tmp, good[:int(float64(len(good))*frac)], 0o644); err != nil {
			t.Fatal(err)
		}
		now, err := os.ReadFile(target)
		if err != nil || !bytes.Equal(now, good) {
			t.Fatalf("target changed by a crashed temp write (frac %.1f)", frac)
		}
		boot, err := snapshot.Open(target, snapshot.Options{Verify: snapshot.VerifyFull})
		if err != nil {
			t.Fatalf("target unloadable after crashed temp write: %v", err)
		}
		boot.Close()
		// And the partial temp itself is typed-rejected, not a panic.
		if _, err := snapshot.Open(tmp, snapshot.Options{}); err == nil {
			t.Fatalf("half-written file (frac %.1f) loaded successfully", frac)
		}
		os.Remove(tmp)
	}

	// A successful Write leaves no temp files behind.
	if err := snapshot.Write(target, g, x); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "live.scpmidx" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after Write: %v", names)
	}
}

func TestWriteRejectsMismatchedPair(t *testing.T) {
	_, x := minedPair(t)
	b := scpm.NewBuilder()
	if _, err := b.AddVertex("v0", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddVertex("v1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	small, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Write(filepath.Join(t.TempDir(), "bad.scpmidx"), small, x); err == nil {
		t.Fatal("Write accepted an index paired with the wrong graph")
	}
}
