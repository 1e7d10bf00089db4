package snapshot

import (
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/core"
	"github.com/scpm/scpm/internal/graph"
	"github.com/scpm/scpm/internal/index"
	"github.com/scpm/scpm/internal/mmapio"
)

// Mode is the vestige of a retired boot-mode switch: Open has one
// decode path and ignores Options.Mode. It stays only because the
// benchmark module (perfbench) still names ModeMmap.
type Mode int

// ModeMmap is the only Mode; see Mode.
const ModeMmap Mode = 0

// Verify selects how much of the file Open checksums.
type Verify int

const (
	// VerifyTable, the zero value, checks the header and section-table
	// CRC plus all structural invariants, but not section payload CRCs:
	// a full pass would fault the whole mapped file in and defeat lazy
	// paging.
	VerifyTable Verify = iota
	// VerifyFull additionally checks every section CRC, runs the
	// per-element graph scans and checks that the set table is in
	// canonical order.
	VerifyFull
)

// Options configures Open.
type Options struct {
	// Mode is ignored; see Mode.
	Mode   Mode
	Verify Verify
}

// Boot is one opened v3 snapshot: the graph/index pair plus the
// region backing their views. Keep it (and the region) alive for as
// long as anything derived from the pair is reachable — including
// later generations produced by live updates, which share untouched
// bitsets and label strings with the boot generation by reference.
type Boot struct {
	Graph *graph.Graph
	Index *index.Index

	mapping *mmapio.Mapping
}

// OSMapped reports whether the backing region is a true OS file
// mapping (false for the heap fallback).
func (b *Boot) OSMapped() bool { return b.mapping.Mapped() }

// MappedBytes returns the size of the backing region.
func (b *Boot) MappedBytes() int64 { return int64(b.mapping.Len()) }

// Close releases the backing region. The graph and index become
// invalid — only call it once nothing can reach them.
func (b *Boot) Close() error { return b.mapping.Close() }

// Open opens a v3 snapshot. The file is mapped (an OS mapping where
// supported, an aligned heap read elsewhere) and the graph and index
// are built as views over it: boot cost is O(offset tables), data
// pages in on first touch, and row tables, vertex-label lookups and
// query structures are built on first use. opts.Verify decides only
// how much is checksummed. A v2 file fails with ErrRegenerate.
func Open(path string, opts Options) (*Boot, error) {
	if !mmapio.LittleEndianHost() {
		return nil, ErrBigEndian
	}
	m, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	boot, err := assemble(m, opts.Verify)
	if err != nil {
		m.Close() // no partial mapping leaks on failed opens
		return nil, err
	}
	return boot, nil
}

func assemble(m *mmapio.Mapping, verify Verify) (*Boot, error) {
	full := verify == VerifyFull
	fp, err := parse(m.Data(), full)
	if err != nil {
		return nil, err
	}
	g, err := buildGraph(fp, full)
	if err != nil {
		return nil, err
	}
	x, err := buildIndex(fp, g, full)
	if err != nil {
		return nil, err
	}
	return &Boot{Graph: g, Index: x, mapping: m}, nil
}

// fileParts holds one typed view per section, all aliasing the region.
type fileParts struct {
	meta                 []uint64
	adjOff, attrOff      []int64
	adjArena, attrArena  []int32
	members              []uint64
	vnameOffs, anameOffs []int64
	vnameBlob, anameBlob []byte
	setAttrOff           []int64
	setAttrs             []int32
	setNum               []uint64
	setIDs               []byte
	patAttrOff           []int64
	patVertOff           []int64
	patAttrs, patVerts   []int32
	patNum               []uint64
	patIDs, patSetIDs    []byte
	attrPostKeys         []int32
	attrPost             []uint64
	vertPostKeys         []int32
	vertPost             []uint64

	nV, nE, nA, nS, nP, nAK, nVK int
}

// parse validates the header, table and every section's placement and
// exact expected length, then carves the typed views. With
// verifySections it also checks each section's CRC. Nothing beyond
// the meta section is dereferenced before its bounds are proven.
func parse(data []byte, verifySections bool) (*fileParts, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte file", ErrTruncated, len(data))
	}
	if string(data[:7]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrNotSnapshot, data[:7])
	}
	switch data[7] {
	case version:
	case 2:
		return nil, ErrRegenerate
	default:
		return nil, fmt.Errorf("%w: version %d", ErrVersion, data[7])
	}
	if size := getU64(data, 8); size != uint64(len(data)) {
		if size > uint64(len(data)) {
			return nil, fmt.Errorf("%w: header claims %d bytes, file has %d", ErrTruncated, size, len(data))
		}
		return nil, fmt.Errorf("%w: header claims %d bytes, file has %d", ErrCorrupt, size, len(data))
	}
	if n := getU64(data, 16); n != numKinds {
		return nil, fmt.Errorf("%w: %d sections, want %d", ErrCorrupt, n, numKinds)
	}
	tableEnd := headerSize + numKinds*entrySize
	if len(data) < tableEnd {
		return nil, fmt.Errorf("%w: file ends inside the section table", ErrTruncated)
	}
	crc := crc32.NewIEEE()
	crc.Write(data[:24])
	crc.Write(data[headerSize:tableEnd])
	if got := getU32(data, 24); got != crc.Sum32() {
		return nil, fmt.Errorf("%w: section table (file %08x, computed %08x)", ErrChecksum, got, crc.Sum32())
	}

	secs := make([][]byte, numKinds+1)
	for i := 0; i < numKinds; i++ {
		base := headerSize + i*entrySize
		kind := getU32(data, base)
		off := getU64(data, base+8)
		length := getU64(data, base+16)
		if kind != uint32(i+1) {
			return nil, fmt.Errorf("%w: section %d has kind %s, want %s", ErrCorrupt, i, sectionName(kind), sectionName(uint32(i+1)))
		}
		if off%8 != 0 {
			return nil, fmt.Errorf("%w: %s at offset %d", ErrMisaligned, sectionName(kind), off)
		}
		if off < uint64(tableEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: %s [%d,+%d) exceeds %d-byte file", ErrTruncated, sectionName(kind), off, length, len(data))
		}
		payload := data[off : off+length]
		if verifySections {
			if got, want := getU32(data, base+4), crc32.ChecksumIEEE(payload); got != want {
				return nil, fmt.Errorf("%w: %s (file %08x, computed %08x)", ErrChecksum, sectionName(kind), got, want)
			}
		}
		secs[kind] = payload
	}

	metaSec, err := mmapio.Uint64s(secs[kindMeta])
	if err != nil || len(metaSec) != metaSlots {
		return nil, fmt.Errorf("%w: meta section has %d bytes, want %d slots", ErrCorrupt, len(secs[kindMeta]), metaSlots)
	}
	fp := &fileParts{meta: metaSec}
	// Counts bound every allocation below; no honest count can exceed
	// the file size (each counted element occupies at least one byte of
	// some section), so larger values are corruption, caught before any
	// count-sized allocation.
	counts := []struct {
		slot int
		dst  *int
		name string
	}{
		{metaVertices, &fp.nV, "vertices"},
		{metaEdges, &fp.nE, "edges"},
		{metaAttributes, &fp.nA, "attributes"},
		{metaSets, &fp.nS, "sets"},
		{metaPatterns, &fp.nP, "patterns"},
		{metaAttrPostKeys, &fp.nAK, "attr-post keys"},
		{metaVertPostKeys, &fp.nVK, "vert-post keys"},
	}
	for _, c := range counts {
		v := metaSec[c.slot]
		if v > uint64(len(data)) {
			return nil, fmt.Errorf("%w: %d %s in a %d-byte file", ErrCorrupt, v, c.name, len(data))
		}
		*c.dst = int(v)
	}

	// Exact expected byte length per section, derived from the counts.
	want := [numKinds + 1]uint64{
		kindAdjOff:       uint64(fp.nV+1) * 8,
		kindAdjArena:     uint64(fp.nE) * 2 * 4,
		kindAttrOff:      uint64(fp.nV+1) * 8,
		kindMembers:      uint64(fp.nA) * uint64(wordsPer(fp.nV)) * 8,
		kindVNameOffs:    uint64(fp.nV+1) * 8,
		kindANameOffs:    uint64(fp.nA+1) * 8,
		kindSetAttrOff:   uint64(fp.nS+1) * 8,
		kindSetNumeric:   uint64(fp.nS) * setSlots * 8,
		kindSetIDs:       uint64(fp.nS) * idLen,
		kindPatAttrOff:   uint64(fp.nP+1) * 8,
		kindPatVertOff:   uint64(fp.nP+1) * 8,
		kindPatNumeric:   uint64(fp.nP) * patSlots * 8,
		kindPatIDs:       uint64(fp.nP) * idLen,
		kindPatSetIDs:    uint64(fp.nP) * idLen,
		kindAttrPostKeys: uint64(fp.nAK) * 4,
		kindAttrPost:     uint64(fp.nAK) * uint64(wordsPer(fp.nS)) * 8,
		kindVertPostKeys: uint64(fp.nVK) * 4,
		kindVertPost:     uint64(fp.nVK) * uint64(wordsPer(fp.nP)) * 8,
	}
	freeLength := map[int]bool{
		kindMeta: true, kindAttrArena: true, kindVNameBlob: true,
		kindANameBlob: true, kindSetAttrs: true, kindPatAttrs: true, kindPatVerts: true,
	}
	for kind := 1; kind <= numKinds; kind++ {
		if freeLength[kind] {
			continue
		}
		if got := uint64(len(secs[kind])); got != want[kind] {
			return nil, fmt.Errorf("%w: %s section has %d bytes, want %d", ErrCorrupt, sectionName(uint32(kind)), got, want[kind])
		}
	}

	carve := func(kind int, dst any) {
		if err != nil {
			return
		}
		var e error
		switch p := dst.(type) {
		case *[]int64:
			*p, e = mmapio.Int64s(secs[kind])
		case *[]int32:
			*p, e = mmapio.Int32s(secs[kind])
		case *[]uint64:
			*p, e = mmapio.Uint64s(secs[kind])
		case *[]byte:
			*p = secs[kind]
		}
		if e != nil {
			err = fmt.Errorf("%w: %s: %v", ErrMisaligned, sectionName(uint32(kind)), e)
		}
	}
	err = nil
	carve(kindAdjOff, &fp.adjOff)
	carve(kindAdjArena, &fp.adjArena)
	carve(kindAttrOff, &fp.attrOff)
	carve(kindAttrArena, &fp.attrArena)
	carve(kindMembers, &fp.members)
	carve(kindVNameOffs, &fp.vnameOffs)
	carve(kindVNameBlob, &fp.vnameBlob)
	carve(kindANameOffs, &fp.anameOffs)
	carve(kindANameBlob, &fp.anameBlob)
	carve(kindSetAttrOff, &fp.setAttrOff)
	carve(kindSetAttrs, &fp.setAttrs)
	carve(kindSetNumeric, &fp.setNum)
	carve(kindSetIDs, &fp.setIDs)
	carve(kindPatAttrOff, &fp.patAttrOff)
	carve(kindPatAttrs, &fp.patAttrs)
	carve(kindPatVertOff, &fp.patVertOff)
	carve(kindPatVerts, &fp.patVerts)
	carve(kindPatNumeric, &fp.patNum)
	carve(kindPatIDs, &fp.patIDs)
	carve(kindPatSetIDs, &fp.patSetIDs)
	carve(kindAttrPostKeys, &fp.attrPostKeys)
	carve(kindAttrPost, &fp.attrPost)
	carve(kindVertPostKeys, &fp.vertPostKeys)
	carve(kindVertPost, &fp.vertPost)
	if err != nil {
		return nil, err
	}
	return fp, nil
}

// checkOffsets validates a CSR-style offset table: n+1 entries (known
// by construction here), starting at 0, non-decreasing, ending at
// size.
func checkOffsets(what string, offs []int64, size int) error {
	if len(offs) == 0 || offs[0] != 0 {
		return fmt.Errorf("%w: %s offsets do not start at 0", ErrCorrupt, what)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return fmt.Errorf("%w: %s offsets decrease at %d", ErrCorrupt, what, i)
		}
	}
	if offs[len(offs)-1] != int64(size) {
		return fmt.Errorf("%w: %s offsets end at %d, payload has %d", ErrCorrupt, what, offs[len(offs)-1], size)
	}
	return nil
}

func buildGraph(fp *fileParts, full bool) (*graph.Graph, error) {
	if err := checkOffsets("attr-name", fp.anameOffs, len(fp.anameBlob)); err != nil {
		return nil, err
	}
	memberSets, err := bitset.ViewsOver(fp.nV, fp.nA, fp.members)
	if err != nil {
		return nil, fmt.Errorf("%w: members: %v", ErrCorrupt, err)
	}
	members := make([]*bitset.Set, fp.nA)
	for a := range members {
		members[a] = &memberSets[a]
	}
	attrNames := make([]string, fp.nA)
	for a := range attrNames {
		attrNames[a] = mmapio.ViewString(fp.anameBlob[fp.anameOffs[a]:fp.anameOffs[a+1]])
	}

	g, err := graph.FromParts(graph.Parts{
		AdjOff:           fp.adjOff,
		AdjArena:         fp.adjArena,
		AttrOff:          fp.attrOff,
		AttrArena:        fp.attrArena,
		AttrNames:        attrNames,
		NumVertices:      fp.nV,
		NumEdges:         fp.nE,
		Version:          fp.meta[metaGraphVersion],
		NameBlob:         fp.vnameBlob,
		NameOffs:         fp.vnameOffs,
		Members:          members,
		ValidateElements: full,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

// buildIndex assembles the index over the carved views. The index
// reads its rows from them one at a time and builds its lookup
// structures (id indexes, per-set pattern lists) on the first access
// that needs them, keeping the open path free of any O(sets)
// construction. With checkOrder it also checks the set table's
// canonical order.
func buildIndex(fp *fileParts, g *graph.Graph, checkOrder bool) (*index.Index, error) {
	if err := checkOffsets("set-attr", fp.setAttrOff, len(fp.setAttrs)); err != nil {
		return nil, err
	}
	if checkOrder {
		if err := checkSetOrder(fp.setAttrOff, fp.setAttrs); err != nil {
			return nil, err
		}
	}
	if err := checkOffsets("pat-attr", fp.patAttrOff, len(fp.patAttrs)); err != nil {
		return nil, err
	}
	if err := checkOffsets("pat-vert", fp.patVertOff, len(fp.patVerts)); err != nil {
		return nil, err
	}

	// Every referenced attribute and vertex id is range-checked up
	// front — corrupt files must fail at open with a typed error — so
	// the row reads of the index are infallible and can be deferred.
	if err := checkIDs("set attribute", fp.setAttrs, g.NumAttributes()); err != nil {
		return nil, err
	}
	if err := checkIDs("pattern attribute", fp.patAttrs, g.NumAttributes()); err != nil {
		return nil, err
	}
	if err := checkIDs("pattern vertex", fp.patVerts, g.NumVertices()); err != nil {
		return nil, err
	}

	// The attribute-posting keys are the attribute ids of the indexed
	// sets, so they also give the name → id map the set table searches
	// need.
	attrIDs := make(map[string]int32, len(fp.attrPostKeys))
	attrPost, err := postingMap(fp.attrPostKeys, fp.attrPost, fp.nS, "attr-post", func(id int32) (string, error) {
		if id < 0 || int(id) >= g.NumAttributes() {
			return "", fmt.Errorf("%w: attr-post key %d out of range [0,%d)", ErrCorrupt, id, g.NumAttributes())
		}
		attrIDs[g.AttrName(id)] = id
		return g.AttrName(id), nil
	})
	if err != nil {
		return nil, err
	}
	vertPost, err := postingMap(fp.vertPostKeys, fp.vertPost, fp.nP, "vert-post", func(id int32) (string, error) {
		if id < 0 || int(id) >= g.NumVertices() {
			return "", fmt.Errorf("%w: vert-post key %d out of range [0,%d)", ErrCorrupt, id, g.NumVertices())
		}
		return g.VertexName(id), nil
	})
	if err != nil {
		return nil, err
	}

	st := fp.meta
	parts := index.Parts{
		DSVertices:   fp.nV,
		DSEdges:      fp.nE,
		DSAttributes: fp.nA,
		AttrPost:     attrPost,
		VertPost:     vertPost,
		AttrIDs:      attrIDs,
		Columns:      &columns{fp, g},
		NSets:        fp.nS,
		NPatterns:    fp.nP,
		Mining: core.Stats{
			SetsEvaluated:   int64(st[metaSetsEvaluated]),
			SetsEmitted:     int64(st[metaSetsEmitted]),
			PatternsEmitted: int64(st[metaPatternsEmitted]),
			SearchNodes:     int64(st[metaSearchNodes]),
			SampledVertices: int64(st[metaSampledVertices]),
			ReusedSets:      int64(st[metaReusedSets]),
			RecomputedSets:  int64(st[metaRecomputedSets]),
			ReusedVerdicts:  int64(st[metaReusedVerdicts]),
			Duration:        time.Duration(st[metaDuration]),
		},
	}
	x, err := index.FromParts(parts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return x, nil
}

// checkIDs rejects any id outside [0,n) — the eager validation pass
// that makes the index's row reads infallible.
func checkIDs(what string, ids []int32, n int) error {
	for _, v := range ids {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("%w: %s id %d out of range [0,%d)", ErrCorrupt, what, v, n)
		}
	}
	return nil
}

// checkSetOrder rejects a set table out of canonical order, the order
// the index searches it in: each set's ids strictly ascending and the
// sets strictly ascending by core.CompareAttrs. offs is a checked
// offset table over attrs.
func checkSetOrder(offs []int64, attrs []int32) error {
	for i := 0; i+1 < len(offs); i++ {
		s := attrs[offs[i]:offs[i+1]]
		for j := 1; j < len(s); j++ {
			if s[j] <= s[j-1] {
				return fmt.Errorf("%w: set %d ids not strictly ascending at %d", ErrCorrupt, i, j)
			}
		}
		if i > 0 && core.CompareAttrs(attrs[offs[i-1]:offs[i]], s) >= 0 {
			return fmt.Errorf("%w: sets %d and %d out of canonical order", ErrCorrupt, i-1, i)
		}
	}
	return nil
}

// columns reads index rows straight from the carved views: the
// attribute and vertex lists are views of the id arenas, the numbers
// are decoded from the numeric slots, the ids are views of the
// fixed-width id records and names come from the graph's name tables.
// buildIndex validates every offset table and id before it hands the
// columns to the index, so no read fails or leaves the views.
type columns struct {
	*fileParts
	g *graph.Graph
}

// Set decodes set i without its Names.
func (c *columns) Set(i int) core.AttributeSet {
	lo, hi := c.setAttrOff[i], c.setAttrOff[i+1]
	num := c.setNum[i*setSlots : (i+1)*setSlots]
	return core.AttributeSet{
		Attrs:           c.setAttrs[lo:hi:hi],
		Support:         int(num[setSupport]),
		Covered:         int(num[setCovered]),
		SampledVertices: int(num[setSampled]),
		Estimated:       num[setEstimated] != 0,
		Epsilon:         math.Float64frombits(num[setEpsilon]),
		ExpEps:          math.Float64frombits(num[setExpEps]),
		Delta:           math.Float64frombits(num[setDelta]),
		EpsilonErr:      math.Float64frombits(num[setEpsErr]),
	}
}

// Scores decodes the ranked numbers of set i.
func (c *columns) Scores(i int) (support int, epsilon, delta float64) {
	num := c.setNum[i*setSlots : (i+1)*setSlots]
	return int(num[setSupport]), math.Float64frombits(num[setEpsilon]), math.Float64frombits(num[setDelta])
}

// SetID views the id record of set i.
func (c *columns) SetID(i int) string { return idAt(c.setIDs, i) }

// Pattern decodes pattern i without its Names.
func (c *columns) Pattern(i int) core.Pattern {
	alo, ahi := c.patAttrOff[i], c.patAttrOff[i+1]
	vlo, vhi := c.patVertOff[i], c.patVertOff[i+1]
	num := c.patNum[i*patSlots : (i+1)*patSlots]
	return core.Pattern{
		Attrs:    c.patAttrs[alo:ahi:ahi],
		Vertices: c.patVerts[vlo:vhi:vhi],
		MinDeg:   int(num[patMinDeg]),
		Edges:    int(num[patEdges]),
	}
}

// PatternID views the id record of pattern i.
func (c *columns) PatternID(i int) string { return idAt(c.patIDs, i) }

// PatternSetID views the owning-set id record of pattern i.
func (c *columns) PatternSetID(i int) string { return idAt(c.patSetIDs, i) }

// AttrName resolves an attribute id through the graph.
func (c *columns) AttrName(a int32) string { return c.g.AttrName(a) }

// VertexName resolves a vertex id through the graph.
func (c *columns) VertexName(v int32) string { return c.g.VertexName(v) }

// idAt returns the i-th fixed-width id record of an id section as a
// view.
func idAt(records []byte, i int) string {
	return mmapio.ViewString(records[i*idLen : (i+1)*idLen])
}

// postingMap rebuilds a posting map from its sorted key ids and bitset
// arena. Keys must be strictly ascending — that is what makes the
// Write→Open→Encode cycle bit-identical.
func postingMap(keys []int32, arena []uint64, capacity int, what string, name func(int32) (string, error)) (map[string]*bitset.Set, error) {
	sets, err := bitset.ViewsOver(capacity, len(keys), arena)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	post := make(map[string]*bitset.Set, len(keys))
	for i, id := range keys {
		if i > 0 && id <= keys[i-1] {
			return nil, fmt.Errorf("%w: %s keys not strictly ascending at %d", ErrCorrupt, what, i)
		}
		n, err := name(id)
		if err != nil {
			return nil, err
		}
		post[n] = &sets[i]
	}
	return post, nil
}
