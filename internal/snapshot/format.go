// Package snapshot implements the v3 snapshot format: a fixed-width,
// little-endian, section-offset-table layout that stores a Graph and
// its Index in their exact in-memory representation, so a server boots
// by mapping the file and wrapping typed views over it instead of
// decoding (see docs/FILE_FORMATS.md for the byte-level spec).
//
// A v3 file is self-contained: it embeds the graph's CSR arenas, name tables and vertical index
// alongside the index tables, stable ids and inverted postings — and
// every multi-byte value is little-endian at an 8-byte-aligned offset,
// which is what makes zero-copy []uint64/[]int64/[]int32
// reinterpretation (internal/mmapio) sound on little-endian hosts.
//
// Layout:
//
//	[0,8)    magic "SCPMIDX" + version byte 3
//	[8,16)   u64 file size (self-check against truncation)
//	[16,24)  u64 section count
//	[24,28)  u32 CRC-32 (IEEE) of bytes [0,24) ++ the section table
//	[28,32)  zero padding
//	[32,…)   section table: per section u32 kind, u32 CRC-32 of the
//	         section payload, u64 offset, u64 length (24 bytes/entry)
//	…        section payloads, each at an 8-byte-aligned offset,
//	         zero-padded up to the next section
//
// Every section's expected length is derivable from the meta section's
// counts, so structural validation is exact and runs before any
// payload byte is trusted. The table CRC is always verified on open;
// per-section CRCs are verified on the materialize path (which reads
// every byte anyway) and on demand for mapped boots, where a full
// verify would fault the whole file in and defeat lazy paging.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	magic   = "SCPMIDX"
	version = 3

	headerSize = 32
	entrySize  = 24
)

// Section kinds, in file order. Every kind appears exactly once.
const (
	kindMeta         = 1 + iota // []u64 counters (see the meta* consts)
	kindAdjOff                  // []int64, |V|+1: adjacency CSR offsets
	kindAdjArena                // []int32, 2|E|: adjacency CSR arena
	kindAttrOff                 // []int64, |V|+1: attribute CSR offsets
	kindAttrArena               // []int32: attribute CSR arena
	kindMembers                 // []u64, |A|·⌈|V|/64⌉: vertical-index bitset arena
	kindVNameOffs               // []int64, |V|+1: vertex-label blob offsets
	kindVNameBlob               // bytes: vertex labels back to back
	kindANameOffs               // []int64, |A|+1: attribute-name blob offsets
	kindANameBlob               // bytes: attribute names back to back
	kindSetAttrOff              // []int64, S+1: per-set attribute-list offsets
	kindSetAttrs                // []int32: set attribute ids back to back
	kindSetNumeric              // []u64, S·8: per-set scalars (see setSlots)
	kindSetIDs                  // bytes, S·16: stable set ids (16 hex chars each)
	kindPatAttrOff              // []int64, P+1: per-pattern attribute-list offsets
	kindPatAttrs                // []int32: pattern attribute ids back to back
	kindPatVertOff              // []int64, P+1: per-pattern vertex-list offsets
	kindPatVerts                // []int32: pattern vertex ids back to back
	kindPatNumeric              // []u64, P·2: per-pattern scalars (minDeg, edges)
	kindPatIDs                  // bytes, P·16: stable pattern ids
	kindPatSetIDs               // bytes, P·16: owning-set ids per pattern
	kindAttrPostKeys            // []int32: attribute ids keying attrPost, ascending
	kindAttrPost                // []u64: attrPost bitset arena, capacity S per key
	kindVertPostKeys            // []int32: vertex ids keying vertPost, ascending
	kindVertPost                // []u64: vertPost bitset arena, capacity P per key
	numKinds         = iota
)

// Meta section slot indices (each slot is one u64).
const (
	metaVertices = iota
	metaEdges
	metaAttributes
	metaGraphVersion
	metaSets
	metaPatterns
	metaAttrPostKeys
	metaVertPostKeys
	metaSetsEvaluated
	metaSetsEmitted
	metaPatternsEmitted
	metaSearchNodes
	metaSampledVertices
	metaReusedSets
	metaRecomputedSets
	metaReusedVerdicts
	metaDuration
	metaSlots
)

// Per-set slots in the setNumeric section; float-valued slots hold
// math.Float64bits patterns.
const (
	setSupport = iota
	setCovered
	setSampled
	setEstimated // 0 or 1
	setEpsilon   // float bits
	setExpEps    // float bits
	setDelta     // float bits
	setEpsErr    // float bits
	setSlots
)

const (
	patMinDeg = iota
	patEdges
	patSlots
)

// idLen is the byte length of every stable id (16 lowercase hex chars
// of an FNV-1a 64 hash); the id sections are fixed-width records of it.
const idLen = 16

// Typed open failures. ErrRegenerate marks a file this build reads no
// more; everything else is a bad file.
var (
	// ErrNotSnapshot reports a file without the snapshot magic.
	ErrNotSnapshot = errors.New("snapshot: not an scpm snapshot")
	// ErrVersion reports a snapshot version this build cannot read.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrRegenerate reports a snapshot of the retired v2 (index-only)
	// format: mine the dataset again and write the snapshot anew.
	ErrRegenerate = errors.New("snapshot: v2 index-only format is no longer readable; regenerate this snapshot")
	// ErrTruncated reports a file shorter than its header claims.
	ErrTruncated = errors.New("snapshot: truncated")
	// ErrMisaligned reports a section at a non-8-byte-aligned offset or
	// with a length that breaks its element width.
	ErrMisaligned = errors.New("snapshot: misaligned section")
	// ErrChecksum reports a table or section CRC mismatch.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt reports a structurally invalid file (bad counts,
	// overlapping or missing sections, broken offset tables, …).
	ErrCorrupt = errors.New("snapshot: corrupt")
	// ErrBigEndian reports a big-endian host: v3 views reinterpret
	// little-endian file bytes in place and have no byte-swapping
	// decode path.
	ErrBigEndian = errors.New("snapshot: big-endian hosts are unsupported")
)

// sectionNames maps kinds to spec names for error messages.
var sectionNames = map[uint32]string{
	kindMeta: "meta", kindAdjOff: "adj-off", kindAdjArena: "adj-arena",
	kindAttrOff: "attr-off", kindAttrArena: "attr-arena", kindMembers: "members",
	kindVNameOffs: "vname-offs", kindVNameBlob: "vname-blob",
	kindANameOffs: "aname-offs", kindANameBlob: "aname-blob",
	kindSetAttrOff: "set-attr-off", kindSetAttrs: "set-attrs",
	kindSetNumeric: "set-numeric", kindSetIDs: "set-ids",
	kindPatAttrOff: "pat-attr-off", kindPatAttrs: "pat-attrs",
	kindPatVertOff: "pat-vert-off", kindPatVerts: "pat-verts",
	kindPatNumeric: "pat-numeric", kindPatIDs: "pat-ids", kindPatSetIDs: "pat-set-ids",
	kindAttrPostKeys: "attr-post-keys", kindAttrPost: "attr-post",
	kindVertPostKeys: "vert-post-keys", kindVertPost: "vert-post",
}

func sectionName(kind uint32) string {
	if n, ok := sectionNames[kind]; ok {
		return n
	}
	return fmt.Sprintf("kind-%d", kind)
}

// wordsPer returns the bitset stride ⌈n/64⌉ shared with
// bitset.ViewsOver.
func wordsPer(n int) int { return (n + 63) / 64 }

func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:off+8], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off : off+8]) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:off+4], v) }
func getU32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off : off+4]) }
