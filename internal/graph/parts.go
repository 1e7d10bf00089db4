package graph

import (
	"fmt"

	"github.com/scpm/scpm/internal/bitset"
)

// Parts is the raw material of a Graph: the CSR arenas, name tables
// and vertical index in their final in-memory representation. The v3
// snapshot loader assembles one from typed views over the mapped file
// (zero copies), and FromParts turns it into a Graph after validating
// the structural invariants a Builder would have guaranteed.
type Parts struct {
	// Adjacency CSR: AdjOff has len NumVertices+1 and brackets sorted
	// neighbor ranges in AdjArena.
	AdjOff   []int64
	AdjArena []int32

	// Attribute CSR, same layout over attribute ids.
	AttrOff   []int64
	AttrArena []int32

	// AttrNames maps attribute id → name; always eager (|A| is small).
	AttrNames []string

	NumVertices int
	NumEdges    int
	Version     uint64

	// Vertex labels: NameBlob holds them back to back, delimited by
	// NameOffs (len NumVertices+1), served lazily as zero-copy views.
	NameBlob []byte
	NameOffs []int64

	// Members is the vertical index: Members[a] holds the vertices
	// carrying attribute a, each of capacity NumVertices.
	Members []*bitset.Set

	// ValidateElements additionally scans every arena element (sorted
	// strictly ascending ranges, ids in bounds, no self-loops) — O(|E|
	// + Σ|F(v)|) work the mmap boot path skips to avoid faulting every
	// page in, and the full-verify path insists on.
	ValidateElements bool
}

// FromParts assembles an immutable Graph from pre-built arenas. The
// cheap structural checks (offset-table shape, table lengths, edge
// count) always run; per-element scans are gated on ValidateElements.
// The arenas are used by reference — for views over a read-only
// mapping the caller keeps the mapping open for the graph's lifetime.
func FromParts(p Parts) (*Graph, error) {
	n := p.NumVertices
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if err := checkOffsets("adjacency", p.AdjOff, n, len(p.AdjArena)); err != nil {
		return nil, err
	}
	if err := checkOffsets("attribute", p.AttrOff, n, len(p.AttrArena)); err != nil {
		return nil, err
	}
	if int64(len(p.AdjArena)) != 2*int64(p.NumEdges) {
		return nil, fmt.Errorf("graph: adjacency arena has %d entries, want 2·|E| = %d", len(p.AdjArena), 2*p.NumEdges)
	}
	if err := checkOffsets("vertex-name", p.NameOffs, n, len(p.NameBlob)); err != nil {
		return nil, err
	}
	if len(p.Members) != len(p.AttrNames) {
		return nil, fmt.Errorf("graph: %d member sets for %d attributes", len(p.Members), len(p.AttrNames))
	}
	for a, m := range p.Members {
		if m == nil || m.Len() != n {
			return nil, fmt.Errorf("graph: member set %d has capacity %v, want %d", a, setLen(m), n)
		}
	}
	if p.ValidateElements {
		if err := checkElements(p); err != nil {
			return nil, err
		}
	}

	g := &Graph{
		off:         p.AdjOff,
		nbrs:        p.AdjArena,
		attrOff:     p.AttrOff,
		attrArena:   p.AttrArena,
		attrNames:   p.AttrNames,
		attrIndex:   make(map[string]int32, len(p.AttrNames)),
		numVertices: n,
		nameBlob:    p.NameBlob,
		nameOffs:    p.NameOffs,
		numEdges:    p.NumEdges,
		attrMembers: p.Members,
		version:     p.Version,
	}
	for a, name := range p.AttrNames {
		g.attrIndex[name] = int32(a)
	}
	return g, nil
}

func setLen(m *bitset.Set) any {
	if m == nil {
		return nil
	}
	return m.Len()
}

func checkOffsets(what string, off []int64, n, arenaLen int) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s offsets have %d entries, want |V|+1 = %d", what, len(off), n+1)
	}
	if off[0] != 0 {
		return fmt.Errorf("graph: %s offsets start at %d, want 0", what, off[0])
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return fmt.Errorf("graph: %s offsets decrease at vertex %d", what, v)
		}
	}
	if off[n] != int64(arenaLen) {
		return fmt.Errorf("graph: %s offsets end at %d, arena has %d entries", what, off[n], arenaLen)
	}
	return nil
}

func checkElements(p Parts) error {
	n, a := int32(p.NumVertices), int32(len(p.AttrNames))
	for v := int32(0); int(v) < p.NumVertices; v++ {
		seg := p.AdjArena[p.AdjOff[v]:p.AdjOff[v+1]]
		prev := int32(-1)
		for _, u := range seg {
			if u < 0 || u >= n {
				return fmt.Errorf("graph: neighbor %d of vertex %d out of range [0,%d)", u, v, n)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop on vertex %d", v)
			}
			if u <= prev {
				return fmt.Errorf("graph: neighbors of vertex %d not strictly ascending", v)
			}
			prev = u
		}
		attrs := p.AttrArena[p.AttrOff[v]:p.AttrOff[v+1]]
		prev = -1
		for _, x := range attrs {
			if x < 0 || x >= a {
				return fmt.Errorf("graph: attribute %d of vertex %d out of range [0,%d)", x, v, a)
			}
			if x <= prev {
				return fmt.Errorf("graph: attributes of vertex %d not strictly ascending", v)
			}
			prev = x
		}
	}
	return nil
}
