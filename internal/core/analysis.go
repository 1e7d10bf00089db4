package core

import (
	"sort"

	"github.com/scpm/scpm/internal/bitset"
)

// GlobalTopPatterns returns the n best patterns across all attribute
// sets, ranked by size then density (the "largest structural
// correlation pattern" the paper highlights per dataset, e.g. the
// 34-user Van Morrison community of Figure 5(b)).
func GlobalTopPatterns(pats []Pattern, n int) []Pattern {
	out := append([]Pattern(nil), pats...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		da, db := a.Density(), b.Density()
		if da != db {
			return da > db
		}
		if c := CompareAttrs(a.Attrs, b.Attrs); c != 0 {
			return c < 0
		}
		return lessVertices(a.Vertices, b.Vertices)
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// DedupPatterns removes patterns whose vertex set overlaps an already
// kept (better-ranked) pattern with Jaccard similarity ≥ threshold.
// The same community typically appears for several attribute sets
// ({A}, {B} and {A,B} in Table 1 all report {6..11}); deduplication
// keeps one representative per community for presentation.
//
// numVertices is the parent graph's vertex count; threshold is in
// (0, 1]. Patterns are considered in GlobalTopPatterns order and the
// result preserves that order.
func DedupPatterns(pats []Pattern, numVertices int, threshold float64) []Pattern {
	ranked := GlobalTopPatterns(pats, len(pats))
	type kept struct {
		set  *bitset.Set
		size int
	}
	var seen []kept
	var out []Pattern
	for _, p := range ranked {
		bs := bitset.FromSlice(numVertices, p.Vertices)
		dup := false
		for _, k := range seen {
			inter := k.set.IntersectCount(bs)
			union := k.size + p.Size() - inter
			if union > 0 && float64(inter)/float64(union) >= threshold {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen = append(seen, kept{set: bs, size: p.Size()})
		out = append(out, p)
	}
	return out
}
