package core

import (
	"cmp"
	"sort"
	"strings"
)

// Ranking selects the ordering criterion of TopSets.
type Ranking int

const (
	// BySupport ranks by σ descending (first column block of Tables
	// 2–4).
	BySupport Ranking = iota
	// ByEpsilon ranks by ε descending (second block).
	ByEpsilon
	// ByDelta ranks by δ descending (third block).
	ByDelta
)

// String names the ranking for table headers.
func (r Ranking) String() string {
	switch r {
	case BySupport:
		return "σ"
	case ByEpsilon:
		return "ε"
	default:
		return "δ"
	}
}

// ParseRanking maps a rank parameter value — "support" or "sigma",
// "epsilon" or "eps", "delta", in any case — to its Ranking.
func ParseRanking(s string) (Ranking, bool) {
	switch strings.ToLower(s) {
	case "support", "sigma":
		return BySupport, true
	case "epsilon", "eps":
		return ByEpsilon, true
	case "delta":
		return ByDelta, true
	}
	return 0, false
}

// Compare is the one σ/ε/δ ranking rule, shared by TopSets, the
// server's ranked listings and the gateway's merge. It is negative
// when a ranks before b: the ranked metric descending (an infinite δ,
// which arises when εexp underflows, ranks first), then support
// descending. Only Support, Epsilon and Delta are read. Sets it ties
// rank in canonical order (CompareAttrs); a caller whose input is
// already canonical may break ties by position instead, which skips
// reading the attribute ids.
func (r Ranking) Compare(a, b *AttributeSet) int {
	c := 0
	switch r {
	case ByEpsilon:
		c = cmp.Compare(b.Epsilon, a.Epsilon)
	case ByDelta:
		c = cmp.Compare(b.Delta, a.Delta)
	}
	if c == 0 {
		c = cmp.Compare(b.Support, a.Support)
	}
	return c
}

// TopSets returns the n best attribute sets under the given ranking.
func TopSets(sets []AttributeSet, r Ranking, n int) []AttributeSet {
	out := append([]AttributeSet(nil), sets...)
	sort.Slice(out, func(i, j int) bool {
		if c := r.Compare(&out[i], &out[j]); c != 0 {
			return c < 0
		}
		return CompareAttrs(out[i].Attrs, out[j].Attrs) < 0
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
