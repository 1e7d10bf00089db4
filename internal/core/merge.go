package core

import (
	"fmt"
)

// MergeResults combines the per-shard results of a partitioned mining
// run (Params.ShardOwner) into the single-process result, deterministically.
// Each part arrives in canonical order (every Mine output is), and the
// shards of a disjoint partition emit disjoint set families, so the
// merge is a k-way merge of presorted runs: no re-sort, no dedup map —
// the per-shard orders interleave directly into the canonical global
// order. Stats counters are summed and the recorded lattices unioned.
// When every shard of a disjoint, complete partition mined the same
// graph with the same parameters, the merged output — sets, ε, δ,
// patterns, stable ids, counter totals and the lattice and level-1
// table a later Remine consumes — is bit-identical to one Mine over the whole lattice; only
// Stats.Duration (the slowest shard, the wall time of a perfectly
// parallel run) and Stats.ReusedVerdicts (an accounting counter, not an
// output property) differ.
//
// Overlapping partitions are caught: a set emitted by two shards is a
// partition bug, and MergeResults refuses to merge it rather than
// silently double-reporting — two parts presenting the same set meet
// head-to-head during the merge. Lattices must all come from the same
// graph version; the merged result carries a lattice only when every
// part recorded one (a single lattice-less shard would leave holes that
// a Remine would silently treat as never-evaluated).
func MergeResults(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: MergeResults needs at least one result")
	}
	merged := &Result{}
	allLattices := true
	var nSets, nPats int
	for i, part := range parts {
		if part == nil {
			return nil, fmt.Errorf("core: MergeResults part %d is nil", i)
		}
		nSets += len(part.Sets)
		nPats += len(part.Patterns)
		merged.Stats.SetsEvaluated += part.Stats.SetsEvaluated
		merged.Stats.SetsEmitted += part.Stats.SetsEmitted
		merged.Stats.PatternsEmitted += part.Stats.PatternsEmitted
		merged.Stats.SearchNodes += part.Stats.SearchNodes
		merged.Stats.SampledVertices += part.Stats.SampledVertices
		merged.Stats.ReusedSets += part.Stats.ReusedSets
		merged.Stats.RecomputedSets += part.Stats.RecomputedSets
		merged.Stats.ReusedVerdicts += part.Stats.ReusedVerdicts
		if part.Stats.Duration > merged.Stats.Duration {
			merged.Stats.Duration = part.Stats.Duration
		}
		if part.lattice == nil {
			allLattices = false
		}
	}

	merged.Sets = make([]AttributeSet, 0, nSets)
	heads := make([]int, len(parts))
	for {
		best := -1
		for i, part := range parts {
			if heads[i] >= len(part.Sets) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			c := CompareAttrs(part.Sets[heads[i]].Attrs, parts[best].Sets[heads[best]].Attrs)
			if c == 0 {
				return nil, fmt.Errorf("core: attribute set {%s} emitted by more than one shard (overlapping partition?)",
					part.Sets[heads[i]].Key())
			}
			if c < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		merged.Sets = append(merged.Sets, parts[best].Sets[heads[best]])
		heads[best]++
	}

	// Patterns group under their attribute set, and sets are disjoint
	// across parts, so the pattern comparator never ties across parts
	// either — the attrs comparison alone picks the run to drain from.
	merged.Patterns = make([]Pattern, 0, nPats)
	for i := range heads {
		heads[i] = 0
	}
	for {
		best := -1
		for i, part := range parts {
			if heads[i] >= len(part.Patterns) {
				continue
			}
			if best < 0 || CompareAttrs(part.Patterns[heads[i]].Attrs, parts[best].Patterns[heads[best]].Attrs) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		merged.Patterns = append(merged.Patterns, parts[best].Patterns[heads[best]])
		heads[best]++
	}

	if allLattices {
		lat, err := mergeLattices(parts)
		if err != nil {
			return nil, err
		}
		// Every shard holds the complete level-1 table of the one graph
		// version, so any shard's table is the merged one.
		merged.lattice, merged.level1 = lat, parts[0].level1
	}
	return merged, nil
}

// mergeLattices unions the per-shard lattices into one. A shard records
// only the subtrees whose roots it owns, so the parts' trees are
// disjoint and the union shares every one of them.
func mergeLattices(parts []*Result) (*Lattice, error) {
	first := parts[0].lattice
	out := &Lattice{version: first.version, trees: make([]*latticeTree, len(first.trees)), exp: first.exp}
	for i, part := range parts {
		l := part.lattice
		if l.version != out.version {
			return nil, fmt.Errorf("core: shard %d lattice is at graph version %d, shard 0 at %d",
				i, l.version, out.version)
		}
		for a, t := range l.trees {
			if t == nil {
				continue
			}
			if a >= len(out.trees) || out.trees[a] != nil {
				return nil, fmt.Errorf("core: subtree of attribute %d recorded by more than one shard (overlapping partition?)", a)
			}
			out.trees[a] = t
		}
	}
	return out, nil
}
