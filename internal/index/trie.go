package index

import (
	"cmp"
	"slices"

	"github.com/scpm/scpm/internal/core"
)

// trie is the attribute-set trie. Each indexed set is a root-to-node
// path over its sorted attribute ids, so exact and subset queries
// become ordered walks along query attributes. The nodes form one
// flat, pointer-free table; nodes[0] is the root.
type trie []trieNode

// trieNode is one node of the trie: the edge label that leads to it,
// the index of the attribute set ending at it (or -1), and its
// children, which are the contiguous nodes [first, first+n), sorted by
// key.
type trieNode struct {
	key, set, first, n int32
}

// buildTrie builds the trie of sets, whose attribute lists are sorted.
// It orders the sets lexicographically, so the sets below any node are
// one contiguous run, and then expands the runs node by node, which
// keeps each node's children contiguous. Were two sets equal, the
// later one would own the node.
func buildTrie(sets []core.AttributeSet) trie {
	// The first four attributes, each plus one, pack into two words:
	// most comparisons end there.
	type entry struct {
		hi, lo uint64
		set    int32
	}
	order := make([]entry, len(sets))
	for i := range sets {
		var k [4]uint64
		for j, a := range sets[i].Attrs[:min(4, len(sets[i].Attrs))] {
			k[j] = uint64(a) + 1
		}
		order[i] = entry{k[0]<<32 | k[1], k[2]<<32 | k[3], int32(i)}
	}
	slices.SortFunc(order, func(x, y entry) int {
		if c := cmp.Compare(x.hi, y.hi); c != 0 {
			return c
		}
		if c := cmp.Compare(x.lo, y.lo); c != 0 {
			return c
		}
		if c := slices.Compare(sets[x.set].Attrs, sets[y.set].Attrs); c != 0 {
			return c
		}
		return cmp.Compare(x.set, y.set)
	})
	attrs := func(k int) []int32 { return sets[order[k].set].Attrs }

	t := make(trie, 1, len(sets)+1)
	t[0] = trieNode{set: -1}
	// run is the contiguous range of order below a node at some depth.
	type run struct {
		node, lo, hi int32
		depth        int
	}
	stack := []run{{0, 0, int32(len(order)), 0}}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo := r.lo
		for lo < r.hi && len(attrs(int(lo))) == r.depth {
			t[r.node].set = order[lo].set
			lo++
		}
		first := int32(len(t))
		for lo < r.hi {
			key := attrs(int(lo))[r.depth]
			hi := lo + 1
			for hi < r.hi && attrs(int(hi))[r.depth] == key {
				hi++
			}
			t = append(t, trieNode{key: key, set: -1})
			stack = append(stack, run{int32(len(t) - 1), lo, hi, r.depth + 1})
			lo = hi
		}
		t[r.node].first, t[r.node].n = first, int32(len(t))-first
	}
	return t
}

// children returns the children of node i.
func (t trie) children(i int32) []trieNode { return t[t[i].first : t[i].first+t[i].n] }

// child returns the child of node i along edge a, or -1.
func (t trie) child(i, a int32) int32 {
	k, ok := slices.BinarySearchFunc(t.children(i), a, func(n trieNode, a int32) int { return cmp.Compare(n.key, a) })
	if !ok {
		return -1
	}
	return t[i].first + int32(k)
}

// exact returns the set index stored at the exact path attrs (sorted),
// or -1.
func (t trie) exact(attrs []int32) int32 {
	i := int32(0)
	for _, a := range attrs {
		if i = t.child(i, a); i < 0 {
			return -1
		}
	}
	return t[i].set
}

// subsets visits every set stored below node i whose attribute list is
// contained in attrs (sorted): the walk only descends edges labeled
// with query attributes, reporting each terminal node it passes.
func (t trie) subsets(i int32, attrs []int32, visit func(set int32)) {
	if t[i].set >= 0 {
		visit(t[i].set)
	}
	for k, a := range attrs {
		if c := t.child(i, a); c >= 0 {
			t.subsets(c, attrs[k+1:], visit)
		}
	}
}

// sortDedup sorts *attrs ascending and removes duplicates in place.
func sortDedup(attrs *[]int32) {
	slices.Sort(*attrs)
	*attrs = slices.Compact(*attrs)
}
