package index

import (
	"cmp"
	"math/bits"
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
// It expands the trie depth first from the root; each node owns the
// contiguous run of order whose sets pass through it, and a stable
// bucket pass orders that run by the attribute at the node's depth,
// sets that end at the node first, so the node's children come out
// contiguous and sorted by key. Equal sets keep set order, so the later
// of two equal sets owns their node.
func buildTrie(sets []core.AttributeSet) trie {
	order := make([]int32, len(sets))
	for i := range order {
		order[i] = int32(i)
	}
	// The root's run is every set, so the buffers never grow.
	b := runSorter{
		ks:     make([]uint32, 0, len(sets)),
		ksTmp:  make([]uint32, 0, len(sets)),
		runTmp: make([]int32, 0, len(sets)),
	}
	t := make(trie, 1, len(sets)+1)
	t[0] = trieNode{set: -1}
	// run is the contiguous range of order below a node at some depth.
	type run struct {
		node, lo, hi, depth int32
	}
	stack := []run{{0, 0, int32(len(order)), 0}}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		below := order[r.lo:r.hi]
		ks := b.sort(sets, below, int(r.depth))
		k := 0
		for ; k < len(ks) && ks[k] == 0; k++ {
			t[r.node].set = below[k]
		}
		first := int32(len(t))
		for k < len(ks) {
			key := ks[k]
			j := k + 1
			for j < len(ks) && ks[j] == key {
				j++
			}
			t = append(t, trieNode{key: int32(key - 1), set: -1})
			stack = append(stack, run{int32(len(t) - 1), r.lo + int32(k), r.lo + int32(j), r.depth + 1})
			k = j
		}
		t[r.node].first, t[r.node].n = first, int32(len(t))-first
	}
	return t
}

// smallRun is the longest run that runSorter orders by insertion.
const smallRun = 24

// runSorter orders trie runs by one attribute position. Its buffers are
// reused from run to run; count, the histogram of the counting passes,
// holds at most one counter per attribute plus one.
type runSorter struct {
	ks, ksTmp []uint32
	runTmp    []int32
	count     []int32
}

// sort orders run, set indices whose lists agree before position
// depth, stably by their key at depth — the attribute there plus one,
// or 0 for a list that ends there — and returns those keys, aligned
// with the ordered run. The slice is valid until the next call.
func (b *runSorter) sort(sets []core.AttributeSet, run []int32, depth int) []uint32 {
	ks := b.ks[:0]
	lo, hi := ^uint32(0), uint32(0)
	ordered := true
	for _, s := range run {
		var k uint32
		if a := sets[s].Attrs; depth < len(a) {
			k = uint32(a[depth]) + 1
		}
		ordered = ordered && k >= hi
		lo, hi = min(lo, k), max(hi, k)
		ks = append(ks, k)
	}
	b.ks = ks
	switch {
	case ordered:
	case len(run) <= smallRun:
		for i := 1; i < len(ks); i++ {
			k, s := ks[i], run[i]
			j := i
			for ; j > 0 && ks[j-1] > k; j-- {
				ks[j], run[j] = ks[j-1], run[j-1]
			}
			ks[j], run[j] = k, s
		}
	default:
		// Stable counting passes over the keys less lo: one pass when
		// they span few values for the run's length, else one per 8-bit
		// digit, least significant first. A single pass over a wide span
		// would cost the span at every such node: the dblp@0.2 lattice
		// with its ids spread over 100,000 attributes builds in ~50 ms
		// with the digit passes, ~650 ms without, and ~95 ms with the
		// comparison sort this replaced.
		span, mask, passes := hi-lo+1, ^uint32(0), 1
		if int(span) > 4*len(run)+256 {
			span, mask, passes = 256, 255, (bits.Len32(hi-lo)+7)/8
		}
		count := slices.Grow(b.count[:0], int(span))[:span]
		ksDst := slices.Grow(b.ksTmp[:0], len(run))[:len(run)]
		runSrc, runDst := run, slices.Grow(b.runTmp[:0], len(run))[:len(run)]
		b.count, b.runTmp = count, runDst
		for p := 0; p < passes; p++ {
			shift := 8 * p
			clear(count)
			for _, k := range ks {
				count[(k-lo)>>shift&mask]++
			}
			pos := int32(0)
			for i, c := range count {
				count[i] = pos
				pos += c
			}
			for i, k := range ks {
				d := (k - lo) >> shift & mask
				ksDst[count[d]], runDst[count[d]] = k, runSrc[i]
				count[d]++
			}
			ks, ksDst = ksDst, ks
			runSrc, runDst = runDst, runSrc
		}
		if passes%2 == 1 {
			copy(run, runSrc)
		}
		b.ks, b.ksTmp = ks, ksDst
	}
	return b.ks
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
