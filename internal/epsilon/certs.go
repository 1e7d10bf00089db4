package epsilon

import (
	"github.com/scpm/scpm/internal/bitset"
	"github.com/scpm/scpm/internal/graph"
)

// maxCerts bounds a CertStore's size. Certificates past the cap are
// dropped: the store is a pure accelerator, so losing one never affects
// output, only how much search a later evaluation can skip.
const maxCerts = 4096

// CertStore accumulates coverage certificates across the ε evaluations
// of related attribute sets. A certificate is a vertex set Q — in
// parent-graph ids, sorted ascending — that is a γ-quasi-clique of
// size ≥ min_size of the subgraph induced by Q itself. Because the
// quasi-clique property of Q depends only on G[Q], the certificate
// proves "every vertex of Q is covered" for ANY attribute set S with
// Q ⊆ V(S): G(S)[Q] = G[Q]. Sibling attribute sets therefore reuse each
// other's discoveries, turning coverage searches into incremental work.
//
// Certificates live concatenated in one arena and are deduplicated by a
// 64-bit hash: the searches re-report the same quasi-cliques
// constantly, and the store must absorb that stream without per-report
// garbage. A hash collision silently drops the newer certificate —
// harmless, since the store only ever removes work.
//
// A CertStore is NOT safe for concurrent use, with one exception: a
// frozen store may serve as the shared read-only base of any number of
// layered stores (NewCertStoreFrom), each confined to its own
// goroutine. The miner builds one global base from every level-1
// evaluation — absorbed in canonical extension order, so the base is
// identical for every worker schedule and shard count — and hands each
// level-1 subtree a private layer over it, which keeps every search's
// certificate context — and with it the search-node count — independent
// of worker scheduling.
type CertStore struct {
	// base, when non-nil, is a frozen lower layer: its certificates
	// count toward Len, seed searches and dedup additions, but it is
	// never written through this store. Many layered stores may share
	// one base concurrently as long as nobody writes the base itself.
	base *CertStore

	arena []int32  // all certificates, concatenated
	ends  []int32  // ends[i] = end offset of certificate i in arena
	seen  []uint64 // fixed-size open-addressing dedup table; 0 = empty

	// Per-evaluation scratch, reused across the store's sequential
	// evaluations so seeding and capture stay allocation-free after the
	// first use. seedScratch backs seedLocal's result; curSub/capBuf
	// back the single persistent capture closure sinkFn.
	seedScratch bitset.Set
	curSub      *graph.Subgraph
	capBuf      []int32
	sinkFn      func(q []int32)
}

// seenSlots is the dedup table size: a power of two at twice maxCerts,
// so the table never exceeds load factor ½ and probes stay short.
const seenSlots = 2 * maxCerts

// NewCertStore returns an empty certificate store.
func NewCertStore() *CertStore {
	return &CertStore{}
}

// NewCertStoreFrom returns a copy-on-write layer over base: reads see
// base's certificates plus the layer's own additions; writes only ever
// touch the layer. base must be frozen — never written again — for as
// long as any layer over it is in use; under that contract, layers over
// one base are safe to use from different goroutines. A nil or empty
// base yields an independent empty store.
func NewCertStoreFrom(base *CertStore) *CertStore {
	if base.Len() == 0 {
		return &CertStore{}
	}
	return &CertStore{base: base}
}

// Len reports the number of stored certificates, base layer included.
func (c *CertStore) Len() int {
	if c == nil {
		return 0
	}
	return c.base.Len() + len(c.ends)
}

// contains probes the store's own dedup table (not the base's) for h.
func (c *CertStore) contains(h uint64) bool {
	if c == nil || c.seen == nil {
		return false
	}
	slot := h & (seenSlots - 1)
	for c.seen[slot] != 0 {
		if c.seen[slot] == h {
			return true
		}
		slot = (slot + 1) & (seenSlots - 1)
	}
	return false
}

// Add records the quasi-clique certificate q (parent-graph ids, sorted
// ascending; the values are copied). Duplicates — against the base
// layer too — and additions beyond the capacity are dropped
// allocation-free.
func (c *CertStore) Add(q []int32) {
	if c == nil || c.Len() >= maxCerts || len(q) == 0 {
		return
	}
	// FNV-1a over the id stream; sorted input makes the hash canonical.
	h := uint64(14695981039346656037)
	for _, x := range q {
		h = (h ^ uint64(uint32(x))) * 1099511628211
	}
	if h == 0 {
		h = 1 // 0 marks an empty slot
	}
	if c.base.contains(h) {
		return
	}
	if c.seen == nil {
		c.seen = make([]uint64, seenSlots)
	}
	// Linear probe. A full-looking run or a hash collision drops the
	// certificate — the store only removes work, so both are harmless.
	slot := h & (seenSlots - 1)
	for c.seen[slot] != 0 {
		if c.seen[slot] == h {
			return
		}
		slot = (slot + 1) & (seenSlots - 1)
	}
	c.seen[slot] = h
	c.arena = append(c.arena, q...)
	c.ends = append(c.ends, int32(len(c.arena)))
}

// forEach calls fn with each stored certificate in canonical order —
// base layer first, then own additions in insertion order (views into
// the arena; callers must not retain or modify them).
func (c *CertStore) forEach(fn func(q []int32)) {
	if c == nil {
		return
	}
	c.base.forEach(fn)
	start := int32(0)
	for _, end := range c.ends {
		fn(c.arena[start:end])
		start = end
	}
}

// Absorb appends every certificate of o, in o's canonical order, to c
// (dedup and capacity rules apply). The miner merges the per-single
// level-1 stores into one global base with it, always in extension
// order, so the merged store is identical for every worker schedule.
func (c *CertStore) Absorb(o *CertStore) {
	if c == nil || o == nil {
		return
	}
	o.forEach(func(q []int32) { c.Add(q) })
}

// Frozen returns c's own certificates as a compact read-only store
// that shares c's arena but drops its dedup table and scratch, so a
// finished evaluation's discoveries can be kept cheaply. The result
// serves Len, Absorb and Certificates; it must never be written to or
// layered on with NewCertStoreFrom, and c must not be written again.
// It is nil when c holds no certificate of its own.
func (c *CertStore) Frozen() *CertStore {
	if c == nil || len(c.ends) == 0 {
		return nil
	}
	return &CertStore{arena: c.arena[:len(c.arena):len(c.arena)], ends: c.ends[:len(c.ends):len(c.ends)]}
}

// Certificates returns a copy of every stored certificate in canonical
// order. The shard manifest seals level-1 certificates with it;
// replaying the returned slices through Add in order rebuilds an
// equivalent store.
func (c *CertStore) Certificates() [][]int32 {
	if c.Len() == 0 {
		return nil
	}
	out := make([][]int32, 0, c.Len())
	c.forEach(func(q []int32) {
		out = append(out, append([]int32(nil), q...))
	})
	return out
}

// seedLocal builds the set of local-id vertices of sub that the stored
// certificates prove covered: the union of every certificate lying
// wholly inside the candidate set. Returns nil when no certificate
// applies. The returned set aliases store-owned scratch and is only
// valid until the next seedLocal call on the same store.
func (c *CertStore) seedLocal(sub *graph.Subgraph, candidates *bitset.Set) *bitset.Set {
	if c.Len() == 0 {
		return nil
	}
	var seed *bitset.Set
	c.forEach(func(q []int32) {
		for _, v := range q {
			if !candidates.Contains(int(v)) {
				return
			}
		}
		if seed == nil {
			c.seedScratch.Reset(len(sub.Orig))
			seed = &c.seedScratch
		}
		for _, v := range q {
			if local := sub.LocalOf(v); local >= 0 {
				seed.Add(int(local))
			}
		}
	})
	return seed
}

// capture returns a sink translating quasi-cliques reported in sub's
// local ids to parent ids and storing them as certificates. Local ids
// are ascending in parent-id order, so the translated set stays sorted.
// The same closure is reused across calls — only curSub is swapped — so
// a sink is dead the moment capture is called again on its store; the
// miner's sequential per-store evaluation order guarantees that.
func (c *CertStore) capture(sub *graph.Subgraph) func(q []int32) {
	if c == nil {
		return nil
	}
	c.curSub = sub
	if c.sinkFn == nil {
		c.sinkFn = func(q []int32) {
			c.capBuf = c.capBuf[:0]
			for _, local := range q {
				c.capBuf = append(c.capBuf, c.curSub.Orig[local])
			}
			c.Add(c.capBuf)
		}
	}
	return c.sinkFn
}
