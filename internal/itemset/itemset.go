// Package itemset implements the Eclat algorithm (Zaki, TKDE 2000) over a
// vertical database: each item carries the bitset of transactions
// containing it, and frequent itemsets are enumerated depth-first by
// intersecting tidsets along prefix equivalence classes.
//
// In the SCPM setting a "transaction" is a vertex and an "item" is a
// vertex attribute, so tidsets are exactly the vertex sets V({a}) and an
// itemset's tidset is V(S). The naive structural-correlation miner (§3.1
// of the paper) uses this package for its frequent attribute-set
// enumeration.
package itemset

import (
	"fmt"
	"sort"

	"github.com/scpm/scpm/internal/bitset"
)

// Database is a vertical transaction database.
type Database struct {
	numTx int
	items []entry
	seen  map[int32]bool
}

type entry struct {
	id   int32
	tids *bitset.Set
}

// NewDatabase creates an empty database over numTx transactions.
func NewDatabase(numTx int) *Database {
	return &Database{numTx: numTx, seen: make(map[int32]bool)}
}

// AddItem registers an item with its tidset. The tidset is used by
// reference and must not be modified afterwards; its capacity must match
// the database's transaction count.
func (d *Database) AddItem(id int32, tids *bitset.Set) error {
	if d.seen[id] {
		return fmt.Errorf("itemset: duplicate item %d", id)
	}
	if tids.Len() != d.numTx {
		return fmt.Errorf("itemset: item %d tidset capacity %d, want %d",
			id, tids.Len(), d.numTx)
	}
	d.seen[id] = true
	d.items = append(d.items, entry{id: id, tids: tids})
	return nil
}

// Miner enumerates frequent itemsets.
type Miner struct {
	// MinSupport is the absolute minimum support σmin (≥ 1).
	MinSupport int
	// MaxLen bounds the itemset length; 0 means unbounded.
	MaxLen int
}

// Itemset is a frequent itemset with its tidset.
type Itemset struct {
	Items []int32     // ascending item ids
	Tids  *bitset.Set // transactions containing all items
}

// Support returns the number of supporting transactions.
func (s Itemset) Support() int { return s.Tids.Count() }

// Mine runs Eclat, invoking emit for every frequent itemset (in DFS
// order over the prefix tree). The slices and sets passed to emit are
// owned by the callee and remain valid after emit returns. If emit
// returns false the enumeration stops early.
func (m *Miner) Mine(d *Database, emit func(s Itemset) bool) error {
	if m.MinSupport < 1 {
		return fmt.Errorf("itemset: MinSupport must be ≥ 1, got %d", m.MinSupport)
	}
	// Frequent single items, ordered by ascending support: extending
	// rare items first keeps intermediate tidsets small (standard Eclat
	// heuristic) while remaining a complete enumeration.
	var class []entry
	for _, e := range d.items {
		if e.tids.Count() >= m.MinSupport {
			class = append(class, e)
		}
	}
	sort.Slice(class, func(i, j int) bool {
		ci, cj := class[i].tids.Count(), class[j].tids.Count()
		if ci != cj {
			return ci < cj
		}
		return class[i].id < class[j].id
	})
	_, err := m.extend(nil, class, emit)
	return err
}

// extend processes one prefix equivalence class. It returns false when
// emit requested a stop.
func (m *Miner) extend(prefix []int32, class []entry, emit func(Itemset) bool) (bool, error) {
	for i, e := range class {
		items := appendSorted(prefix, e.id)
		if !emit(Itemset{Items: items, Tids: e.tids.Clone()}) {
			return false, nil
		}
		if m.MaxLen > 0 && len(items) >= m.MaxLen {
			continue
		}
		var child []entry
		for _, f := range class[i+1:] {
			t := e.tids.Intersect(f.tids)
			if t.Count() >= m.MinSupport {
				child = append(child, entry{id: f.id, tids: t})
			}
		}
		if len(child) > 0 {
			cont, err := m.extend(items, child, emit)
			if err != nil || !cont {
				return cont, err
			}
		}
	}
	return true, nil
}

// MineAll collects every frequent itemset into a slice, sorted
// canonically (by length, then lexicographically by item ids).
func (m *Miner) MineAll(d *Database) ([]Itemset, error) {
	var out []Itemset
	err := m.Mine(d, func(s Itemset) bool {
		out = append(out, s)
		return true
	})
	if err != nil {
		return nil, err
	}
	SortCanonical(out)
	return out, nil
}

// SortCanonical orders itemsets by length, then lexicographically.
func SortCanonical(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Items, sets[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// appendSorted returns a new slice: prefix with id inserted keeping
// ascending order.
func appendSorted(prefix []int32, id int32) []int32 {
	out := make([]int32, 0, len(prefix)+1)
	out = append(out, prefix...)
	pos := sort.Search(len(out), func(i int) bool { return out[i] >= id })
	out = append(out, 0)
	copy(out[pos+1:], out[pos:])
	out[pos] = id
	return out
}
