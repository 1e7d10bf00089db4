package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.IsEmpty() {
		t.Fatal("new set should be empty")
	}
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("Contains(%d) = false after Add", v)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	s.Clear()
	if !s.IsEmpty() {
		t.Fatal("set not empty after Clear")
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := New(10)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Fatal("Contains should be false out of range")
	}
}

func TestFromSliceAndSlice(t *testing.T) {
	in := []int32{9, 3, 3, 0, 7}
	s := FromSlice(10, in)
	got := s.Slice()
	want := []int32{0, 3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Slice = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v, want %v", got, want)
		}
	}
}

func TestNextSet(t *testing.T) {
	s := FromSlice(200, []int32{5, 64, 130, 199})
	cases := []struct{ in, want int }{
		{0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 130},
		{131, 199}, {199, 199}, {-3, 5},
	}
	for _, c := range cases {
		if got := s.NextSet(c.in); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := s.NextSet(200); got != -1 {
		t.Errorf("NextSet(200) = %d, want -1", got)
	}
	empty := New(100)
	if got := empty.NextSet(0); got != -1 {
		t.Errorf("NextSet on empty = %d, want -1", got)
	}
}

func TestStringFormat(t *testing.T) {
	s := FromSlice(10, []int32{1, 4})
	if got := s.String(); got != "{1, 4}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// refSet is a map-based reference used by the property tests.
type refSet map[int]bool

func refFromBytes(n int, bs []byte) (*Set, refSet) {
	s := New(n)
	r := refSet{}
	for _, b := range bs {
		v := int(b) % n
		s.Add(v)
		r[v] = true
	}
	return s, r
}

func (r refSet) slice() []int {
	out := make([]int, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func TestQuickAgainstMapReference(t *testing.T) {
	const n = 300
	f := func(as, bs []byte) bool {
		sa, ra := refFromBytes(n, as)
		sb, rb := refFromBytes(n, bs)

		inter := sa.Intersect(sb)
		union := sa.Clone()
		union.UnionWith(sb)

		for v := 0; v < n; v++ {
			if inter.Contains(v) != (ra[v] && rb[v]) {
				return false
			}
			if union.Contains(v) != (ra[v] || rb[v]) {
				return false
			}
		}
		if sa.IntersectCount(sb) != inter.Count() {
			return false
		}
		if sa.ContainsAll(inter) != true {
			return false
		}
		if union.ContainsAll(sa) != true {
			return false
		}
		if len(ra) != sa.Count() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickForEachOrder(t *testing.T) {
	const n = 500
	f := func(vals []uint16) bool {
		s := New(n)
		for _, v := range vals {
			s.Add(int(v) % n)
		}
		prev := -1
		ok := true
		s.ForEach(func(i int) bool {
			if i <= prev {
				ok = false
				return false
			}
			prev = i
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromSlice(100, []int32{1, 2, 3, 4})
	seen := 0
	s.ForEach(func(i int) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Fatalf("early stop visited %d, want 2", seen)
	}
}

func TestEqualAndCopyFrom(t *testing.T) {
	a := FromSlice(100, []int32{1, 50, 99})
	b := New(100)
	if a.Equal(b) {
		t.Fatal("different sets compare equal")
	}
	b.CopyFrom(a)
	if !a.Equal(b) {
		t.Fatal("CopyFrom result not equal")
	}
	if a.Equal(New(50)) {
		t.Fatal("sets of different capacity compare equal")
	}
}

// TestWordBoundarySizes exercises capacities straddling the 64-bit word
// boundary, where off-by-one word counts or stray high bits would show.
func TestWordBoundarySizes(t *testing.T) {
	for _, n := range []int{63, 64, 65} {
		s := New(n)
		for v := 0; v < n; v++ {
			s.Add(v)
		}
		if got := s.Count(); got != n {
			t.Fatalf("n=%d: Count after filling = %d", n, got)
		}
		if got := s.Slice(); len(got) != n || int(got[n-1]) != n-1 {
			t.Fatalf("n=%d: Slice tail = %v", n, got)
		}
		if got := s.NextSet(n - 1); got != n-1 {
			t.Fatalf("n=%d: NextSet(%d) = %d", n, n-1, got)
		}
		if got := s.NextSet(n); got != -1 {
			t.Fatalf("n=%d: NextSet(n) = %d, want -1", n, got)
		}
		s.Remove(n - 1)
		if s.Contains(n-1) || s.Count() != n-1 {
			t.Fatalf("n=%d: Remove of last element failed", n)
		}
		other := New(n)
		other.Add(0)
		if got := s.IntersectCount(other); got != 1 {
			t.Fatalf("n=%d: IntersectCount = %d, want 1", n, got)
		}
	}
}

// TestEmptySetOps pins down every operation on empty sets, including the
// zero-capacity set (a valid value: New(0) and the zero Set).
func TestEmptySetOps(t *testing.T) {
	for _, n := range []int{0, 1, 64, 65} {
		a, b := New(n), New(n)
		if !a.IsEmpty() || a.Count() != 0 {
			t.Fatalf("n=%d: empty set reports elements", n)
		}
		if got := a.Slice(); len(got) != 0 {
			t.Fatalf("n=%d: empty Slice = %v", n, got)
		}
		if a.NextSet(0) != -1 {
			t.Fatalf("n=%d: NextSet on empty != -1", n)
		}
		if a.IntersectCount(b) != 0 {
			t.Fatalf("n=%d: empty IntersectCount != 0", n)
		}
		if !a.ContainsAll(b) || !a.Equal(b) {
			t.Fatalf("n=%d: empty sets must contain and equal each other", n)
		}
		a.IntersectWith(b)
		a.UnionWith(b)
		if !a.IsEmpty() {
			t.Fatalf("n=%d: set ops dirtied an empty set", n)
		}
		called := false
		a.ForEach(func(int) bool { called = true; return true })
		if called {
			t.Fatalf("n=%d: ForEach visited elements of an empty set", n)
		}
		if got := a.Clone(); !got.IsEmpty() || got.Len() != n {
			t.Fatalf("n=%d: Clone of empty = %v", n, got)
		}
	}
	var zero Set
	if !zero.IsEmpty() || zero.Count() != 0 || zero.Len() != 0 {
		t.Fatal("zero Set is not a valid empty set")
	}
}

// TestIntersectCountAgainstNaive checks IntersectCount against an
// element-by-element reference on randomized sets, including boundary
// capacities.
func TestIntersectCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 63, 64, 65, 127, 300} {
		for trial := 0; trial < 20; trial++ {
			a, b := New(n), New(n)
			for i := 0; i < n/2+1; i++ {
				a.Add(rng.Intn(n))
				b.Add(rng.Intn(n))
			}
			naive := 0
			for v := 0; v < n; v++ {
				if a.Contains(v) && b.Contains(v) {
					naive++
				}
			}
			if got := a.IntersectCount(b); got != naive {
				t.Fatalf("n=%d: IntersectCount = %d, naive = %d", n, got, naive)
			}
		}
	}
}

// TestGrown covers the capacity-growing clone used by the dynamic-graph
// layer: elements preserved, tail empty, shrink requests ignored.
func TestGrown(t *testing.T) {
	s := FromSlice(65, []int32{0, 63, 64})
	g := s.Grown(130)
	if g.Len() != 130 {
		t.Fatalf("Grown capacity = %d, want 130", g.Len())
	}
	for _, v := range []int{0, 63, 64} {
		if !g.Contains(v) {
			t.Fatalf("Grown lost element %d", v)
		}
	}
	if g.Count() != 3 {
		t.Fatalf("Grown count = %d, want 3", g.Count())
	}
	if g.NextSet(65) != -1 {
		t.Fatal("Grown tail is not empty")
	}
	g.Add(129)
	if s.Contains(64) != true || s.Count() != 3 {
		t.Fatal("Grown shares storage with the original")
	}
	if shrunk := s.Grown(10); shrunk.Len() != 65 || shrunk.Count() != 3 {
		t.Fatalf("Grown(10) must keep capacity 65, got %d", shrunk.Len())
	}
	if zero := New(0).Grown(70); zero.Len() != 70 || !zero.IsEmpty() {
		t.Fatalf("Grown from zero capacity = len %d", zero.Len())
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	New(10).IntersectWith(New(20))
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative capacity")
		}
	}()
	New(-1)
}

func BenchmarkIntersectCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	x, y := New(n), New(n)
	for i := 0; i < n/4; i++ {
		x.Add(rng.Intn(n))
		y.Add(rng.Intn(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectCount(y)
	}
}
