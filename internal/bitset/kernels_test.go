package bitset

import (
	"math/rand"
	"testing"
)

func TestAndIntoAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				a.Add(i)
			}
			if rng.Intn(3) == 0 {
				b.Add(i)
			}
		}
		dst := New(n)
		// Pre-dirty the scratch to prove AndInto overwrites fully.
		for i := 0; i < n; i += 2 {
			dst.Add(i)
		}
		dst.AndInto(a, b)
		for i := 0; i < n; i++ {
			want := a.Contains(i) && b.Contains(i)
			if dst.Contains(i) != want {
				t.Fatalf("n=%d AndInto bit %d = %v, want %v", n, i, dst.Contains(i), want)
			}
		}
	}
}

func TestIntersectCount2AgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		s, a, b := New(n), New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Add(i)
			}
			if rng.Intn(3) == 0 {
				a.Add(i)
			}
			if rng.Intn(4) == 0 {
				b.Add(i)
			}
		}
		ca, cb := s.IntersectCount2(a, b)
		if wa, wb := s.IntersectCount(a), s.IntersectCount(b); ca != wa || cb != wb {
			t.Fatalf("n=%d IntersectCount2 = (%d,%d), want (%d,%d)", n, ca, cb, wa, wb)
		}
	}
}

func TestNewSlab(t *testing.T) {
	slab := NewSlab(130, 5)
	if len(slab) != 5 {
		t.Fatalf("len = %d, want 5", len(slab))
	}
	for i := range slab {
		if slab[i].Len() != 130 || !slab[i].IsEmpty() {
			t.Fatalf("slab[%d] = cap %d empty %v", i, slab[i].Len(), slab[i].IsEmpty())
		}
	}
	// Writes to one slab member must not leak into its neighbors even
	// at word boundaries.
	slab[2].Add(0)
	slab[2].Add(129)
	for i := range slab {
		if i != 2 && !slab[i].IsEmpty() {
			t.Fatalf("slab[%d] dirtied by writes to slab[2]", i)
		}
	}
	if slab[2].Count() != 2 {
		t.Fatalf("slab[2].Count = %d, want 2", slab[2].Count())
	}
	// Zero-capacity and zero-count slabs are fine.
	if got := NewSlab(0, 3); len(got) != 3 {
		t.Fatalf("NewSlab(0,3) len = %d", len(got))
	}
	if got := NewSlab(10, 0); len(got) != 0 {
		t.Fatalf("NewSlab(10,0) len = %d", len(got))
	}
}

func TestNewSlabNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSlab(-1, 2) did not panic")
		}
	}()
	NewSlab(-1, 2)
}

// TestStackLIFO: pushed sets are independent, survive the stack's
// growth, and Release frees exactly the sets pushed after the mark,
// whose storage the next push overwrites.
func TestStackLIFO(t *testing.T) {
	var st Stack
	empty := New(130)
	bottom, _ := st.PushAnd(empty, empty)
	bottom.Add(129)
	mk := st.Mark()
	var live []*Set
	for i := 0; i < 50; i++ { // enough to grow both backing arrays
		s, c := st.PushAnd(empty, empty)
		if c != 0 || !s.IsEmpty() || s.Len() != 130 {
			t.Fatalf("push %d: not an empty set of capacity 130: %v", i, s)
		}
		s.Add(i)
		live = append(live, s)
	}
	for i, s := range live {
		if s.Count() != 1 || !s.Contains(i) {
			t.Fatalf("set %d changed after later pushes: %v", i, s)
		}
	}
	if bottom.Count() != 1 || !bottom.Contains(129) {
		t.Fatalf("set below the mark changed: %v", bottom)
	}
	st.Release(mk)
	if got := st.Mark(); got != mk {
		t.Fatalf("Release left the top at %+v, want %+v", got, mk)
	}
	s, _ := st.PushAnd(empty, empty)
	s.Add(7)
	st.Release(mk)
	if s, _ := st.PushAnd(empty, empty); !s.IsEmpty() {
		t.Fatalf("reused storage not overwritten: %v", s)
	}
	if bottom.Count() != 1 || !bottom.Contains(129) {
		t.Fatalf("set below the mark changed after reuse: %v", bottom)
	}
}
